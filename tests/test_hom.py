"""Multihomomorphism enumeration, the Hom poset, witnesses, fibers."""

import dataclasses
import gc
import random
from itertools import combinations, product

import pytest

import homcx.hom
import homcx.verify
from homcx import (
    CapExceeded,
    Graph,
    Multihom,
    WitnessTrace,
    build_g_kx,
    check_quillen_conditions,
    common_neighbor_witness,
    common_neighborhood,
    complete_graph,
    core_fixture,
    enumerate_hom,
    fiber_maximum,
    greedy_collapse,
    hom_homology,
    hom_order_complex,
    hom_poset_to_dict,
    homology,
    is_multihom,
    looped_edge_graph,
    multihom_to_dict,
    neighborhood_complex,
    profiles_equal,
    restriction_map,
)
from homcx.hom import _decode, _encode
from homcx.simplicial import MaskView
from test_graphs import random_graph


def pointwise_le(a, b):
    """Whether each image of the multihom ``a`` lies in that of ``b``."""
    if a.domain != b.domain or a.target != b.target:
        raise ValueError("multihomomorphisms over different domains or targets")
    return not any(x & ~y for x, y in zip(a.images, b.images))


def multihom(domain, H, *images):
    """The Multihom giving the i-th vertex of ``domain`` the vertex set
    ``images[i]`` of H, as masks over H's ranks."""
    return Multihom(tuple(domain), tuple(_encode(H.rank, s) for s in images), H.vertices)


def decoded(m):
    """The images of m as sets of target vertices."""
    return tuple(m.get(u) for u in m.domain)


def nonempty_subsets(verts):
    out = []
    for r in range(1, len(verts) + 1):
        out.extend(frozenset(c) for c in combinations(verts, r))
    return out


def brute_hom(G, H):
    """Exhaustive multihomomorphism search, no pruning."""
    pools = nonempty_subsets(list(H.vertices))
    found = set()
    dom = G.vertices
    for images in product(pools, repeat=len(dom)):
        img = dict(zip(dom, images))
        ok = True
        for u, v in G.edges:
            for a in img[u]:
                for b in img[v]:
                    if not H.has_edge(a, b):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.add(images)
    return found


def brute_cover_pairs(elements):
    """Cover relation of the pointwise-inclusion order, by triple scan."""
    less = {
        (a, b)
        for a in elements
        for b in elements
        if a != b and all(x <= y for x, y in zip(decoded(a), decoded(b)))
    }
    return {
        (a, b)
        for (a, b) in less
        if not any((a, c) in less and (c, b) in less for c in elements)
    }


def test_is_multihom_accepts_and_rejects():
    G = complete_graph(2)
    H = complete_graph(3)
    # as masks over H's ranks, and as a mapping to vertex sets
    good = multihom((1, 2), H, [1], [2, 3])
    assert is_multihom(G, H, good)
    assert is_multihom(G, H, {1: {1}, 2: {2, 3}})
    bad = multihom((1, 2), H, [1], [1, 2])
    assert not is_multihom(G, H, bad)
    assert not is_multihom(G, H, {1: {1}, 2: {1, 2}})


def test_is_multihom_validates_shape():
    G = complete_graph(2)
    H = complete_graph(3)
    with pytest.raises(ValueError, match="domain"):
        is_multihom(G, H, multihom((1,), H, [1]))
    with pytest.raises(ValueError, match="target"):
        is_multihom(G, H, multihom((1, 2), complete_graph(4), [1], [2]))
    with pytest.raises(ValueError, match="no image"):
        is_multihom(G, H, {1: {1}})
    with pytest.raises(ValueError, match="empty image"):
        is_multihom(G, H, multihom((1, 2), H, [], [1]))
    with pytest.raises(ValueError, match="empty image"):
        is_multihom(G, H, {1: set(), 2: {9}})
    with pytest.raises(ValueError, match="leaves the target"):
        is_multihom(G, H, {1: {9}, 2: {1}})
    with pytest.raises(ValueError, match="leaves the target"):
        is_multihom(G, H, Multihom((1, 2), (1 << 3, 1), H.vertices))


def test_is_multihom_loop_needs_reflexive_clique_image():
    T = looped_edge_graph()
    H = complete_graph(3)  # loopless target
    eta = {"a": {1}, "b": {2}}
    # b carries a loop, so its image must span loops in H; K_3 has none
    assert not is_multihom(T, H, eta)
    Hr = complete_graph(3, loops=True)
    assert is_multihom(T, Hr, eta)


def test_enumerate_matches_brute_force():
    targets = [
        complete_graph(3),
        complete_graph(2),
        build_g_kx(core_fixture("delta1"), 1),
        Graph(vertices=["a", "b", "c", "d"],
              edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    ]
    for H in targets:
        P = enumerate_hom(complete_graph(2), H)
        assert set(map(decoded, P)) == brute_hom(complete_graph(2), H)
    P3 = enumerate_hom(complete_graph(3), build_g_kx(core_fixture("delta1"), 1))
    assert set(map(decoded, P3)) == brute_hom(
        complete_graph(3), build_g_kx(core_fixture("delta1"), 1)
    )


def test_enumerate_matches_brute_force_random_targets():
    rng = random.Random(59)
    for _ in range(15):
        H = random_graph(rng, n_max=4)
        P = enumerate_hom(complete_graph(2), H)
        assert set(map(decoded, P)) == brute_hom(complete_graph(2), H)


def test_enumerate_with_looped_domain():
    T = looped_edge_graph()
    H = build_g_kx(core_fixture("delta1"), 1)
    P = enumerate_hom(T, H)
    assert set(map(decoded, P)) == brute_hom(T, H)


def test_hom_counts_on_containment_graphs():
    cases = [
        ("delta1", 2, 21),
        ("boundary_delta2", 2, 72),
        ("boundary_delta2", 3, 192),
        ("delta2", 2, 541),
    ]
    for name, n, count in cases:
        G = build_g_kx(core_fixture(name), 1)
        P = enumerate_hom(complete_graph(n), G)
        assert len(P.elements) == count, (name, n)


def test_hom_k2_k2_is_two_points():
    P = enumerate_hom(complete_graph(2), complete_graph(2))
    assert len(P.elements) == 2
    prof = homology(hom_order_complex(P))
    assert prof.betti == (2,)


def test_hom_k2_k3_is_a_circle():
    P = enumerate_hom(complete_graph(2), complete_graph(3))
    assert len(P.elements) == 12
    OC = hom_order_complex(P)
    assert OC.f_vector() == (12, 12)
    prof = homology(OC)
    assert prof.betti == (1, 1)


def test_poset_covers_match_brute_force():
    for H in (complete_graph(3), build_g_kx(core_fixture("delta1"), 1)):
        P = enumerate_hom(complete_graph(2), H)
        poset = P.to_poset()
        want = brute_cover_pairs(list(P.elements))
        assert set(poset.cover_pairs()) == want


def test_pointwise_order_helpers():
    H = Graph(["x", "y", "z"], [])
    a = multihom((1, 2), H, ["x"], ["y"])
    b = multihom((1, 2), H, ["x"], ["y", "z"])
    assert pointwise_le(a, b)
    assert not pointwise_le(b, a)
    assert a.total_size() == 2 and b.total_size() == 3
    assert b.get(2) == frozenset(["y", "z"])
    assert str(b) == "({x}|{y,z})"
    with pytest.raises(ValueError, match="different domains or targets"):
        pointwise_le(a, multihom((1, 2), Graph(["x", "y"], []), ["x"], ["y"]))


def test_enumeration_cap():
    G = build_g_kx(core_fixture("boundary_delta2"), 1)
    with pytest.raises(CapExceeded) as exc:
        enumerate_hom(complete_graph(2), G, cap=10)
    assert exc.value.cap == 10
    assert exc.value.partial_count >= 10


def test_cap_zero_stops_every_source():
    """The empty assignment at the root counts as tried, so cap 0 stops
    even the empty source, whose one element it is, and cap 1 lets that
    element through."""
    H = complete_graph(2)
    for G in (Graph([], []), complete_graph(1)):
        with pytest.raises(CapExceeded) as exc:
            enumerate_hom(G, H, cap=0)
        assert exc.value.partial_count == 1
    assert len(enumerate_hom(Graph([], []), H, cap=1)) == 1


@pytest.mark.parametrize(
    "fixture, source, work",
    [
        ("delta2", complete_graph(2), 669),
        ("delta2", complete_graph(3), 3448),
        ("delta2", looped_edge_graph(), 601),
        # the isolated vertex 1 has no later neighbor and no loop, so it
        # tries every subset of the target
        ("delta2", Graph([1, 2, 3], [(2, 3)]), 84964),
        ("boundary_delta3", complete_graph(2), 5288),
        ("boundary_delta3", complete_graph(3), 18430),
    ],
)
def test_enumeration_work_is_pinned(fixture, source, work):
    """The cap is met by exactly the assignments tried, root included."""
    H = build_g_kx(core_fixture(fixture), 1)
    enumerate_hom(source, H, cap=work)
    with pytest.raises(CapExceeded) as exc:
        enumerate_hom(source, H, cap=work - 1)
    assert exc.value.partial_count == work


@pytest.mark.parametrize(
    "fixture, source, work",
    [
        ("delta2", complete_graph(2), 669),
        ("delta2", complete_graph(3), 3448),
        ("delta2", looped_edge_graph(), 601),
        ("delta2", Graph([1, 2, 3], [(2, 3)]), 84964),
        ("boundary_delta3", complete_graph(2), 5288),
        ("boundary_delta3", complete_graph(3), 18430),
    ],
)
def test_enumeration_work_is_pinned_on_a_filled_target(fixture, source, work):
    """Subset lists another source built into the target are charged in
    full again, so the work and the cap + 1 stop are those of a fresh
    target."""
    H = build_g_kx(core_fixture(fixture), 1)
    other = complete_graph(2) if source == complete_graph(3) else complete_graph(3)
    enumerate_hom(other, H)
    assert H._subset_lists
    with pytest.raises(CapExceeded) as exc:
        enumerate_hom(source, H, cap=work - 1)
    assert exc.value.partial_count == work
    fresh = build_g_kx(core_fixture(fixture), 1)
    assert len(enumerate_hom(source, H, cap=work)) == len(enumerate_hom(source, fresh))


def _spy_grown(monkeypatch):
    """The (pool, has_later, looped) key of every subset list built."""
    built = []
    grown = homcx.hom._grown

    def spy(pool, nbrs, has_later, looped, budget):
        built.append((pool, has_later, looped))
        return grown(pool, nbrs, has_later, looped, budget)

    monkeypatch.setattr(homcx.hom, "_grown", spy)
    return built


def test_subset_lists_are_built_once_per_target(monkeypatch):
    """Hom(K2, H) and then Hom(K3, H) build each distinct subset list
    once: the K3 walk reuses the 137 lists of the K2 walk and builds the
    other 136 of its 273."""
    built = _spy_grown(monkeypatch)
    H = build_g_kx(core_fixture("boundary_delta3"), 1)
    enumerate_hom(complete_graph(2), H)
    assert len(built) == 137
    enumerate_hom(complete_graph(3), H)
    assert len(built) == len(set(built)) == 273
    enumerate_hom(complete_graph(3), H)
    enumerate_hom(complete_graph(2), H)
    assert len(built) == 273


def test_two_graphs_share_no_subset_list(monkeypatch):
    """Subset lists live on the graph object they were built over, so a
    graph built again, equal to the first, starts with none."""
    built = _spy_grown(monkeypatch)
    X = core_fixture("boundary_delta3")
    first, second = build_g_kx(X, 1), build_g_kx(X, 1)
    assert first == second
    enumerate_hom(complete_graph(3), first)
    assert "_subset_lists" not in vars(second)
    enumerate_hom(complete_graph(3), second)
    assert len(built) == 2 * 273
    assert built[:273] == built[273:]
    assert first._subset_lists is not second._subset_lists


@pytest.mark.parametrize(
    "fixture, source, work",
    [
        ("delta1", complete_graph(1), 8),
        ("delta1", complete_graph(2), 29),
        ("delta1", complete_graph(3), 88),
        # the looped last vertex prunes entries of its list
        ("delta1", looped_edge_graph(), 29),
        ("delta1", Graph([1, 2, 3], [(2, 3)]), 204),
        ("boundary_delta2", complete_graph(1), 64),
        ("boundary_delta2", complete_graph(2), 117),
        ("boundary_delta2", complete_graph(3), 309),
        ("boundary_delta2", looped_edge_graph(), 116),
    ],
)
def test_every_cap_below_the_work_stops_at_cap_plus_one(fixture, source, work):
    """A whole list of subsets is charged at once, pruned entries too, yet
    every cap short of the work stops with exactly cap + 1 tried, as a
    walk charging one image at a time would, and the work itself is
    enough."""
    H = build_g_kx(core_fixture(fixture), 1)
    for cap in range(work):
        with pytest.raises(CapExceeded) as exc:
            enumerate_hom(source, H, cap=cap)
        assert exc.value.partial_count == cap + 1, cap
    assert len(enumerate_hom(source, H, cap=work)) == len(enumerate_hom(source, H))


def test_enumeration_leaves_no_garbage_cycle():
    """The enumeration's working list is freed by reference counting, on
    return and when the cap is hit, not by a later cyclic collection."""
    G = build_g_kx(core_fixture("boundary_delta2"), 1)
    gc.collect()
    gc.disable()
    try:
        enumerate_hom(complete_graph(2), G)
        try:
            enumerate_hom(complete_graph(2), G, cap=10)
        except CapExceeded:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_negative_cap_is_rejected():
    G = build_g_kx(core_fixture("delta1"), 1)
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_hom(complete_graph(2), G, cap=-1)


@pytest.mark.parametrize(
    "fixture", ["point", "delta1", "boundary_delta2", "path2", "wedge_triangles"]
)
def test_cellular_homology_matches_order_complex(fixture):
    G = build_g_kx(core_fixture(fixture), 1)
    for source in (complete_graph(2), complete_graph(3), looped_edge_graph()):
        P = enumerate_hom(source, G)
        core, _ = greedy_collapse(hom_order_complex(P))
        assert profiles_equal(hom_homology(P), homology(core)), fixture


def test_wrong_cellular_sign_fails_the_boundary_check(monkeypatch):
    """The boundary-of-boundary check sees the cellular boundary: flipping
    one incidence sign of a 2-cell makes it raise."""
    P = enumerate_hom(complete_graph(2), build_g_kx(core_fixture("boundary_delta2"), 1))
    chain_homology = homcx.hom.chain_homology

    def flip_one_sign(counts, columns):
        column = columns[1][0]
        face = next(iter(column))
        column[face] = -column[face]
        return chain_homology(counts, columns)

    monkeypatch.setattr(homcx.hom, "chain_homology", flip_one_sign)
    with pytest.raises(AssertionError, match="boundary of boundary"):
        hom_homology(P)


def test_restriction_map_drops_last_vertex():
    G = build_g_kx(core_fixture("delta1"), 1)
    P = enumerate_hom(complete_graph(3), G)
    for eta in P.elements:
        rho = restriction_map(eta)
        assert rho.domain == (1, 2)
        assert rho.images == eta.images[:2]
        assert rho.target is eta.target
    with pytest.raises(ValueError):
        restriction_map(multihom((1, 2), G, [G.vertices[0]], [G.vertices[1]]))


def test_fiber_maximum_dominates_each_fiber():
    G = build_g_kx(core_fixture("delta1"), 1)
    P = enumerate_hom(complete_graph(3), G)
    Q = enumerate_hom(complete_graph(2), G)
    fibers = {}
    for eta in P.elements:
        fibers.setdefault(eta.images[:2], []).append(eta)
    for rho in Q.elements:
        top = fiber_maximum(rho, G)
        members = fibers.get(rho.images, [])
        assert top in set(P.elements)
        for eta in members:
            assert pointwise_le(eta, top)


def test_fiber_maximum_error_paths():
    C4 = Graph(vertices=["a", "b", "c", "d"],
               edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    rho = multihom((1, 2), C4, ["a", "c"], ["b"])
    with pytest.raises(ValueError, match="no maximum"):
        fiber_maximum(rho, C4)
    skewed = multihom((2, 3), C4, ["a"], ["c"])
    with pytest.raises(ValueError, match="complete source"):
        fiber_maximum(skewed, C4)
    with pytest.raises(ValueError, match="target"):
        fiber_maximum(rho, complete_graph(4))


def oracle_witness(eta, H):
    """The common-neighbor construction run afresh for one eta, with no
    memo: the image of smallest minimum dimension is fused as in
    :func:`common_neighbor_witness`, and the trace compared with its."""
    images = decoded(eta)
    assert all(isinstance(s, frozenset) for img in images for s in img)
    mins = [min(map(len, img)) for img in images]
    low = min(mins)
    k = mins.index(low) + 1
    members = sorted(sorted(images[k - 1], key=H.rank.__getitem__), key=len)
    i1 = [len(s) for s in members].count(low)
    tau = frozenset().union(*members[:i1])
    tau_chain = [tau]
    remaining = members[i1:]
    s_families = [tuple(remaining)]
    while remaining:
        family = tuple(s for s in remaining if not (s <= tau or tau <= s))
        s_families.append(family)
        if not family:
            break
        tau = tau | frozenset().union(*family)
        tau_chain.append(tau)
        remaining = [s for s in remaining if s not in family]
    return WitnessTrace(
        k=k, i1=i1, tau_chain=tuple(tau_chain), s_families=tuple(s_families), witness=tau
    )


@pytest.mark.parametrize("fixture", ["delta2", "wedge_triangles", "boundary_delta3"])
def test_witness_matches_the_fresh_construction_on_every_eta(fixture):
    """Every eta gets the fresh construction's trace, both while H's memo
    fills and once it holds every image."""
    H = build_g_kx(core_fixture(fixture), 1)
    wanted = [
        (eta, oracle_witness(eta, H))
        for n in (2, 3)
        for eta in enumerate_hom(complete_graph(n), H)
    ]
    for _ in range(2):
        for eta, want in wanted:
            assert common_neighbor_witness(eta, H) == want, (fixture, str(eta))


@pytest.mark.parametrize("fixture", ["delta2", "wedge_triangles", "boundary_delta3"])
def test_witness_does_not_depend_on_memo_order(fixture):
    """A graph whose memo fills from Hom(K3, H) first and one whose memo
    fills from Hom(K2, H) first give every eta the fresh construction's
    trace: an image fused at one k carries no k into a trace at another.
    Each witness is H's own vertex object."""
    for order in ((3, 2), (2, 3)):
        H = build_g_kx(core_fixture(fixture), 1)
        for n in order:
            for eta in enumerate_hom(complete_graph(n), H):
                trace = common_neighbor_witness(eta, H)
                assert trace == oracle_witness(eta, H), (fixture, order, str(eta))
                assert trace.witness is H.vertices[H.rank[trace.witness]]


def test_equal_images_are_one_object():
    """Hom(K3, G(boundary_delta3)) has 830 distinct image masks, and a
    mask decodes to the image ``get`` gives wherever it occurs."""
    P = enumerate_hom(complete_graph(3), build_g_kx(core_fixture("boundary_delta3"), 1))
    first = {}
    for eta in P:
        for u, img in zip(eta.domain, eta.images):
            assert isinstance(img, int)
            assert first.setdefault(img, eta.get(u)) == eta.get(u)
            assert _decode(P.target, img) == eta.get(u)
    assert (len(P), len(first)) == (13142, 830)


def test_hom_homology_and_homology_decode_nothing(monkeypatch):
    """The chain complex builder takes masks, so neither homology route
    decodes an image or a simplex to labels."""
    P = enumerate_hom(complete_graph(2), build_g_kx(core_fixture("boundary_delta2"), 1))
    rp2 = core_fixture("rp2")
    decoded_masks = []

    def spy(decode):
        def recorded(*args):
            decoded_masks.append(args[-1])
            return decode(*args)

        return recorded

    monkeypatch.setattr(homcx.hom, "_decode", spy(_decode))
    monkeypatch.setattr(MaskView, "label", spy(MaskView.label))
    hom_homology(P)
    homology(rp2)
    assert decoded_masks == []


def test_prop_4_1_fuses_once_per_distinct_key(monkeypatch):
    """prop-4.1 checks every eta, but on boundary_delta3 it fuses each
    distinct chosen image once, whatever k it is chosen at, and the
    target graph's memo holds one fusion per such image, one trace per
    distinct (k, image) and one minimum per image."""
    graphs = []
    fusions = []

    def spy(eta, H):
        if not any(G is H for G in graphs):
            graphs.append(H)
        return common_neighbor_witness(eta, H)

    def fusion_spy(k, chosen, low, target):
        fusions.append(chosen)
        return fuse(k, chosen, low, target)

    fuse = homcx.hom._fusion
    monkeypatch.setattr(homcx.verify, "common_neighbor_witness", spy)
    monkeypatch.setattr(homcx.hom, "_fusion", fusion_spy)
    report = homcx.verify.run_suite("prop-4.1", fixtures=["boundary_delta3"]).reports[0]
    assert report.passed
    assert report.artifacts["etas_checked"] == 16144
    assert len(fusions) == len(set(fusions)) == 668
    [H] = graphs
    lows, fused, traces = H._witness_memo
    assert (len(fused), len(traces), len(lows)) == (668, 1672, 830)


def test_prop_4_1_fails_exactly_the_etas_off_a_planted_witness(monkeypatch):
    """With every witness replaced by {1} on delta1, prop-4.1 fails exactly
    the etas with an image that meets {2}, the one vertex of G_{1,X} not
    adjacent to {1}, read here from label sets."""
    planted = frozenset([1])

    def planted_witness(eta, H):
        return dataclasses.replace(common_neighbor_witness(eta, H), witness=planted)

    monkeypatch.setattr(homcx.verify, "common_neighbor_witness", planted_witness)
    report = homcx.verify.run_suite("prop-4.1", fixtures=["delta1"]).reports[0]
    H = build_g_kx(core_fixture("delta1"), 1)
    off = set(H.vertices) - H.neighbors(planted)
    assert off == {frozenset([2])}
    want = [
        str(eta)
        for m in (2, 3)
        for eta in enumerate_hom(complete_graph(m), H)
        if any(eta.get(u) & off for u in eta.domain)
    ]
    assert not report.passed
    assert want and report.artifacts["failures"] == want
    assert report.artifacts["etas_checked"] > len(want)


def test_witness_trace_on_hand_checked_inputs():
    G = build_g_kx(core_fixture("delta1"), 1)
    f1, f12 = frozenset([1]), frozenset([1, 2])
    both = [f1, f12]
    # with G's memo empty, then filled by the first round's three calls
    for _ in range(2):
        tr = common_neighbor_witness(multihom((1, 2), G, [f1], [f12]), G)
        assert tr.k == 1
        assert tr.tau_chain == (f1,)
        assert tr.witness == f1

        tr2 = common_neighbor_witness(multihom((1, 2), G, both, both), G)
        assert tr2.k == 1
        assert tr2.tau_chain == (f1,)
        assert tr2.s_families[0] == (f12,)
        assert tr2.witness == f1

        tr3 = common_neighbor_witness(multihom((1, 2), G, [f1], [f1]), G)
        assert tr3.witness == f1
    with pytest.raises(ValueError, match="target"):
        common_neighbor_witness(multihom((1, 2), G, [f1], [f1]), complete_graph(3))


def test_witness_lies_in_every_neighborhood():
    for name, n in (("delta1", 2), ("delta1", 3), ("boundary_delta2", 2)):
        G = build_g_kx(core_fixture(name), 1)
        P = enumerate_hom(complete_graph(n), G)
        for eta in P.elements:
            tr = common_neighbor_witness(eta, G)
            for img in decoded(eta):
                assert tr.witness in common_neighborhood(G, img), (name, n)


def test_witness_needs_simplex_labels():
    K3 = complete_graph(3)
    eta = multihom((1, 2), K3, [1], [2])
    # the memo keeps no image that failed, so a second call fails again
    for _ in range(2):
        with pytest.raises(ValueError, match="simplex-valued"):
            common_neighbor_witness(eta, K3)
    assert K3._witness_memo == ({}, {}, {})


@pytest.mark.parametrize("fused_is_a_vertex", [False, True])
def test_witness_off_the_neighborhoods_fails_its_assertion(fused_is_a_vertex):
    """On the complete reflexive graph of the singletons {1}, {2}, {3}, the
    fused witness {1,2} of ({{1},{2}}|{{3}}) is no vertex at all, or, once
    added next to {1} alone, no common neighbor: both are assertion
    failures, not a lookup error.  The memo keeps the fusion, not the
    check, so a second call fails again."""
    s1, s2, s3, s12 = (frozenset(v) for v in ([1], [2], [3], [1, 2]))
    vertices = [s1, s2, s3]
    edges = [(a, b) for a in vertices for b in vertices]
    if fused_is_a_vertex:
        vertices, edges = vertices + [s12], edges + [(s1, s12)]
    H = Graph(vertices, edges)
    eta = multihom((1, 2), H, [s1, s2], [s3])
    for _ in range(2):
        with pytest.raises(AssertionError, match="misses the neighborhood of image 1"):
            common_neighbor_witness(eta, H)


def test_witness_memo_is_checked_against_each_call():
    """Each graph keeps its own memo, and every call checks the
    neighborhoods of its own graph: on two graphs on the same vertices,
    the fused witness {1,2} of ({{1},{2}}|{{3}}) is a common neighbor
    where it is adjacent to everything and not where it is adjacent to
    {1} alone, whichever graph is asked first."""
    s1, s2, s3, s12 = (frozenset(v) for v in ([1], [2], [3], [1, 2]))
    vertices = [s1, s2, s3, s12]
    # s12 is adjacent to s1 alone among the others
    edges = [(a, b) for a in vertices[:3] for b in vertices[:3]] + [(s1, s12)]
    for near_first in (False, True):
        everywhere = Graph(vertices, [(a, b) for a in vertices for b in vertices])
        near_s1 = Graph(vertices, edges)
        for H in (near_s1, everywhere) if near_first else (everywhere, near_s1):
            eta = multihom((1, 2), H, [s1, s2], [s3])
            if H is everywhere:
                assert common_neighbor_witness(eta, H).witness == s12
            else:
                with pytest.raises(AssertionError, match="misses the neighborhood of image 1"):
                    common_neighbor_witness(eta, H)
        for H in (everywhere, near_s1):
            assert [f.witness for f, _ in H._witness_memo[1].values()] == [s12]


def test_quillen_conditions_on_edge_complex():
    G = build_g_kx(core_fixture("delta1"), 1)
    rep = check_quillen_conditions(3, G)
    assert rep.passed
    assert rep.n == 3
    assert rep.fibers_checked == 21
    assert rep.maximum_failures == () and rep.pair_failures == ()
    with pytest.raises(ValueError):
        check_quillen_conditions(2, G)


def test_quillen_pairs_in_closed_form_on_rp2():
    """Hom(K3, G(rp2)) is closed under one-vertex drops, so its 2,389,123
    pairs are counted, not generated one by one."""
    G = build_g_kx(core_fixture("rp2"), 1)
    rep = check_quillen_conditions(3, G)
    assert rep.passed
    assert rep.pairs_checked == 2389123
    assert rep.fibers_checked == len(enumerate_hom(complete_graph(2), G))


def losing(monkeypatch, n, lost):
    """Make ``homcx.hom``'s enumeration of Hom(K_n, -) miss ``lost``."""
    complete = enumerate_hom

    def lossy(G, H, cap=None):
        P = complete(G, H, cap=cap)
        if len(G.vertices) == n:
            return homcx.hom.HomPoset(P.domain, [m for m in P if m != lost], P.target)
        return P

    monkeypatch.setattr(homcx.hom, "enumerate_hom", lossy)


def no_pair_loop(monkeypatch):
    """Make the pair loop's image subsets, its first step, raise."""

    def no_submasks(tops):
        raise AssertionError("the pair loop ran")

    monkeypatch.setattr(homcx.hom, "submasks", no_submasks)


@pytest.mark.parametrize("fixture", ["delta1", "boundary_delta2", "delta2"])
def test_complete_enumerations_never_generate_the_pairs(monkeypatch, fixture):
    """On a complete enumeration both closure checks hold, so the pair
    loop and its image subsets are never reached.  The patched subsets
    are what the loop calls: once an element is lost, it raises."""
    H = build_g_kx(core_fixture(fixture), 1)
    no_pair_loop(monkeypatch)
    assert check_quillen_conditions(3, H).passed
    losing(monkeypatch, 3, enumerate_hom(complete_graph(3), H).elements[0])
    with pytest.raises(AssertionError, match="the pair loop ran"):
        check_quillen_conditions(3, H)


def test_quillen_raises_on_a_restriction_missing_from_a_lossy_hom_k2(monkeypatch):
    """A Hom(K2, H) that lost the restriction of some eta fails the
    closure check, and the pair loop names the missing rho."""
    H = build_g_kx(core_fixture("boundary_delta2"), 1)
    lost = next(m for m in enumerate_hom(complete_graph(2), H) if str(m) == "({{1}}|{{1}})")
    losing(monkeypatch, 2, lost)
    with pytest.raises(AssertionError, match="sub-multihomomorphism is missing"):
        check_quillen_conditions(3, H)


def test_quillen_pair_failures_on_a_lossy_hom_k3_are_pinned(monkeypatch):
    """A Hom(K3, H) that lost ({{1}}|{{1}}|{{1}}) runs the pair loop; its
    failures are the ones the label-set pair loop listed, in its order."""
    H = build_g_kx(core_fixture("boundary_delta2"), 1)
    lost = next(
        m for m in enumerate_hom(complete_graph(3), H) if str(m) == "({{1}}|{{1}}|{{1}})"
    )
    losing(monkeypatch, 3, lost)
    report = check_quillen_conditions(3, H)
    assert (report.fibers_checked, report.pairs_checked) == (72, 575)
    assert report.maximum_failures == ()
    rho = "({{1}}|{{1}})"
    assert report.pair_failures == tuple(
        (rho, eta, "candidate not a multihom")
        for eta in (
            "({{1}}|{{1},{1,2}}|{{1}})",
            "({{1}}|{{1},{1,2},{1,3}}|{{1}})",
            "({{1}}|{{1},{1,3}}|{{1}})",
            "({{1},{1,2}}|{{1}}|{{1}})",
            "({{1},{1,2}}|{{1},{1,2}}|{{1}})",
            "({{1},{1,2},{1,3}}|{{1}}|{{1}})",
            "({{1},{1,3}}|{{1}}|{{1}})",
            "({{1},{1,3}}|{{1},{1,3}}|{{1}})",
        )
    )


def looped_four_cycle():
    """The 4-cycle 1-3-2-4 with a loop at every vertex.  It is not a
    containment graph, and the paper's induction step fails on it."""
    edges = [(1, 3), (1, 4), (2, 3), (2, 4)] + [(v, v) for v in range(1, 5)]
    return Graph(vertices=range(1, 5), edges=edges)


def test_induction_step_fails_on_the_looped_four_cycle():
    """Negative control: Hom(K2) has the homology of S^2 and Hom(K3),
    Hom(K4) that of S^1, so Hom(K3) and Hom(K2) differ.  Hom(K2) still
    agrees with N(G), the boundary of a tetrahedron (Babson-Kozlov)."""
    G = looped_four_cycle()
    sphere = lambda d: {"betti": [1] + [0] * (d - 1) + [1], "torsion": [[]] * (d + 1)}
    profiles = {}
    for n, elements, printed in ((2, 50, sphere(2)), (3, 128, sphere(1)), (4, 352, sphere(1))):
        P = enumerate_hom(complete_graph(n), G)
        assert len(P) == elements, n
        profiles[n] = hom_homology(P)
        assert profiles[n].to_dict() == printed, n
    assert not profiles_equal(profiles[3], profiles[2])
    nbhd = homology(neighborhood_complex(G))
    assert nbhd.to_dict() == sphere(2)
    assert profiles_equal(profiles[2], nbhd)


def test_quillen_names_the_fibers_without_a_maximum_on_the_looped_four_cycle():
    """Negative control: the images of ({1,2}|{3,4}) and ({3,4}|{1,2})
    cover every vertex, which have no common neighbour, so these two
    fibers have no maximum.  Nothing else fails."""
    report = check_quillen_conditions(3, looped_four_cycle())
    assert (report.fibers_checked, report.pairs_checked) == (50, 384)
    assert report.maximum_failures == (
        ("({1,2}|{3,4})", "no candidate maximum"),
        ("({3,4}|{1,2})", "no candidate maximum"),
    )
    assert report.pair_failures == ()
    assert not report.passed


def test_serialization_shapes():
    G = build_g_kx(core_fixture("delta1"), 1)
    P = enumerate_hom(complete_graph(2), G)
    d = hom_poset_to_dict(P)
    assert len(d["elements"]) == 21
    assert all(isinstance(i, int) and isinstance(j, int) for i, j in d["covers"])
    # each element maps rendered domain vertices to rendered image lists
    one = multihom_to_dict(P.elements[0])
    assert one == {"1": ["{1}"], "2": ["{1}"]}
