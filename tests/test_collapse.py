"""Free faces, greedy collapse, the K_l filtration and its certificates."""

import pytest

import homcx.collapse
import homcx.verify
from homcx import (
    CORE_FIXTURE_NAMES,
    CollapseCertificate,
    CollapseStep,
    Filtration,
    SimplicialComplex,
    StalledCollapse,
    barycentric_subdivision,
    certificate_to_dict,
    core_fixture,
    greedy_collapse,
    homology,
    kl_filtration,
    neighborhood_complex,
    build_g_kx,
    profiles_equal,
    render_label,
    replay_certificate,
    run_suite,
    verify_kl_collapse_sequence,
)
from homcx.collapse import _collapse_free_pairs
from homcx.simplicial import MaskView
from test_graphs import small_complexes


def removed_in_stage(cert, i):
    """The simplices stage i of ``cert`` removes, as label sets."""
    return frozenset(s for step in cert.stages[i] for s in cert.removed(step))


def free_face_pairs(X):
    """All collapsible pairs (sigma, tau) of X as label sets, sorted by
    facet then free face, by a scan over the facets: a simplex is a free
    face exactly when one facet contains it and it is not itself that
    facet."""
    pairs = []
    for tau in X.simplices():
        over = [sigma for sigma in X.facets if tau <= sigma]
        if len(over) == 1 and over[0] != tau:
            pairs.append((over[0], tau))

    def key(s):
        return len(s), sorted(map(X.rank.__getitem__, s))

    return sorted(pairs, key=lambda p: (key(p[0]), key(p[1])))


def test_free_face_pairs_of_full_edge():
    X = core_fixture("delta1")
    pairs = free_face_pairs(X)
    assert pairs == [
        (frozenset([1, 2]), frozenset([1])),
        (frozenset([1, 2]), frozenset([2])),
    ]


def test_closed_complexes_have_no_free_faces():
    assert free_face_pairs(core_fixture("boundary_delta2")) == []
    assert free_face_pairs(core_fixture("boundary_delta3")) == []
    assert free_face_pairs(core_fixture("rp2")) == []


def test_free_face_with_dimension_gap():
    # lone triangle: each vertex sits under the single facet, two levels up
    X = SimplicialComplex.from_facets([[1, 2, 3]])
    pairs = free_face_pairs(X)
    taus = {tau for _, tau in pairs}
    assert frozenset([1]) in taus
    assert all(sigma == frozenset([1, 2, 3]) for sigma, _ in pairs)


def test_greedy_collapse_of_simplices():
    for n in range(2, 6):
        X = SimplicialComplex.from_facets([list(range(1, n + 1))])
        core, cert = greedy_collapse(X)
        assert len(core) == 1, n
        assert core.dim == 0
        assert replay_certificate(cert)


def test_greedy_collapse_leaves_closed_complexes_alone():
    for name in ("boundary_delta2", "boundary_delta3", "rp2"):
        X = core_fixture(name)
        core, cert = greedy_collapse(X)
        assert core == X
        assert cert.steps == ()


def test_greedy_collapse_of_subdivided_disc():
    X = barycentric_subdivision(core_fixture("delta2"), 1)
    core, cert = greedy_collapse(X)
    assert len(core) == 1
    assert replay_certificate(cert)


def test_greedy_collapse_of_projective_plane_neighborhood_complex():
    N = neighborhood_complex(build_g_kx(core_fixture("rp2"), 1))
    core, cert = greedy_collapse(N)
    assert (len(N), len(N.facets)) == (13087, 31)
    assert (len(cert.steps), len(core)) == (6492, 103)


def test_homology_constant_along_certificate():
    for name in ("delta2", "path2"):
        X = core_fixture(name)
        want = homology(X)
        core, cert = greedy_collapse(X)
        S = set(X.simplex_set())
        for step in cert.steps:
            S.difference_update(cert.removed(step))
            now = homology(SimplicialComplex(S))
            assert profiles_equal(now, want), name


def test_replay_detects_tampering():
    """The first step of the solid triangle's greedy certificate, taken
    twice: its pair is gone by the second time."""
    _, cert = greedy_collapse(core_fixture("delta2"))
    first = cert.steps[0]
    bad = CollapseCertificate(
        start=cert.start, end=cert.end, stages=((first,) + cert.stages[0],)
    )
    with pytest.raises(ValueError, match="step 1: pair is not collapsible"):
        replay_certificate(bad)


@pytest.mark.parametrize(
    "sigma, tau",
    [
        ([1, 2, 9], [1, 9]),  # both name a vertex the start complex lacks
        ([1, 9], [1]),  # the free face is known, the facet is not
    ],
)
def test_replay_rejects_a_pair_on_a_foreign_vertex(sigma, tau):
    """Vertex 9 is given the bit above the start view's bits."""
    X = core_fixture("delta1")
    _, cert = greedy_collapse(X)
    bit = {**X.masks.bit, 9: 1 << X.masks.n}
    step = CollapseStep(sigma=sum(map(bit.get, sigma)), tau=sum(map(bit.get, tau)))
    bad = CollapseCertificate(start=cert.start, end=cert.end, stages=((step,),))
    with pytest.raises(ValueError, match="not collapsible"):
        replay_certificate(bad)


@pytest.mark.parametrize("case", ["empty", "foreign-bit", "removed"])
def test_replay_rejects_a_free_face_outside_the_complex(case):
    """On the solid triangle, a step's free face must be a live face.  The
    empty mask's one-vertex extensions assemble to the whole triangle, so
    without that check the triangle would collapse onto the empty
    complex; a mask on the bit above the view's, and a free face the step
    before removed, are no live faces either."""
    X = SimplicialComplex.from_facets([[1, 2, 3]])
    view = X.masks
    whole, edge, foreign = view.mask([1, 2, 3]), view.mask([2, 3]), 1 << view.n
    first = CollapseStep(whole, edge)
    steps = {
        "empty": [CollapseStep(whole, 0)],
        "foreign-bit": [first, CollapseStep(whole | foreign, edge | foreign)],
        "removed": [first, first],
    }[case]
    bad = CollapseCertificate(start=X, end=SimplicialComplex([]), stages=(tuple(steps),))
    with pytest.raises(ValueError, match=f"step {len(steps) - 1}: pair is not collapsible"):
        replay_certificate(bad)


def test_replay_rejects_an_end_complex_on_a_foreign_vertex():
    X = core_fixture("delta1")
    core, cert = greedy_collapse(X)
    end = SimplicialComplex([*core.facets, [9]])
    bad = CollapseCertificate(start=cert.start, end=end, stages=cert.stages)
    with pytest.raises(ValueError, match="end complex"):
        replay_certificate(bad)


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_replay_rejects_an_end_complex_one_facet_off(change):
    """A triangle boundary with the whisker {3,4} collapses onto the
    boundary; an end that keeps the removed vertex {4}, or drops the edge
    {1,2}, is not where the replay lands."""
    X = SimplicialComplex([[1, 2], [1, 3], [2, 3], [3, 4]])
    core, cert = greedy_collapse(X)
    assert core == core_fixture("boundary_delta2")
    facets = [f for f in core.facets if f != frozenset([1, 2])]
    end = SimplicialComplex([*core.facets, [4]] if change == "extra" else facets)
    bad = CollapseCertificate(start=cert.start, end=end, stages=cert.stages)
    with pytest.raises(ValueError, match="replay did not reach the certified end complex"):
        replay_certificate(bad)


def test_replay_leaves_the_end_complex_unclosed():
    F = kl_filtration(core_fixture("rp2"))
    cert = verify_kl_collapse_sequence(F)
    assert replay_certificate(cert)
    assert "closure" not in vars(cert.end.masks)


def test_prop_collapse_counts_the_end_without_closing_it(monkeypatch):
    """The suite's end size is the start less the replayed intervals, so
    the end complex is never closed."""
    filtrations = []
    build = homcx.verify.kl_filtration

    def capture(X):
        filtrations.append(build(X))
        return filtrations[-1]

    monkeypatch.setattr(homcx.verify, "kl_filtration", capture)
    (report,) = run_suite("prop-collapse", ("rp2",)).reports
    (F,) = filtrations
    assert report.artifacts["end_simplices"] == 12187
    assert "closure" not in vars(F.complexes[-1].masks)


def test_kl_filtration_of_triangle_boundary():
    F = kl_filtration(core_fixture("boundary_delta2"))
    assert [render_label(s) for s in F.order] == [
        "{1,2}", "{1,3}", "{2,3}", "{1}", "{2}", "{3}",
    ]
    assert (F.p, F.q) == (6, 3)
    assert len(F.complexes) == 4
    assert F.complexes[0].f_vector() == (6, 12, 6)
    assert F.complexes[-1].f_vector() == (6, 9, 3)
    # the chain starts at the neighborhood complex and is nested
    assert F.complexes[0] == neighborhood_complex(build_g_kx(core_fixture("boundary_delta2"), 1))
    for A, B in zip(F.complexes, F.complexes[1:]):
        assert set(B.simplex_set()) <= set(A.simplex_set())


def kl_stages_from_all_generators(X):
    """Each K_l built afresh from every neighborhood that generates it."""
    G = build_g_kx(X, 1)
    order = sorted(G.vertices, key=lambda s: -len(s))
    q = sum(1 for s in order if len(s) == 1)
    return [
        SimplicialComplex([G.neighbors(s) for s in order[l:]])
        for l in range(len(order) - q + 1)
    ]


# the point has no filtration (see below); the 6-simplex has 121 stages
@pytest.mark.parametrize("name", [n for n in CORE_FIXTURE_NAMES if n != "point"] + ["6-simplex"])
def test_kl_stages_built_backwards_are_the_generated_complexes(name):
    X = SimplicialComplex([range(7)]) if name == "6-simplex" else core_fixture(name)
    stages = kl_stages_from_all_generators(X)
    F = kl_filtration(X)
    assert [K.facets for K in F.complexes] == [K.facets for K in stages]


def test_kl_filtration_needs_positive_dimension():
    with pytest.raises(ValueError):
        kl_filtration(core_fixture("point"))


def test_kl_stage_one_removal_on_triangle_boundary():
    F = kl_filtration(core_fixture("boundary_delta2"))
    cert = verify_kl_collapse_sequence(F)
    assert len(cert.stages) == 3
    want = {
        frozenset([frozenset([1]), frozenset([2])]),
        frozenset([frozenset([1]), frozenset([2]), frozenset([1, 2])]),
    }
    assert set(removed_in_stage(cert, 0)) == want


def test_kl_collapse_verifies_and_replays_on_fixtures():
    for name in ("delta1", "path2", "boundary_delta2", "delta2",
                 "boundary_delta3", "wedge_triangles", "rp2"):
        F = kl_filtration(core_fixture(name))
        cert = verify_kl_collapse_sequence(F)
        assert len(cert.stages) == F.p - F.q
        assert replay_certificate(cert)
        # each stage removes exactly the set difference of consecutive complexes
        for i in range(len(cert.stages)):
            diff = set(F.complexes[i].simplex_set()) - set(F.complexes[i + 1].simplex_set())
            assert set(removed_in_stage(cert, i)) == diff, (name, i)


def cofacet_state_by_bits(within, n):
    """The collapse engine's packed state of each face of ``within``, by
    the per-bit loop over every face: a live cofacet count and the XOR of
    the bits its cofacets add, in two dicts, packed as count << n | added
    at the end."""
    count = dict.fromkeys(within, 0)
    added = dict.fromkeys(within, 0)
    for s in within:
        rest = s
        while rest:
            b = rest & -rest
            rest ^= b
            f = s ^ b
            if f in count:
                count[f] += 1
                added[f] ^= b
    return {f: count[f] << n | added[f] for f in within}


def recount(state, n):
    """Whether ``state`` is a fresh count of the cofacets over its keys."""
    return state == cofacet_state_by_bits(set(state), n)


@pytest.fixture
def engine_runs(monkeypatch):
    """Every call of the collapse engine, as (n, the state it started
    from, the bits it allowed, the state it left, its steps), each state
    left checked when the call returns."""
    runs = []

    def checked(n, state, bits):
        start = dict(state)
        steps = _collapse_free_pairs(n, state, bits)
        assert recount(state, n)
        runs.append((n, start, bits, state, steps))
        return steps

    monkeypatch.setattr(homcx.collapse, "_collapse_free_pairs", checked)
    return runs


@pytest.mark.parametrize("name", CORE_FIXTURE_NAMES)
def test_engine_leaves_a_recounted_state(engine_runs, name):
    """The faces the engine leaves carry their cofacet counts over what
    is left.  On greedy collapse they are the core.  On each stage of the
    filtration none is left, since the stage reaches the next complex;
    the faces of a stage's start from some size up are upward-closed
    too, and there the engine stops part way and is recounted as well."""
    X = neighborhood_complex(build_g_kx(core_fixture(name), 1))
    core, cert = greedy_collapse(X)
    [(_, _, _, state, steps)] = engine_runs
    assert set(state) == set(X.masks.closure) - {m for step in steps for m in step}
    assert set(map(X.masks.label, state)) == set(core.simplex_set())
    assert steps == list(cert.steps)
    if name == "point":  # the point has no filtration
        return
    engine_runs.clear()
    F = kl_filtration(core_fixture(name))
    cert = verify_kl_collapse_sequence(F)
    assert len(engine_runs) == len(cert.stages) == F.p - F.q
    part_way = 0
    for (n, start, bits, state, steps), stage in zip(engine_runs, cert.stages):
        assert state == {}
        assert tuple(steps) == stage
        for size in range(2, n + 1):
            upper = cofacet_state_by_bits({f for f in start if f.bit_count() >= size}, n)
            for allowed in (bits, (1 << n) - 1):
                left = dict(upper)
                _collapse_free_pairs(n, left, allowed)
                assert recount(left, n)
                part_way += 0 < len(left) < len(upper)
    # a stage whose start is its forced pair alone is collapsed whole at every size
    assert part_way or all(len(run[1]) == 2 for run in engine_runs)


def assert_stages_open_with_the_forced_pair(X):
    """Every stage of X's certificate begins with (N(sigma_l), N(sigma_l)
    minus sigma_l), which the engine takes itself, and the certificate
    replays."""
    F = kl_filtration(X)
    cert = verify_kl_collapse_sequence(F)
    mask = cert.start.masks.mask
    assert len(cert.stages) == F.p - F.q
    for sig, stage in zip(F.order, cert.stages):
        nbhd = F.graph.neighbors(sig)
        assert stage[0] == (mask(nbhd), mask(nbhd - {sig})), render_label(sig)
    assert replay_certificate(cert)


@pytest.mark.parametrize("name", [n for n in CORE_FIXTURE_NAMES if n != "point"])
def test_stages_open_with_the_forced_pair_on_core_fixtures(name):
    assert_stages_open_with_the_forced_pair(core_fixture(name))


def test_stages_open_with_the_forced_pair_on_every_small_complex():
    """On the 122 complexes whose vertex set is exactly {1..n}, n <= 4,
    that have a positive-dimensional simplex."""
    complexes = [SimplicialComplex(f) for f in small_complexes() if max(map(len, f)) >= 2]
    assert len(complexes) == 122
    for X in complexes:
        assert_stages_open_with_the_forced_pair(X)


def test_a_second_facet_outside_the_target_only_reorders_its_stage():
    """K_1 and K_2 of X = [[1,2,5],[2,3],[1,4]] with one more facet,
    {{1,2},{2,3},{1,4}}, which K_3 lacks.  Stage 2 (sigma_2 = {1,2}) then
    has two facets outside its target, and the engine pops the new
    facet's pair before the forced pair; the stage's steps are still
    those of taking the forced pair first, as a set, and the certificate
    replays."""
    F = kl_filtration(SimplicialComplex([[1, 2, 5], [2, 3], [1, 4]]))
    s = lambda *vertices: frozenset(frozenset(v) for v in vertices)
    assert F.order[1] == frozenset([1, 2])
    extra = s([1, 2], [2, 3], [1, 4])
    Ks = tuple(
        SimplicialComplex(K.facets | {extra}) if l < 2 else K for l, K in enumerate(F.complexes)
    )
    fake = Filtration(order=F.order, p=F.p, q=F.q, complexes=Ks, graph=F.graph)
    cert = verify_kl_collapse_sequence(fake)
    assert replay_certificate(cert)
    mask = cert.start.masks.mask
    step = lambda sigma, tau: CollapseStep(mask(sigma), mask(tau))
    forced = step(s([1], [2], [1, 2], [1, 2, 5]), s([1], [2], [1, 2, 5]))
    assert cert.stages[1] == (
        step(extra, s([2, 3], [1, 4])),
        forced,
        step(s([1], [2], [1, 2]), s([1], [2])),
    )


@pytest.mark.parametrize("name", CORE_FIXTURE_NAMES)
def test_removed_intervals_partition_start_minus_end(name):
    """The intervals a certificate's steps remove, derived from its start
    complex, are pairwise disjoint and make up the start less the end."""
    X = core_fixture(name)
    certs = [greedy_collapse(X)[1]]
    if name != "point":  # the point has no filtration
        certs.append(verify_kl_collapse_sequence(kl_filtration(X)))
    for cert in certs:
        intervals = [cert.removed(step) for step in cert.steps]
        removed = {s for interval in intervals for s in interval}
        assert len(removed) == sum(map(len, intervals))
        assert removed == set(cert.start.simplex_set()) - set(cert.end.simplex_set())


def test_kl_collapse_closes_only_the_start_complex():
    F = kl_filtration(core_fixture("rp2"))
    verify_kl_collapse_sequence(F)
    closed = lambda K: "closure" in vars(K.masks)
    assert closed(F.complexes[0])
    assert not any(closed(K) for K in F.complexes[1:-1])


def test_kl_collapse_on_projective_plane():
    F = kl_filtration(core_fixture("rp2"))
    cert = verify_kl_collapse_sequence(F)
    assert len(cert.stages) == 25
    assert replay_certificate(cert)


def test_kl_collapse_checks_freeness_once_per_stage(monkeypatch):
    """Only each stage's forced first pair is checked by a scan over the
    vertices; the rest of the stage is found from live cofacet counts."""
    calls = []
    free_facet = MaskView.free_facet

    def counted(self, S, tau):
        calls.append(tau)
        return free_facet(self, S, tau)

    monkeypatch.setattr(MaskView, "free_facet", counted)
    cert = verify_kl_collapse_sequence(kl_filtration(core_fixture("rp2")))
    assert len(calls) <= len(cert.stages)  # 25 stages


def test_kl_collapse_stalls_on_tampered_target():
    F = kl_filtration(core_fixture("boundary_delta2"))
    # make stage 1 aim at K_1 itself: the first pair would then bite into it
    fake = Filtration(
        order=F.order,
        p=F.p,
        q=F.q,
        complexes=(F.complexes[0],) + F.complexes,
        graph=F.graph,
    )
    with pytest.raises(StalledCollapse) as exc:
        verify_kl_collapse_sequence(fake)
    assert exc.value.stage == 1
    assert exc.value.stuck is not None


def test_kl_collapse_stalls_on_a_target_facet_with_a_foreign_vertex():
    F = kl_filtration(core_fixture("boundary_delta2"))
    Ks = F.complexes
    # K_2 plus a facet on a vertex that K_1, whose masks the verifier
    # carries, does not have
    grown = SimplicialComplex(Ks[1].facets | {frozenset([frozenset([0])])})
    fake = Filtration(
        order=F.order, p=F.p, q=F.q, complexes=(Ks[0], grown) + Ks[2:], graph=F.graph
    )
    with pytest.raises(StalledCollapse) as exc:
        verify_kl_collapse_sequence(fake)
    assert exc.value.stage == 1
    assert exc.value.stuck == Ks[1]


def test_certificate_dict_shape():
    F = kl_filtration(core_fixture("boundary_delta2"))
    cert = verify_kl_collapse_sequence(F)
    d = certificate_to_dict(cert)
    assert len(d["stages"]) == 3
    step = d["stages"][0][0]
    assert set(step) == {"facet", "free_face", "removed"}
    assert step["free_face"] == ["{1}", "{2}"]
    assert step["facet"] == ["{1}", "{1,2}", "{2}"]
    assert all(isinstance(v, str) for s in step["removed"] for v in s)
