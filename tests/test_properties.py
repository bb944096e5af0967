"""Fast paths of the canonical order, of greedy collapse, of the
filtration collapse verifier, of clique search, of the homology engine
and of the Hom fiber checks against their slow definitions, and the
paper's constructions against their definitions."""

import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import homcx.collapse
from homcx import (
    CORE_FIXTURE_NAMES,
    CollapseCertificate,
    CollapseStep,
    Cover,
    Filtration,
    Graph,
    HomologyProfile,
    HomPoset,
    Multihom,
    QuillenReport,
    SimplicialComplex,
    StalledCollapse,
    barycentric_subdivision,
    build_g_kx,
    certificate_to_dict,
    check_quillen_conditions,
    clique_complex,
    complete_graph,
    complex_from_dict,
    complex_to_dict,
    core_fixture,
    enumerate_hom,
    euler_characteristic,
    fiber_maximum,
    graph_from_dict,
    graph_to_dict,
    greedy_collapse,
    hom_homology,
    hom_order_complex,
    hom_poset_to_dict,
    homology,
    is_multihom,
    kl_filtration,
    label_key,
    looped_edge_graph,
    neighborhood_complex,
    nerve_of_cover,
    profiles_equal,
    render_label,
    replay_certificate,
    smith_normal_form,
    sparse_smith_normal_form,
    verify_kl_collapse_sequence,
    verify_nerve_theorem_hypotheses,
)
from homcx.canon import canonical_order
from homcx.collapse import _state
from homcx.graphs import _maximal_cliques
from homcx.hom import _decode, _encode
from homcx.homology import _sparse_snf, chain_complex
from homcx.simplicial import _CoverIndex, faces, maximal_sets, render_simplex
from test_collapse import cofacet_state_by_bits, free_face_pairs
from test_hom import pointwise_le
from test_homology import boundary_matrices
from test_nerve import brute_nerve

# Labels of every kind the package builds: ints, simplices (frozensets) and
# multihomomorphisms over one domain and one target.  label_key separates
# all of them.
ints = st.integers(-3, 9)
simplices = st.frozensets(st.integers(1, 6), min_size=1, max_size=3)
SIX = complete_graph(6)
multihoms = st.tuples(simplices, simplices).map(
    lambda images: Multihom((1, 2), tuple(_encode(SIX.rank, s) for s in images), SIX.vertices)
)
labels = st.one_of(ints, simplices, multihoms)


def slow_simplex_key(s):
    return (len(s), tuple(sorted(label_key(v) for v in s)))


@settings(deadline=None)
@given(
    st.lists(st.frozensets(labels, min_size=1, max_size=4), min_size=1, max_size=12),
    st.lists(st.frozensets(labels, min_size=1, max_size=4), max_size=4),
)
def test_rank_key_sorts_as_label_keys(family, extra):
    """The mask key of a complex on labels of every kind sorts any of its
    simplices, facets or not, as their label keys do; extra facets only
    add vertices."""
    view = SimplicialComplex(family + extra).masks
    by_mask = sorted(family, key=lambda s: view.key(view.mask(s)))
    assert by_mask == sorted(family, key=slow_simplex_key)


@settings(deadline=None)
@given(st.frozensets(st.frozensets(st.integers(1, 6), min_size=1, max_size=4)))
def test_size_sort_of_label_order_is_simplex_order(family):
    """Simplices as labels: a stable sort by size of the label_key order is
    the canonical simplex order."""
    ordered, _ = canonical_order(family)
    assert sorted(ordered, key=len) == sorted(family, key=slow_simplex_key)


set_families = st.lists(st.frozensets(st.integers(1, 8), max_size=5), max_size=25)
# prefixes of one vertex order, so every two of them are nested
nested_chains = st.permutations(range(1, 9)).flatmap(
    lambda p: st.lists(st.integers(0, 8), max_size=6).map(
        lambda cuts: [frozenset(p[:i]) for i in cuts]
    )
)


@settings(deadline=None)
@given(
    st.one_of(
        set_families,
        # a family with its first sets repeated, and a chain folded in
        st.tuples(set_families, nested_chains, st.integers(0, 25)).map(
            lambda t: t[0] + t[1] + t[0][: t[2]]
        ),
    )
)
@example([frozenset()])
@example([frozenset({1}), frozenset({1}), frozenset(), frozenset({1, 2}), frozenset({1, 2})])
def test_maximal_sets_matches_definition(family):
    pool = set(family)
    kept = maximal_sets(family)
    assert len(kept) == len(set(kept))
    assert set(kept) == {s for s in pool if not any(s < t for t in pool)}


def covers_calls(monkeypatch):
    """The sizes of the sets the cover index is asked about."""
    sizes = []
    covers = _CoverIndex.covers

    def counted(self, s):
        sizes.append(len(s))
        return covers(self, s)

    monkeypatch.setattr(_CoverIndex, "covers", counted)
    return sizes


def test_maximal_sets_tests_only_sets_below_the_largest(monkeypatch):
    facets = list(barycentric_subdivision(core_fixture("rp2"), 2).facets)
    sizes = covers_calls(monkeypatch)
    # a pure family: no two of its sets can contain each other
    assert set(maximal_sets(facets + facets[:7])) == set(facets)
    assert sizes == []
    # with faces of some facets mixed in, only those faces are tested
    faces_of = [frozenset(list(f)[:k]) for f in facets[:40] for k in (1, 2)]
    assert set(maximal_sets(faces_of + facets)) == set(facets)
    assert len(sizes) == len(set(faces_of))
    assert max(sizes) < max(map(len, facets))


complexes = st.lists(
    st.frozensets(st.integers(1, 7), min_size=1, max_size=7), min_size=1, max_size=8
).map(SimplicialComplex)


@settings(deadline=None)
@given(complexes)
def test_greedy_collapse_is_a_replayable_homotopy_equivalence(X):
    core, cert = greedy_collapse(X)
    assert replay_certificate(cert)
    # running dry is conclusive: no free face of any dimension is left
    assert free_face_pairs(core) == []
    assert profiles_equal(homology(core), homology(X))
    assert len(core) + 2 * len(cert.steps) == len(X)


# Vertex labels whose rank order is not their repr order ({2} before {10},
# ints before frozensets), and complexes on 80 vertices, whose masks take
# more than one machine word.
mixed_labels = st.one_of(
    st.integers(-3, 12), st.frozensets(st.integers(1, 12), min_size=1, max_size=2)
)
labelled_complexes = st.lists(
    st.frozensets(mixed_labels, min_size=1, max_size=5), min_size=1, max_size=8
).map(SimplicialComplex)
wide_complexes = st.lists(
    st.frozensets(st.integers(0, 79), min_size=1, max_size=3), max_size=40
).map(lambda facets: SimplicialComplex(facets + [[v] for v in range(80)]))


def greedy_steps_by_scan(X):
    """Greedy collapse by its definition: at each step the canonically
    first live tau with exactly one live cofacet, that cofacet maximal.
    Returns the (sigma, tau) pairs and the simplices left."""
    live = set(X.simplex_set())

    def cofacets_of(s):
        return [s | {v} for v in X.vertices if v not in s and s | {v} in live]

    steps = []
    while True:
        for tau in sorted(live, key=slow_simplex_key):
            over = cofacets_of(tau)
            if len(over) == 1 and not cofacets_of(over[0]):
                break
        else:
            return steps, live
        live -= {tau, over[0]}
        steps.append((over[0], tau))


@settings(deadline=None)
@given(st.one_of(complexes, labelled_complexes, wide_complexes))
@example(SimplicialComplex([[i, i + 1] for i in range(69)] + [[0, 35, 69]]))
def test_greedy_collapse_takes_the_canonically_first_free_pair(X):
    """The heap's int key is the canonical order: every step, and the
    core, are the scan's."""
    core, cert = greedy_collapse(X)
    steps, live = greedy_steps_by_scan(X)
    label = X.masks.label
    assert [(label(s.sigma), label(s.tau)) for s in cert.steps] == steps
    assert all(
        cert.removed(s) == interval_by_faces(label(s.tau), label(s.sigma)) for s in cert.steps
    )
    assert core.simplex_set() == live


@st.composite
def overlapping_complexes(draw):
    """Complexes whose facets share large faces: each facet is one common
    simplex of up to 8 vertices with up to two of them dropped and up to
    two others added."""
    base = draw(st.frozensets(st.integers(1, 10), min_size=3, max_size=8))
    facets = []
    for _ in range(draw(st.integers(1, 6))):
        dropped = draw(st.frozensets(st.sampled_from(sorted(base)), max_size=2))
        facets.append(base - dropped | draw(st.frozensets(st.integers(1, 10), max_size=2)))
    return SimplicialComplex(facets)


@settings(deadline=None)
@given(st.one_of(complexes, labelled_complexes, wide_complexes, overlapping_complexes()))
def test_facet_union_state_matches_the_per_bit_counts(X):
    """Greedy's starting state, from the union of the facets over each
    face, is the per-bit count and XOR of every face's cofacets."""
    view = X.masks
    by_bits = cofacet_state_by_bits(set(view.closure), view.n)
    assert _state(list(map(view.mask, X.facets)), (), view.n) == by_bits


def certificate_to_dict_by_labels(cert):
    """A certificate's steps rendered from their decoded label sets, each
    vertex rendered afresh."""
    X = cert.start
    label = X.masks.label
    return [
        [
            {
                "facet": render_simplex(X, label(step.sigma)),
                "free_face": render_simplex(X, label(step.tau)),
                "removed": [render_simplex(X, r) for r in cert.removed(step)],
            }
            for step in stage
        ]
        for stage in cert.stages
    ]


@pytest.mark.parametrize("name", CORE_FIXTURE_NAMES)
def test_certificate_rendering_from_masks_matches_labels(name):
    X = core_fixture(name)
    certs = [greedy_collapse(X)[1], greedy_collapse(neighborhood_complex(build_g_kx(X, 1)))[1]]
    if X.dim > 0:
        certs.append(verify_kl_collapse_sequence(kl_filtration(X)))
    for cert in certs:
        assert certificate_to_dict(cert)["stages"] == certificate_to_dict_by_labels(cert)


@settings(deadline=None)
@given(st.one_of(complexes, labelled_complexes, wide_complexes))
def test_mask_key_is_the_canonical_order(X):
    """The view's closure and order are the faces of the facets sorted by
    label keys."""
    closure = {s for f in X.facets for s in faces(f)}
    assert list(X.simplices()) == sorted(closure, key=slow_simplex_key)
    assert len(X) == len(closure)
    sizes = [len(s) for s in closure]
    assert X.f_vector() == tuple(sizes.count(d) for d in range(1, X.dim + 2))
    assert all(X.masks.label(X.masks.mask(s)) == s for s in closure)


@settings(deadline=None)
@given(st.one_of(complexes, labelled_complexes, wide_complexes, overlapping_complexes()))
def test_mask_closure_is_the_faces_of_the_facets(X):
    """The view's closure is the masks of the faces of the facets, and
    every mask in it decodes to a vertex set whose mask it is."""
    view = X.masks
    assert view.closure == {view.mask(s) for f in X.facets for s in faces(f)}
    assert all(view.mask(view.label(m)) == m for m in view.closure)


@settings(deadline=None)
@given(st.lists(st.one_of(complexes, labelled_complexes), min_size=1, max_size=4))
def test_nerve_and_its_hypotheses_match_the_label_sets(pieces):
    """Intersections taken on masks over the pieces' vertices give the
    nerve, and the full-simplex verdicts, of the pieces' label sets."""
    cover = Cover(index=tuple(range(len(pieces))), pieces=dict(enumerate(pieces)))
    nerve = brute_nerve(cover)
    assert set(nerve_of_cover(cover).simplex_set()) == nerve
    sets = [set(p.simplex_set()) for p in pieces]

    def full(J):
        """A meet of closures is downward closed, so it is the full
        simplex on its vertices exactly when it has 2^k - 1 members."""
        common = set.intersection(*(sets[j] for j in J))
        return len(common) == 2 ** len(frozenset().union(*common)) - 1

    report = verify_nerve_theorem_hypotheses(cover)
    assert report.intersections_checked == len(nerve)
    assert set(map(frozenset, report.failures)) == {J for J in nerve if not full(J)}


@settings(deadline=None)
@given(complexes, st.frozensets(st.integers(0, 9), min_size=1, max_size=5))
def test_covers_is_membership_in_the_closure(X, s):
    """Vertices 0, 8 and 9 lie outside every complex drawn."""
    assert X.covers(s) == (s in X.simplex_set())


@settings(deadline=None)
@given(
    st.lists(st.frozensets(st.integers(1, 8), min_size=1, max_size=5), max_size=12),
    st.frozensets(st.integers(0, 9), max_size=5),
)
def test_cover_index_is_the_subset_scan(family, s):
    index = _CoverIndex(family)
    assert index.covers(s) == any(s <= t for t in family)
    assert index.covers(frozenset()) == bool(family)


@settings(deadline=None)
@given(complexes, st.data())
def test_faces_are_the_subset_scan(X, data):
    S = X.simplex_set()
    s = data.draw(st.sampled_from(X.simplices()))
    listed = list(faces(s))
    assert [len(f) for f in listed] == sorted(len(f) for f in listed)
    assert len(listed) == 2 ** len(s) - 1
    assert set(listed) == {t for t in S if t <= s}


@settings(deadline=None)
@given(complexes)
def test_euler_characteristic_is_the_alternating_betti_sum(X):
    assert euler_characteristic(X) == sum(
        (-1) ** k * b for k, b in enumerate(homology(X).betti)
    )


@settings(deadline=None)
@given(complexes)
def test_printed_profile_does_not_depend_on_collapse(X):
    core, _ = greedy_collapse(X)
    assert homology(X).to_dict() == homology(core).to_dict()


matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=7
    )
)


@settings(deadline=None)
@given(matrices)
def test_sparse_diagonal_is_the_smith_diagonal(M):
    """Entries other than +-1 leave a residue for the dense reduction."""
    columns = [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(len(M[0]))]
    assert sparse_smith_normal_form(columns, len(M)) == smith_normal_form(M)


def dense_homology(X):
    """Dense Smith normal form of every boundary matrix."""
    if X.dim < 0:
        return HomologyProfile(betti=(), torsion=())
    snfs = [smith_normal_form(M) for M in boundary_matrices(X)]
    ranks = [0] + [snf.rank for snf in snfs] + [0]
    diagonals = [snf.diagonal for snf in snfs] + [()]
    counts = X.f_vector()
    return HomologyProfile(
        betti=tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(X.dim + 1)),
        torsion=tuple(tuple(d for d in diagonals[k] if d > 1) for k in range(X.dim + 1)),
    )


@settings(deadline=None)
@given(complexes)
def test_homology_matches_dense_smith_form(X):
    assert homology(X) == dense_homology(X)


# the dense oracle for one boundary: pure-Python Smith reduction takes
# seconds past a few thousand entries
DENSE_ENTRIES = 4000


def assert_clearing_keeps_smith_forms(counts, columns, widen=lambda skip: skip):
    """Run chain_homology's cleared elimination, top dimension down, and
    hold each boundary's Smith form to the uncleared one of all its
    columns and, where the matrix is small enough, to the dense Smith
    form.  ``widen`` grows each skip set, to show that the check fails."""
    skip = set()
    for k in range(len(columns), 0, -1):
        cleared, pivots = _sparse_snf(columns[k - 1], counts[k - 1], widen(skip))
        assert cleared == sparse_smith_normal_form(columns[k - 1], counts[k - 1]), k
        if counts[k - 1] * counts[k] <= DENSE_ENTRIES:
            M = [[0] * counts[k] for _ in range(counts[k - 1])]
            for j, column in enumerate(columns[k - 1]):
                for i, a in column.items():
                    M[i][j] = a
            assert cleared == smith_normal_form(M), k
        skip = pivots


def simplicial_chains(X):
    """The cell counts and boundary columns that homology(X) eliminates."""
    view = X.masks
    cells, columns = chain_complex((m,) for m in sorted(view.closure, key=view.key))
    return [len(c) for c in cells], columns


def relabelled_complex(X, seed):
    labels = list(X.vertices)
    mapping = dict(zip(labels, random.Random(seed).sample(labels, len(labels))))
    return SimplicialComplex(frozenset(map(mapping.get, f)) for f in X.facets)


CLEARED_COMPLEXES = {
    **{name: core_fixture(name) for name in CORE_FIXTURE_NAMES},
    **{
        f"N(G({name}))": neighborhood_complex(build_g_kx(core_fixture(name)))
        for name in CORE_FIXTURE_NAMES
    },
    **{
        f"sd2({name})": barycentric_subdivision(relabelled_complex(core_fixture(name), seed), 2)
        for name, seed in (("rp2", 29), ("boundary_delta3", 30))
    },
}


@pytest.mark.parametrize("name", CLEARED_COMPLEXES)
def test_clearing_keeps_every_smith_form(name):
    X = CLEARED_COMPLEXES[name]
    counts, columns = simplicial_chains(X)
    assert_clearing_keeps_smith_forms(counts, columns)
    if all(a * b <= DENSE_ENTRIES for a, b in zip(counts, counts[1:])):
        assert homology(X) == dense_homology(X)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["point", "delta1", "boundary_delta2", "delta2"])
def test_clearing_keeps_the_smith_forms_of_hom_cells(n, name):
    P = enumerate_hom(complete_graph(n), build_g_kx(core_fixture(name)))
    cells, columns = chain_complex(m.images for m in P)
    assert_clearing_keeps_smith_forms([len(c) for c in cells], columns)


@settings(deadline=None)
@given(complexes)
def test_clearing_keeps_the_smith_forms_of_drawn_complexes(X):
    counts, columns = simplicial_chains(X)
    assert_clearing_keeps_smith_forms(counts, columns)


def test_clearing_one_column_more_changes_the_answer():
    """Skipping delta1's only edge, which no unit pivot one dimension up
    settled, leaves its two vertices apart: beta_0 = 2."""
    counts, columns = simplicial_chains(core_fixture("delta1"))
    widened, _ = _sparse_snf(columns[0], counts[0], {0})
    assert counts[0] - widened.rank == 2
    with pytest.raises(AssertionError):
        assert_clearing_keeps_smith_forms(counts, columns, widen=lambda skip: skip | {0})


def looped_graphs_on(n):
    return st.sets(
        st.tuples(st.integers(1, n), st.integers(1, n)).map(lambda e: tuple(sorted(e)))
    ).map(lambda edges: Graph(vertices=range(1, n + 1), edges=edges))


looped_graphs = st.integers(1, 5).flatmap(looped_graphs_on)


@settings(deadline=None)
@given(st.sampled_from([complete_graph(2), looped_edge_graph()]), looped_graphs)
def test_cellular_hom_homology_matches_order_complex(source, H):
    P = enumerate_hom(source, H)
    # the order-complex route grows with the chains of P; past ~120
    # elements one example takes seconds
    assume(len(P) <= 120)
    core, _ = greedy_collapse(hom_order_complex(P))
    assert profiles_equal(hom_homology(P), homology(core))


@settings(deadline=None)
@given(st.sampled_from([complete_graph(2), complete_graph(3), looped_edge_graph()]), looped_graphs)
def test_hom_cell_counts_give_the_euler_characteristic(source, H):
    """The cells of Hom(G, H) are its elements, eta of dimension
    sum(|eta_i| - 1), and their alternating count is the Euler
    characteristic of its homology."""
    P = enumerate_hom(source, H)
    dims = [eta.total_size() - len(source.vertices) for eta in P]
    cells = [dims.count(k) for k in range(max(dims, default=-1) + 1)]
    assert sum(cells) == len(P)
    betti = hom_homology(P).betti
    assert sum((-1) ** k * c for k, c in enumerate(cells)) == sum(
        (-1) ** k * b for k, b in enumerate(betti)
    )


@settings(deadline=None)
@given(looped_graphs.map(lambda H: Graph(H.vertices, H.edges | {(v, v) for v in H.vertices})))
def test_edge_hom_has_the_homology_of_the_neighborhood_complex(H):
    """Hom(K2, H) and N(H) are homotopy equivalent for every graph H
    (Babson-Kozlov, arXiv:math/0310056), containment graph or not."""
    P = enumerate_hom(complete_graph(2), H)
    assert profiles_equal(hom_homology(P), homology(neighborhood_complex(H)))


hom_sources = [
    complete_graph(1),
    complete_graph(2),
    complete_graph(3),
    looped_edge_graph(),
    # vertex 1 grows a pruned image, vertex 3 has no later neighbor
    Graph([1, 2, 3], [(1, 2), (2, 3)]),
    # the isolated vertex 1 draws its image from the whole target
    Graph([1, 2, 3], [(2, 3)]),
]


def label_order_key(m):
    """The label keys of m's images as vertex sets."""
    return tuple(label_key(m.get(u)) for u in m.domain)


def hom_by_scan(G, H):
    """Hom(G, H) as every tuple of nonempty image subsets that is a
    multihomomorphism, checked and sorted as vertex sets."""
    tuples = product(faces(H.vertices), repeat=len(G.vertices))
    survivors = [
        Multihom(G.vertices, tuple(_encode(H.rank, img) for img in images), H.vertices)
        for images in tuples
        if is_multihom(G, H, dict(zip(G.vertices, images)))
    ]
    return HomPoset(G.vertices, sorted(survivors, key=label_order_key), H.vertices)


# the scan tries (2^|H| - 1)^|G| tuples: at most 961 for the sources on
# two vertices, 3,375 for those on three on a 4-vertex target, and 29,791
# (0.2-0.5 s) on a 5-vertex one, so the latter get a few examples apart
@settings(deadline=None)
@given(st.sampled_from(hom_sources), looped_graphs)
@example(complete_graph(3), complete_graph(4, loops=True))
def test_pruned_enumeration_is_the_scan(source, H):
    assume((2 ** len(H.vertices) - 1) ** len(source.vertices) <= 4_000)
    assert enumerate_hom(source, H).elements == hom_by_scan(source, H).elements


@settings(deadline=None, max_examples=4)
@given(st.sampled_from([G for G in hom_sources if len(G.vertices) == 3]), looped_graphs_on(5))
def test_pruned_enumeration_is_the_scan_on_five_target_vertices(source, H):
    assert enumerate_hom(source, H).elements == hom_by_scan(source, H).elements


# sd of a 6-simplex has 5,040 facets, and one such example takes ~0.25 s
@settings(deadline=None, max_examples=50)
@given(complexes)
def test_clique_complex_of_containment_graph_is_the_subdivision(X):
    assert clique_complex(build_g_kx(X, 1)) == barycentric_subdivision(X, 1)


def maximal_cliques_unpivoted(G):
    """Bron-Kerbosch without pivoting, loop edges stripped."""
    adj = {v: G.neighbors(v) - {v} for v in G.vertices}

    def expand(clique: list, candidates: list, excluded: list):
        if not candidates and not excluded:
            yield tuple(clique)
            return
        for i, v in enumerate(candidates):
            yield from expand(
                clique + [v],
                [u for u in candidates[i + 1 :] if u in adj[v]],
                [u for u in excluded if u in adj[v]],
            )
            excluded = excluded + [v]

    yield from expand([], list(G.vertices), [])


graphs = st.integers(1, 10).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(1, n), st.integers(1, n)).map(lambda e: tuple(sorted(e)))
    ).map(lambda edges: Graph(vertices=range(1, n + 1), edges=edges))
)


@settings(deadline=None)
@given(graphs)
def test_pivoted_cliques_are_the_unpivoted_cliques(G):
    pivoted = [frozenset(c) for c in _maximal_cliques(G)]
    assert len(pivoted) == len(set(pivoted))
    assert set(pivoted) == {frozenset(c) for c in maximal_cliques_unpivoted(G)}


def free_facet_by_cofacets(S, tau, vertices):
    """The unique facet of S properly containing tau, or None, from the
    label sets of tau's cofacets: in a downward-closed family tau is free
    exactly when they assemble to a single member of S."""
    cofacets = (tau | {v} for v in vertices if v not in tau and tau | {v} in S)
    sigma = frozenset().union(*cofacets)
    # with no cofacet sigma is empty, and no simplex is
    return sigma if sigma in S else None


def interval_by_faces(tau, sigma):
    """The faces between tau and sigma, in the label-key simplex order."""
    between = [tau] + [tau | extra for extra in faces(sigma - tau)]
    return tuple(sorted(between, key=slow_simplex_key))


def kl_sequence_by_closure(F):
    """The filtration collapse checked against the closure of every
    stage target, each stage starting from the closure of K_l: the same
    two checks on the forced pair as the verifier, then a scan that takes
    the forced pair with the rest."""
    V = F.graph.vertices
    mask = F.complexes[0].masks.mask
    stages: list[tuple] = []
    for l in range(1, F.p - F.q + 1):
        sig = F.order[l - 1]
        S = set(F.complexes[l - 1].simplex_set())
        target = set(F.complexes[l].simplex_set())
        steps: list[CollapseStep] = []

        def stall(message: str) -> StalledCollapse:
            return StalledCollapse(f"stage {l}: {message}", stage=l, stuck=SimplicialComplex(S))

        first_sigma = frozenset(F.graph.neighbors(sig))
        first_tau = first_sigma - {sig}
        if not first_tau or free_facet_by_cofacets(S, first_tau, V) != first_sigma:
            raise stall(f"the neighborhood of {render_label(sig)} has no free reduced face")
        if first_tau in target:
            raise stall("a collapse would remove part of the next complex")
        candidates = sorted(
            (s for s in S if sig in s and s not in target), key=slow_simplex_key
        )
        progressed = True
        while progressed:
            progressed = False
            for sigma in candidates:
                if sigma not in S:
                    continue
                tau = sigma - {sig}
                if not tau or tau in target:
                    continue
                if free_facet_by_cofacets(S, tau, V) == sigma:
                    S.difference_update(interval_by_faces(tau, sigma))
                    steps.append(CollapseStep(mask(sigma), mask(tau)))
                    progressed = True
                    break
        if S != target:
            raise stall("collapse stalled before reaching the next complex")
        stages.append(tuple(steps))
    return CollapseCertificate(
        start=F.complexes[0], end=F.complexes[-1], stages=tuple(stages)
    )


def kl_outcome(verify, F):
    """The rendered certificate, whose intervals are checked against the
    faces between each pair, or where and how the collapse stalled."""
    try:
        cert = verify(F)
    except StalledCollapse as exc:
        return exc.stage, str(exc), exc.stuck
    label = cert.start.masks.label
    assert all(
        cert.removed(s) == interval_by_faces(label(s.tau), label(s.sigma)) for s in cert.steps
    )
    return certificate_to_dict(cert)


def closure_faces(X):
    """The faces the closure route closes over X's filtration at most:
    every stage is generated by neighborhoods of the containment graph,
    and one of k vertices has 2^k faces."""
    G = build_g_kx(X, 1)
    return sum(2 ** len(G.neighbors(s)) for s in G.vertices)


@st.composite
def filtered_complexes(draw):
    """Complexes of dimension at least 1 whose filtration the closure
    route closes within 2^14 faces, so none is filtered out: grown from an
    edge or a triangle one facet at a time, leaving out each facet that
    would pass the budget.  A facet only adds to the containment graph's
    neighborhoods, so one left out could not join later either; a
    tetrahedron alone, whose neighborhood holds its 15 simplices, is past
    the budget."""
    simplex = lambda least: st.frozensets(st.integers(1, 7), min_size=least, max_size=3)
    facets = [draw(simplex(2))]
    for f in draw(st.lists(simplex(1), max_size=7)):
        if closure_faces(SimplicialComplex([*facets, f])) <= 2**14:
            facets.append(f)
    return SimplicialComplex(facets)


@settings(deadline=None)
@given(filtered_complexes(), st.data())
def test_kl_collapse_by_facets_matches_the_closures(X, data):
    F = kl_filtration(X)
    assert kl_outcome(verify_kl_collapse_sequence, F) == kl_outcome(kl_sequence_by_closure, F)
    Ks = F.complexes
    j = data.draw(st.integers(0, len(Ks) - 2))
    # K_{j+2} with a facet on a vertex no complex of the filtration has
    grown = SimplicialComplex(Ks[j + 1].facets | {frozenset([frozenset([0])])})
    tampered = [
        (Ks[0],) + Ks,  # every target one stage late
        Ks[: j + 1] + Ks[j:],  # K_{j+1} twice
        Ks[: j + 1] + (grown,) + Ks[j + 2 :],
    ]
    if len(Ks) >= 3:
        tampered.append(Ks[:j] + Ks[j + 1 :])  # K_{j+1} left out
    for Ks_fake in tampered:
        fake = Filtration(order=F.order, p=F.p, q=F.q, complexes=Ks_fake, graph=F.graph)
        by_closure = kl_outcome(kl_sequence_by_closure, fake)
        assert isinstance(by_closure, tuple)
        assert kl_outcome(verify_kl_collapse_sequence, fake) == by_closure


@pytest.mark.parametrize("name", ["delta1", "path2", "boundary_delta2", "delta2", "wedge_triangles"])
def test_kl_collapse_against_a_target_facet_partly_on_a_foreign_vertex(name):
    """A target facet on a vertex K_1 lacks still covers the simplices on
    its other vertices, as in the closure route: here the first stage's
    forced free face."""
    F = kl_filtration(core_fixture(name))
    Ks = F.complexes
    tau = F.graph.neighbors(F.order[0]) - {F.order[0]}
    grown = SimplicialComplex(Ks[1].facets | {tau | {frozenset([0])}})
    fake = Filtration(order=F.order, p=F.p, q=F.q, complexes=(Ks[0], grown) + Ks[2:], graph=F.graph)
    by_closure = kl_outcome(kl_sequence_by_closure, fake)
    assert by_closure[:2] == (1, "stage 1: a collapse would remove part of the next complex")
    assert kl_outcome(verify_kl_collapse_sequence, fake) == by_closure


def faces_outside_by_labels(A, B):
    """The simplices of A under no facet of B, as label sets: each face of
    each facet of A under no facet of B, tested with ``covers``."""
    return {s for f in A.facets if not B.covers(f) for s in faces(f) if not B.covers(s)}


def assert_faces_outside_match(F):
    """Every stage of F, and every stage against a target grown by facets
    on a vertex K_1 lacks (alone, and with a face of the stage's
    neighborhood), finds the same outside set on masks as on labels, and
    gives each face of it its per-bit cofacet count over that set."""
    view = F.complexes[0].masks
    part = lambda f: sum(view.bit.get(v, 0) for v in f)
    for l in range(1, len(F.complexes)):
        A = F.complexes[l - 1]
        nbhd = sorted(F.graph.neighbors(F.order[l - 1]), key=label_key)
        foreign = frozenset([frozenset([0])])
        for B in (
            F.complexes[l],
            SimplicialComplex(F.complexes[l].facets | {foreign}),
            SimplicialComplex(F.complexes[l].facets | {foreign | frozenset(nbhd[:-1])}),
        ):
            by_labels = {view.mask(s) for s in faces_outside_by_labels(A, B)} - {None}
            state = _state(list(map(part, A.facets)), list(map(part, B.facets)), view.n)
            assert set(state) == by_labels
            assert state == cofacet_state_by_bits(by_labels, view.n)


@pytest.mark.parametrize("name", [n for n in CORE_FIXTURE_NAMES if n != "point"])
def test_faces_outside_on_masks_matches_labels_on_core_filtrations(name):
    assert_faces_outside_match(kl_filtration(core_fixture(name)))


@settings(deadline=None)
@given(filtered_complexes())
def test_faces_outside_on_masks_matches_labels(X):
    assert_faces_outside_match(kl_filtration(X))


def assert_engine_gets_the_label_counts(F):
    """At every stage the verifier hands the engine the per-bit cofacet
    counts over the simplices of K_l outside K_{l+1}, found from label
    sets; the forced pair is among them, left to the engine."""
    view = F.complexes[0].masks
    engine = homcx.collapse._collapse_free_pairs
    starts = []

    def recorded(n, state, bits):
        starts.append(dict(state))
        return engine(n, state, bits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homcx.collapse, "_collapse_free_pairs", recorded)
        verify_kl_collapse_sequence(F)
    assert len(starts) == len(F.complexes) - 1
    for l, start in enumerate(starts, start=1):
        left = faces_outside_by_labels(F.complexes[l - 1], F.complexes[l])
        assert start == cofacet_state_by_bits(set(map(view.mask, left)), view.n), l


@pytest.mark.parametrize("name", [n for n in CORE_FIXTURE_NAMES if n != "point"])
def test_engine_gets_the_label_counts_on_core_filtrations(name):
    assert_engine_gets_the_label_counts(kl_filtration(core_fixture(name)))


@settings(deadline=None)
@given(filtered_complexes())
def test_engine_gets_the_label_counts(X):
    assert_engine_gets_the_label_counts(kl_filtration(X))


def quillen_by_scan(n, H):
    """The fiber checks with the pairs found by scanning all of
    Hom(K_{n-1}, H) for each eta."""
    P = enumerate_hom(complete_graph(n), H)
    Q = enumerate_hom(complete_graph(n - 1), H)
    fibers = {}
    for m in P:
        fibers.setdefault(m.images[:-1], []).append(m)
    maximum_failures = []
    for rho in Q:
        fiber = fibers.get(rho.images, [])
        try:
            top = fiber_maximum(rho, H)
        except ValueError:
            maximum_failures.append((str(rho), "no candidate maximum"))
            continue
        if top not in P:
            maximum_failures.append((str(rho), "predicted maximum is not a multihom"))
            continue
        if any(not pointwise_le(m, top) for m in fiber):
            maximum_failures.append((str(rho), "fiber member above predicted maximum"))
    pair_failures = []
    pairs = 0
    for eta in P:
        restricted = Multihom(Q.domain, eta.images[:-1], eta.target)
        for rho in Q:
            if not pointwise_le(rho, restricted):
                continue
            pairs += 1
            candidate = Multihom(P.domain, rho.images + (eta.images[-1],), eta.target)
            if candidate not in P:
                pair_failures.append((str(rho), str(eta), "candidate not a multihom"))
                continue
            below = [m for m in fibers.get(rho.images, []) if pointwise_le(m, eta)]
            if any(not pointwise_le(m, candidate) for m in below):
                pair_failures.append((str(rho), str(eta), "candidate not maximal"))
    return QuillenReport(
        n=n,
        fibers_checked=len(Q),
        pairs_checked=pairs,
        maximum_failures=tuple(maximum_failures),
        pair_failures=tuple(pair_failures),
    )


@settings(deadline=None)
@given(looped_graphs)
# K3 has fibers without a maximum: ({1,2}|{3}) has no common neighbor
@example(complete_graph(3))
def test_quillen_pairs_by_enumeration_match_the_scan(H):
    # the scan costs |P| * |Q| comparisons; past ~2e5 one example takes seconds
    assume(len(enumerate_hom(complete_graph(3), H)) * len(enumerate_hom(complete_graph(2), H))
           <= 200_000)
    assert check_quillen_conditions(3, H) == quillen_by_scan(3, H)


def quillen_losing(monkeypatch, H, lost):
    """The fiber checks and the scan, both on a Hom(K3, H) that misses
    ``lost``; they must agree and list failures."""
    complete = enumerate_hom

    def lossy(G, H, cap=None):
        P = complete(G, H, cap=cap)
        if len(G.vertices) == 3:
            return HomPoset(P.domain, [m for m in P if m != lost], P.target)
        return P

    monkeypatch.setattr("homcx.hom.enumerate_hom", lossy)
    monkeypatch.setitem(globals(), "enumerate_hom", lossy)
    report = check_quillen_conditions(3, H)
    assert report == quillen_by_scan(3, H)
    assert report.pair_failures
    return report


def test_quillen_lists_a_lost_candidate_as_the_scan_does(monkeypatch):
    H = build_g_kx(core_fixture("boundary_delta2"), 1)
    # the candidate of every rho = ({{1}}|{{1}}) below an eta ending in {{1}}
    lost = next(m for m in enumerate_hom(complete_graph(3), H) if str(m) == "({{1}}|{{1}}|{{1}})")
    report = quillen_losing(monkeypatch, H, lost)
    assert report.maximum_failures == ()
    assert len(report.pair_failures) == 8
    assert {kind for _, _, kind in report.pair_failures} == {"candidate not a multihom"}


def test_quillen_lists_a_lost_fiber_top_as_the_scan_does(monkeypatch):
    H = build_g_kx(core_fixture("boundary_delta2"), 1)
    rho = next(r for r in enumerate_hom(complete_graph(2), H) if str(r) == "({{1}}|{{1,2},{1,3}})")
    report = quillen_losing(monkeypatch, H, fiber_maximum(rho, H))
    assert report.maximum_failures == ((str(rho), "predicted maximum is not a multihom"),)


def relabelled(H, labels):
    """H with vertex i renamed to labels[i - 1]."""
    return Graph(
        vertices=[labels[v - 1] for v in H.vertices],
        edges=[(labels[a - 1], labels[b - 1]) for a, b in H.edges],
    )


set_labelled_graphs = st.tuples(
    looped_graphs,
    st.lists(
        st.frozensets(st.integers(1, 4), min_size=1, max_size=3),
        min_size=5,
        max_size=5,
        unique=True,
    ),
).map(lambda t: relabelled(*t))


@settings(deadline=None)
@given(
    st.sampled_from(
        [complete_graph(1), complete_graph(2), complete_graph(3), looped_edge_graph()]
    ),
    st.one_of(looped_graphs, set_labelled_graphs),
)
def test_hom_poset_order_is_the_label_order(source, H):
    # HomPoset keeps the order it is given, so the enumeration must emit it
    elements = enumerate_hom(source, H).elements
    assert elements == canonical_order(elements)[0]


hom_orders = (
    st.sampled_from(
        [complete_graph(1), complete_graph(2), complete_graph(3), looped_edge_graph()]
    ),
    st.one_of(looped_graphs, set_labelled_graphs),
)


@settings(deadline=None)
@given(*hom_orders)
def test_mask_key_sorts_multihoms_as_their_label_keys(source, H):
    elements = enumerate_hom(source, H).elements[::-1]
    assert sorted(elements, key=Multihom.canonical_key) == sorted(elements, key=label_order_key)


@settings(deadline=None)
@given(*hom_orders)
def test_image_masks_decode_and_encode_back(source, H):
    P = enumerate_hom(source, H)
    for m in P:
        for u, img in zip(m.domain, m.images):
            assert _encode(H.rank, _decode(P.target, img)) == img
            assert _encode(H.rank, m.get(u)) == img
            assert _decode(P.target, img) == m.get(u)


def hom_poset_dict_by_labels(P):
    """The JSON form of P from its images as vertex sets: covers by
    dropping one vertex from one image, in the label order."""
    elements = [tuple(m.get(u) for u in m.domain) for m in P]
    index = {images: i for i, images in enumerate(elements)}
    covers = sorted(
        (index[images[:i] + (img - {v},) + images[i + 1 :]], j)
        for j, images in enumerate(elements)
        for i, img in enumerate(images)
        if len(img) > 1
        for v in img
    )
    return {
        "domain": [render_label(u) for u in P.domain],
        "elements": [
            {render_label(u): [render_label(v) for v in sorted(img, key=label_key)]
             for u, img in zip(P.domain, images)}
            for images in elements
        ],
        "covers": [list(c) for c in covers],
    }


@settings(deadline=None)
@given(*hom_orders)
def test_hom_poset_json_matches_label_drops(source, H):
    P = enumerate_hom(source, H)
    assert hom_poset_to_dict(P) == hom_poset_dict_by_labels(P)


@settings(deadline=None)
@given(complexes, looped_graphs)
def test_json_forms_come_back_unchanged(X, H):
    data = complex_to_dict(X)
    assert complex_to_dict(complex_from_dict(data)) == data
    data = graph_to_dict(H)
    assert graph_to_dict(graph_from_dict(data)) == data


@settings(deadline=None)
@given(st.one_of(looped_graphs, set_labelled_graphs))
def test_hom_poset_json_survives_reloading_its_target(H):
    loaded = graph_from_dict(graph_to_dict(H))
    reloaded = graph_from_dict(graph_to_dict(loaded))
    K2 = complete_graph(2)
    assert hom_poset_to_dict(enumerate_hom(K2, reloaded)) == hom_poset_to_dict(
        enumerate_hom(K2, loaded)
    )
