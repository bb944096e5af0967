"""Fast paths of the canonical order, of greedy collapse and of the
homology engine against their slow definitions."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcx import (
    Graph,
    HomologyProfile,
    Multihom,
    SimplicialComplex,
    boundary_matrices,
    complete_graph,
    enumerate_hom,
    free_face_pairs,
    greedy_collapse,
    hom_homology,
    hom_order_complex,
    homology,
    label_key,
    looped_edge_graph,
    profiles_equal,
    replay_certificate,
    smith_normal_form,
    sparse_smith_normal_form,
)
from homcx.canon import canonical_order, simplex_key
from homcx.simplicial import maximal_sets

# Labels of every kind the package builds: ints, simplices (frozensets) and
# multihomomorphisms over one domain.  label_key separates all of them.
ints = st.integers(-3, 9)
simplices = st.frozensets(st.integers(1, 6), min_size=1, max_size=3)
multihoms = st.tuples(simplices, simplices).map(
    lambda images: Multihom(domain=(1, 2), images=images)
)
labels = st.one_of(ints, simplices, multihoms)


def slow_simplex_key(s):
    return (len(s), tuple(sorted(label_key(v) for v in s)))


@settings(deadline=None)
@given(
    st.lists(st.frozensets(labels, min_size=1, max_size=4), max_size=12),
    st.frozensets(labels, max_size=4),
)
def test_rank_key_sorts_as_label_keys(family, extra):
    # ranks over any superset of the vertices give the same order
    _, rank = canonical_order(frozenset(extra).union(*family))
    assert sorted(family, key=simplex_key(rank)) == sorted(family, key=slow_simplex_key)


@settings(deadline=None)
@given(st.frozensets(st.frozensets(st.integers(1, 6), min_size=1, max_size=4)))
def test_size_sort_of_label_order_is_simplex_order(family):
    """Simplices as labels: a stable sort by size of the label_key order is
    the canonical simplex order."""
    ordered, _ = canonical_order(family)
    assert sorted(ordered, key=len) == sorted(family, key=slow_simplex_key)


@settings(deadline=None)
@given(st.lists(st.frozensets(st.integers(1, 8), max_size=5), max_size=25))
def test_maximal_sets_matches_definition(family):
    pool = set(family)
    kept = maximal_sets(family)
    assert len(kept) == len(set(kept))
    assert set(kept) == {s for s in pool if not any(s < t for t in pool)}


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
    snfs = [smith_normal_form(M.entries) for M in boundary_matrices(X)]
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


looped_graphs = st.integers(1, 5).flatmap(
    lambda n: st.sets(
        st.tuples(st.integers(1, n), st.integers(1, n)).map(lambda e: tuple(sorted(e)))
    ).map(lambda edges: Graph(vertices=range(1, n + 1), edges=edges))
)


@settings(deadline=None)
@given(st.sampled_from([complete_graph(2), looped_edge_graph()]), looped_graphs)
def test_cellular_hom_homology_matches_order_complex(source, H):
    P = enumerate_hom(source, H)
    # the order-complex route grows with the chains of P; past ~120
    # elements one example takes seconds
    assume(len(P) <= 120)
    core, _ = greedy_collapse(hom_order_complex(P))
    assert profiles_equal(hom_homology(P), homology(core))
