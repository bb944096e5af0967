"""Fast paths of the canonical order and of greedy collapse against their
slow definitions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from homcx import (
    Multihom,
    SimplicialComplex,
    free_face_pairs,
    greedy_collapse,
    homology,
    label_key,
    profiles_equal,
    replay_certificate,
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
