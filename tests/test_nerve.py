"""Vertex-star covers, their nerves, and the nerve theorem hypotheses."""

from itertools import combinations

import pytest

from homcx import (
    Cover,
    SimplicialComplex,
    core_fixture,
    cover_union,
    kl_filtration,
    nerve_of_cover,
    star_cover,
    verify_nerve_theorem_hypotheses,
)

FIXTURES = (
    "point", "delta1", "path2", "boundary_delta2",
    "delta2", "boundary_delta3", "wedge_triangles", "rp2",
)


def brute_nerve(cover):
    """All index subsets whose pieces share a simplex."""
    sets = {i: set(cover.piece(i).simplex_set()) for i in cover.index}
    out = set()
    for r in range(1, len(cover.index) + 1):
        for J in combinations(cover.index, r):
            common = set.intersection(*(sets[j] for j in J))
            if common:
                out.add(frozenset(J))
    return out


def test_star_pieces_are_stars():
    X = core_fixture("delta1")
    cov = star_cover(X)
    assert cov.index == (1, 2)
    star1 = set(cov.piece(1).vertices)
    assert star1 == {frozenset([1]), frozenset([1, 2])}


def test_star_pieces_are_full_simplices():
    for name in FIXTURES:
        cov = star_cover(core_fixture(name))
        for i in cov.index:
            piece = cov.piece(i)
            n = len(piece.vertices)
            assert len(piece) == 2 ** n - 1, (name, i)


def test_nerve_matches_brute_force():
    for name in FIXTURES:
        cov = star_cover(core_fixture(name))
        N = nerve_of_cover(cov)
        assert set(N.simplex_set()) == brute_nerve(cov), name


def test_nerve_of_star_cover_recovers_the_complex():
    for name in FIXTURES:
        X = core_fixture(name)
        N = nerve_of_cover(star_cover(X))
        assert set(N.simplex_set()) == set(X.simplex_set()), name


def test_hypotheses_hold_on_star_covers():
    for name in FIXTURES:
        cov = star_cover(core_fixture(name))
        rep = verify_nerve_theorem_hypotheses(cov)
        assert rep.passed, name
        assert rep.failures == ()
        # one check per nonempty intersection, that is per nerve simplex
        assert rep.intersections_checked == len(nerve_of_cover(cov)), name


def test_hypotheses_fail_on_disconnected_intersection():
    # two pieces meeting in a pair of bare points
    a = SimplicialComplex.from_facets([["x"], ["y"]])
    b = SimplicialComplex.from_facets([["x"], ["y"]])
    cov = Cover(index=(1, 2), pieces={1: a, 2: b})
    rep = verify_nerve_theorem_hypotheses(cov)
    assert not rep.passed
    assert rep.failures


def test_cover_union_is_vertex_star_complex():
    for name in ("delta1", "boundary_delta2", "delta2"):
        X = core_fixture(name)
        union = cover_union(star_cover(X))
        F = kl_filtration(X)
        assert union == F.complexes[-1], name


def test_star_cover_of_empty_complex_rejected():
    with pytest.raises(ValueError):
        star_cover(SimplicialComplex([]))
