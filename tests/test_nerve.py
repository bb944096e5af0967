"""Vertex-star covers, their nerves, and the nerve theorem hypotheses."""

from itertools import combinations

import pytest

import homcx.nerve
import homcx.verify
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


def test_failure_at_a_triple_below_a_full_pair():
    """P and Q meet in the full edge xy, but R meets that edge in the
    bare points x and y, so the triple fails where its pair (P, Q)
    passes.  Were all three pairs full simplices the triple would be one
    too, the meet of full simplices being the full simplex on the common
    vertices; here (P, R), (Q, R) and R itself fail as well.  Failures
    come in the order the tuples are reached, depth first."""
    P = SimplicialComplex.from_facets([["x", "y", "a"]])
    Q = SimplicialComplex.from_facets([["x", "y", "b"]])
    R = SimplicialComplex.from_facets([["x", "a"], ["y", "b"]])
    cov = Cover(index=("P", "Q", "R"), pieces={"P": P, "Q": Q, "R": R})
    rep = verify_nerve_theorem_hypotheses(cov)
    assert not rep.passed
    assert rep.failures == (("P", "R"), ("P", "Q", "R"), ("Q", "R"), ("R",))
    assert rep.intersections_checked == len(brute_nerve(cov)) == 7


def test_repeated_and_nested_facet_meets_are_one_full_simplex():
    """The facet meets of P and Q are ab (from ab and ab), and a three
    more times (from ab and ad, ac and ab, ac and ad), nested in ab: the
    intersection is the one full edge ab."""
    P = SimplicialComplex.from_facets([["a", "b"], ["a", "c"]])
    Q = SimplicialComplex.from_facets([["a", "b"], ["a", "d"]])
    cov = Cover(index=(1, 2), pieces={1: P, 2: Q})
    rep = verify_nerve_theorem_hypotheses(cov)
    # each piece alone is two edges, not a full simplex; their meet is
    assert rep.failures == ((1,), (2,))
    assert rep.intersections_checked == 3
    assert set(nerve_of_cover(cov).simplex_set()) == brute_nerve(cov)


def test_prop_3_1_walks_each_cover_once(monkeypatch):
    """prop-3.1 takes the nerve and the hypotheses of each star cover from
    one walk of its intersections, and both answer as on a cover walked
    in the other order, and as the brute-force nerve does."""
    walked = []
    walk = homcx.nerve._intersections

    def spy(cover):
        walked.append(cover)
        return walk(cover)

    monkeypatch.setattr(homcx.nerve, "_intersections", spy)
    suite = homcx.verify.run_suite("prop-3.1", fixtures=list(FIXTURES))
    assert [r.passed for r in suite.reports] == [True] * len(FIXTURES)
    assert len(walked) == len({id(c) for c in walked}) == len(FIXTURES)
    for name in FIXTURES:
        X = core_fixture(name)
        nerve_first, hyp_first = star_cover(X), star_cover(X)
        walked.clear()
        nerve = nerve_of_cover(nerve_first)
        hyp = verify_nerve_theorem_hypotheses(nerve_first)
        assert walked == [nerve_first], name
        assert verify_nerve_theorem_hypotheses(hyp_first) == hyp, name
        assert nerve_of_cover(hyp_first) == nerve == X, name
        assert set(nerve.simplex_set()) == brute_nerve(hyp_first), name
        assert hyp.passed and hyp.intersections_checked == len(brute_nerve(hyp_first)), name
