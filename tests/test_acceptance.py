"""Acceptance run: every contract item, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s for the summary
prints).  Each test is one numbered criterion; the stated runtime bounds
are asserted where the contract gives one.
"""

import json
import random
import time

import pytest

from homcx import (
    HomologyProfile,
    Multihom,
    SimplicialComplex,
    build_g_kx,
    clique_complex,
    barycentric_subdivision,
    complete_graph,
    core_fixture,
    CORE_FIXTURE_NAMES,
    common_neighbor_witness,
    enumerate_hom,
    euler_characteristic,
    fiber_maximum,
    fold_reduce,
    greedy_collapse,
    hom_order_complex,
    homology,
    kl_filtration,
    looped_edge_graph,
    neighborhood_complex,
    nerve_of_cover,
    profiles_equal,
    replay_certificate,
    run_suite,
    smith_normal_form,
    star_cover,
    suite_to_dict,
    suite_to_text,
    verify_kl_collapse_sequence,
    verify_nerve_theorem_hypotheses,
)
from test_collapse import removed_in_stage
from test_hom import pointwise_le
from test_homology import boundary_matrices, fraction_free_rank

HOM_FIXTURES = ("point", "delta1", "boundary_delta2")


def collapsed_homology(X):
    core, _ = greedy_collapse(X)
    return homology(core)


def test_criterion_01_neighborhood_homology_matches_space():
    t0 = time.perf_counter()
    for name in CORE_FIXTURE_NAMES:
        X = core_fixture(name)
        N = neighborhood_complex(build_g_kx(X, 1))
        assert profiles_equal(collapsed_homology(N), homology(X)), name
    rp2 = homology(core_fixture("rp2"))
    assert rp2.torsion == ((), (2,), ())
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print("criterion 1 (neighborhood complex homology matches the space): PASS")


def test_criterion_02_filtration_collapse_certificates():
    for name in CORE_FIXTURE_NAMES:
        X = core_fixture(name)
        if X.dim < 1:
            continue  # p = q, no filtration
        F = kl_filtration(X)
        cert = verify_kl_collapse_sequence(F)
        assert replay_certificate(cert), name
        for i in range(len(cert.stages)):
            diff = set(F.complexes[i].simplex_set()) - set(F.complexes[i + 1].simplex_set())
            assert set(removed_in_stage(cert, i)) == diff, (name, i)
    F = kl_filtration(core_fixture("boundary_delta2"))
    cert = verify_kl_collapse_sequence(F)
    assert set(removed_in_stage(cert, 0)) == {
        frozenset([frozenset([1]), frozenset([2])]),
        frozenset([frozenset([1]), frozenset([2]), frozenset([1, 2])]),
    }
    print("criterion 2 (replayable stagewise collapse certificates): PASS")


def test_criterion_03_star_cover_nerve_recovers_the_space():
    for name in CORE_FIXTURE_NAMES:
        X = core_fixture(name)
        cov = star_cover(X)
        assert set(nerve_of_cover(cov).simplex_set()) == set(X.simplex_set()), name
        rep = verify_nerve_theorem_hypotheses(cov)
        assert rep.passed, name
    print("criterion 3 (star-cover nerve equals the space, hypotheses hold): PASS")


def test_criterion_04_edge_hom_agrees_with_neighborhood_complex():
    t0 = time.perf_counter()
    for name in ("point", "delta1", "boundary_delta2", "delta2"):
        X = core_fixture(name)
        G = build_g_kx(X, 1)
        hom_prof = collapsed_homology(hom_order_complex(enumerate_hom(complete_graph(2), G)))
        nbhd_prof = collapsed_homology(neighborhood_complex(G))
        assert profiles_equal(hom_prof, nbhd_prof), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    print("criterion 4 (edge-hom homology equals neighborhood complex): PASS")


def test_criterion_05_triangle_hom_agrees_with_edge_hom():
    expected = {
        "point": (1,),
        "delta1": (1,),
        "boundary_delta2": (1, 1),
    }
    for name in HOM_FIXTURES:
        G = build_g_kx(core_fixture(name), 1)
        p2 = collapsed_homology(hom_order_complex(enumerate_hom(complete_graph(2), G)))
        p3 = collapsed_homology(hom_order_complex(enumerate_hom(complete_graph(3), G)))
        assert profiles_equal(p2, p3), name
        want = HomologyProfile(
            betti=expected[name], torsion=tuple(() for _ in expected[name])
        )
        assert profiles_equal(p3, want), name
    print("criterion 5 (triangle-hom homology equals edge-hom): PASS")


def test_criterion_06_every_hom_element_has_a_common_neighbor_witness():
    checked = 0
    for name in HOM_FIXTURES:
        G = build_g_kx(core_fixture(name), 1)
        for n in (2, 3):
            P = enumerate_hom(complete_graph(n), G)
            for eta in P.elements:
                intersection = [
                    v
                    for v in G.vertices
                    if all(G.has_edge(v, a) for u in eta.domain for a in eta.get(u))
                ]
                assert intersection, (name, n, eta)
                tr = common_neighbor_witness(eta, G)
                assert tr.witness in intersection, (name, n, eta)
                checked += 1
    assert checked == 346  # 1+1, 21+59, 72+192
    print("criterion 6 (witness lies in every brute-force intersection): PASS")


def test_criterion_07_restriction_fibers_have_unique_maxima():
    from homcx import check_quillen_conditions

    for name in HOM_FIXTURES:
        G = build_g_kx(core_fixture(name), 1)
        P = enumerate_hom(complete_graph(3), G)
        Q = enumerate_hom(complete_graph(2), G)
        fibers = {}
        for eta in P.elements:
            fibers.setdefault(eta.images[:2], []).append(eta)
        for rho in Q.elements:
            members = fibers.get(rho.images, [])
            top = fiber_maximum(rho, G)
            maxima = [m for m in members if all(pointwise_le(x, m) for x in members)]
            assert maxima == [top], (name, rho)
        # condition (B): the capped extension dominates the fiber below eta
        for eta in P.elements:
            for rho in Q.elements:
                if not all(rho.get(u) <= eta.get(u) for u in rho.domain):
                    continue
                mu = Multihom((1, 2, 3), rho.images + (eta.images[2],), eta.target)
                assert mu in set(P.elements), (name, rho, eta)
                below = [
                    nu for nu in fibers.get(rho.images, []) if pointwise_le(nu, eta)
                ]
                assert all(pointwise_le(nu, mu) for nu in below), (name, rho, eta)
        rep = check_quillen_conditions(3, G)
        assert rep.passed, name
    print("criterion 7 (restriction fibers: unique maxima and capped extensions): PASS")


def test_criterion_08_fold_path():
    core, steps = fold_reduce(looped_edge_graph())
    assert core.vertices == ("b",) and core.has_loop("b")
    assert len(steps) == 1
    for name in CORE_FIXTURE_NAMES:
        X = core_fixture(name)
        G = build_g_kx(X, 1)
        assert set(clique_complex(G).simplex_set()) == set(
            barycentric_subdivision(X, 1).simplex_set()
        ), name
    for name in HOM_FIXTURES:
        X = core_fixture(name)
        G = build_g_kx(X, 1)
        P = enumerate_hom(looped_edge_graph(), G)
        prof = collapsed_homology(hom_order_complex(P))
        assert profiles_equal(prof, homology(X)), name
    print("criterion 8 (fold path: loops, cliques, and looped-edge hom): PASS")


def test_criterion_09_homology_kernel():
    # boundary-of-boundary vanishes
    for name in CORE_FIXTURE_NAMES:
        mats = boundary_matrices(core_fixture(name))
        for a, b in zip(mats, mats[1:]):
            prod = [
                [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a
            ]
            assert all(v == 0 for row in prod for v in row), name

    rng = random.Random(2024)
    for _ in range(200):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(M)
        assert res.rank == fraction_free_rank(M)
        for a, b in zip(res.diagonal, res.diagonal[1:]):
            assert b % a == 0

    def random_complex(r):
        nv = r.randint(1, 6)
        facets = []
        for _ in range(r.randint(1, 5)):
            k = r.randint(1, min(nv, 4))
            facets.append(r.sample(range(1, nv + 1), k))
        return SimplicialComplex.from_facets(facets)

    spaces = [core_fixture(n) for n in CORE_FIXTURE_NAMES]
    spaces += [random_complex(rng) for _ in range(100)]
    for X in spaces:
        prof = homology(X)
        alt = sum((-1) ** k * b for k, b in enumerate(prof.betti))
        assert alt == euler_characteristic(X)

    # homology is untouched by each certificate step
    for name in ("delta1", "path2", "boundary_delta2", "delta2"):
        X = core_fixture(name)
        F = kl_filtration(X)
        cert = verify_kl_collapse_sequence(F)
        want = homology(F.complexes[0])
        S = set(F.complexes[0].simplex_set())
        for step in cert.steps:
            S.difference_update(cert.removed(step))
            assert profiles_equal(
                homology(SimplicialComplex(S)), want
            ), name
    for name in ("delta2", "path2"):
        X = core_fixture(name)
        want = homology(X)
        _, cert = greedy_collapse(X)
        S = set(X.simplex_set())
        for step in cert.steps:
            S.difference_update(cert.removed(step))
            assert profiles_equal(
                homology(SimplicialComplex(S)), want
            ), name
    print("criterion 9 (integer homology kernel cross-checks): PASS")


def test_criterion_10_verification_is_deterministic():
    plans = [
        ("thm-1.2", None, None),
        ("prop-3.1", None, None),
        ("prop-collapse", None, None),
        ("prop-4.1", None, None),
        ("quillen", None, None),
        ("fold", None, None),
        ("thm-1.1", None, None),
        ("thm-1.3", None, None),
        ("lemma-hom-nbhd", ("point", "delta1", "boundary_delta2"), None),
    ]

    def scrub(d):
        if isinstance(d, dict):
            return {k: scrub(v) for k, v in d.items() if k != "wall_time_s"}
        if isinstance(d, list):
            return [scrub(v) for v in d]
        return d

    for theorem, fixtures, n in plans:
        dumps = []
        texts = []
        for _ in range(2):
            res = run_suite(theorem, fixtures=fixtures, n=n)
            assert res.passed, theorem
            dumps.append(json.dumps(scrub(suite_to_dict(res)), sort_keys=True))
            texts.append(
                "\n".join(
                    l for l in suite_to_text(res).splitlines() if "wall time" not in l
                )
            )
        assert dumps[0] == dumps[1], theorem
        assert texts[0] == texts[1], theorem
    print("criterion 10 (byte-identical verification reports): PASS")
