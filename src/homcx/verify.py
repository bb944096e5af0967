"""Verification suites behind the CLI.

Each suite checks one of the package's headline statements on the
built-in fixtures, via machine-checkable surrogates: homology profiles,
replayable collapse certificates, literal nerve equality, and fiber
maxima.  Homotopy equivalence itself is never claimed by a report.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .canon import render_label
from .collapse import (
    StalledCollapse,
    certificate_to_dict,
    greedy_collapse,
    kl_filtration,
    replay_certificate,
    verify_kl_collapse_sequence,
)
from .fixtures import CORE_FIXTURE_NAMES, core_fixture, looped_edge_graph
from .graphs import (
    build_g_kx,
    clique_complex,
    complete_graph,
    fold_reduce,
    neighborhood_complex,
)
from .hom import (
    check_quillen_conditions,
    common_neighbor_witness,
    enumerate_hom,
    hom_homology,
)
from .homology import HomologyProfile, homology, profiles_equal
from .nerve import nerve_of_cover, star_cover, verify_nerve_theorem_hypotheses
from .simplicial import SimplicialComplex, barycentric_subdivision, complex_to_dict

__all__ = [
    "VerificationReport",
    "SuiteResult",
    "SUITE_NAMES",
    "run_suite",
    "suite_to_dict",
    "suite_to_text",
]

SURROGATE_NOTE = (
    "checks are homology profiles and explicit certificates standing in "
    "for homotopy equivalence; equivalence itself is not machine-proven"
)

@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    fixture: str
    surrogate: str
    passed: bool
    artifacts: dict
    wall_time_s: float


@dataclass(frozen=True)
class SuiteResult:
    theorem: str
    surrogate: str
    passed: bool
    reports: tuple
    wall_time_s: float


def collapsed_profile(X: SimplicialComplex) -> tuple[HomologyProfile, int, int]:
    """Homology after a greedy collapse, with simplex counts before and
    after.  Kept only for the neighborhood side of thm-1.2, whose report
    prints those counts; every other profile is the homology of the
    complex itself or, on the Hom side, of its cells."""
    core, cert = greedy_collapse(X)
    # each step removes a free pair, so X is never closed to be counted
    return homology(core), len(core) + 2 * len(cert.steps), len(core)


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# individual suites; each yields (fixture, passed, artifacts) triples


def _suite_thm_1_2(fixtures, n, cap):
    for name in fixtures:
        X = core_fixture(name)
        N = neighborhood_complex(build_g_kx(X, 1))
        left, nb_before, nb_after = collapsed_profile(N)
        right = homology(X)
        yield name, profiles_equal(left, right), {
            "nbhd_profile": left.to_dict(),
            "fixture_profile": right.to_dict(),
            "nbhd_simplices": nb_before,
            "nbhd_simplices_after_collapse": nb_after,
        }


def _suite_thm_1_3(fixtures, n, cap):
    n = 3 if n is None else n
    if n < 3:
        raise ValueError("thm-1.3 compares Hom(K_{n-1}) with Hom(K_n) for n >= 3")
    for name in fixtures:
        X = core_fixture(name)
        G = build_g_kx(X, 1)
        profiles = []
        sizes = []
        for m in (n - 1, n):
            P = enumerate_hom(complete_graph(m), G, cap=cap)
            profiles.append(hom_homology(P))
            # a cell eta of Hom(K_m, G) has dimension sum(|eta_i| - 1)
            dims = [eta.total_size() - m for eta in P]
            cells = [dims.count(k) for k in range(max(dims, default=-1) + 1)]
            sizes.append({"elements": len(P), "cells": cells})
        yield name, profiles_equal(profiles[0], profiles[1]), {
            f"hom_k{n - 1}_profile": profiles[0].to_dict(),
            f"hom_k{n}_profile": profiles[1].to_dict(),
            f"hom_k{n - 1}_size": sizes[0],
            f"hom_k{n}_size": sizes[1],
        }


def _suite_lemma_hom_nbhd(fixtures, n, cap):
    for name in fixtures:
        X = core_fixture(name)
        G = build_g_kx(X, 1)
        P = enumerate_hom(complete_graph(2), G, cap=cap)
        left = hom_homology(P)
        right = homology(neighborhood_complex(G))
        yield name, profiles_equal(left, right), {
            "hom_k2_profile": left.to_dict(),
            "nbhd_profile": right.to_dict(),
            "hom_k2_elements": len(P),
        }


def _suite_thm_1_1(fixtures, n, cap):
    T = looped_edge_graph()
    for name in fixtures:
        X = core_fixture(name)
        G = build_g_kx(X, 1)
        target = homology(X)
        artifacts = {"fixture_profile": target.to_dict()}
        ok = True
        for label, source in (
            ("k2", complete_graph(2)),
            ("k3", complete_graph(3)),
            ("looped_edge", T),
        ):
            prof = hom_homology(enumerate_hom(source, G, cap=cap))
            artifacts[f"hom_{label}_profile"] = prof.to_dict()
            ok = ok and profiles_equal(prof, target)
        yield name, ok, artifacts


def _suite_prop_collapse(fixtures, n, cap):
    for name in fixtures:
        X = core_fixture(name)
        if X.dim < 1:
            yield name, True, {"skipped": "no positive-dimensional simplex"}
            continue
        F = kl_filtration(X)
        try:
            cert = verify_kl_collapse_sequence(F)
            replay_certificate(cert)
        except StalledCollapse as exc:
            stuck = exc.stuck
            yield name, False, {
                "stalled_stage": exc.stage,
                "stuck_facets": None if stuck is None else complex_to_dict(stuck)["facets"],
            }
            continue
        yield name, True, {
            "p": F.p,
            "q": F.q,
            "stages": len(cert.stages),
            "steps": len(cert.steps),
            "start_simplices": len(F.complexes[0]),
            # replay has shown that the start less the removed pairs is the
            # end; each step is an engine pop, sigma being tau plus one bit
            "end_simplices": len(F.complexes[0]) - 2 * len(cert.steps),
            "certificate_sha256": _digest(certificate_to_dict(cert)),
        }


def _suite_prop_3_1(fixtures, n, cap):
    for name in fixtures:
        X = core_fixture(name)
        cover = star_cover(X)
        nerve = nerve_of_cover(cover)
        hyp = verify_nerve_theorem_hypotheses(cover)
        equal = nerve == X
        yield name, equal and hyp.passed, {
            "nerve_equals_fixture": equal,
            "intersections_checked": hyp.intersections_checked,
            "hypothesis_failures": [list(map(render_label, f)) for f in hyp.failures],
        }


def _suite_prop_4_1(fixtures, n, cap):
    ns = (2, 3) if n is None else (n,)
    if min(ns) < 2:
        raise ValueError("witness checks need n >= 2: images of K_1 need not be cliques")
    for name in fixtures:
        X = core_fixture(name)
        H = build_g_kx(X, 1)
        # each vertex's neighborhood as a rank mask, from its label set
        # (independent of the witness and of ``Graph.neighbor_masks``)
        near = [sum(1 << H.rank[w] for w in H.neighbors(v)) for v in H.vertices]
        checked = 0
        failures = []
        for m in ns:
            P = enumerate_hom(complete_graph(m), H, cap=cap)
            for eta in P:
                checked += 1
                try:
                    trace = common_neighbor_witness(eta, H)
                except AssertionError:
                    # the witness missed a neighborhood: a failure of this eta
                    failures.append(str(eta))
                    continue
                rank = H.rank.get(trace.witness)
                # the witness must be adjacent to every vertex of every image
                if rank is None or reduce(or_, eta.images) & ~near[rank]:
                    failures.append(str(eta))
        yield name, not failures, {
            "etas_checked": checked,
            "n_values": list(ns),
            "failures": failures,
        }


def _suite_quillen(fixtures, n, cap):
    n = 3 if n is None else n
    for name in fixtures:
        X = core_fixture(name)
        H = build_g_kx(X, 1)
        report = check_quillen_conditions(n, H, cap=cap)
        yield name, report.passed, {
            "n": report.n,
            "fibers_checked": report.fibers_checked,
            "pairs_checked": report.pairs_checked,
            "maximum_failures": [list(f) for f in report.maximum_failures],
            "pair_failures": [list(f) for f in report.pair_failures],
        }


def _suite_fold(fixtures, n, cap):
    T = looped_edge_graph()
    core, steps = fold_reduce(T)
    fold_ok = (
        len(core.vertices) == 1
        and core.has_loop(core.vertices[0])
        and [(s.removed, s.witness) for s in steps] == [("a", "b")]
    )
    yield "looped_edge_graph", fold_ok, {
        "core_vertices": [render_label(v) for v in core.vertices],
        "fold_steps": [[render_label(s.removed), render_label(s.witness)] for s in steps],
    }
    for name in fixtures:
        X = core_fixture(name)
        G = build_g_kx(X, 1)
        flag = clique_complex(G)
        sd = barycentric_subdivision(X, 1)
        clique_ok = flag == sd
        prof = hom_homology(enumerate_hom(T, G, cap=cap))
        target = homology(X)
        hom_ok = profiles_equal(prof, target)
        yield name, clique_ok and hom_ok, {
            "clique_equals_subdivision": clique_ok,
            "hom_looped_profile": prof.to_dict(),
            "fixture_profile": target.to_dict(),
        }


_SUITES = {
    "thm-1.1": (_suite_thm_1_1, "homology equality", CORE_FIXTURE_NAMES),
    "thm-1.2": (_suite_thm_1_2, "homology equality", CORE_FIXTURE_NAMES),
    "thm-1.3": (_suite_thm_1_3, "homology equality", CORE_FIXTURE_NAMES),
    "lemma-hom-nbhd": (
        _suite_lemma_hom_nbhd,
        "homology equality",
        ("point", "delta1", "boundary_delta2", "delta2"),
    ),
    "prop-3.1": (_suite_prop_3_1, "nerve equality", CORE_FIXTURE_NAMES),
    "prop-collapse": (_suite_prop_collapse, "collapse certificate", CORE_FIXTURE_NAMES),
    "prop-4.1": (_suite_prop_4_1, "fiber maxima", CORE_FIXTURE_NAMES),
    "quillen": (_suite_quillen, "fiber maxima", CORE_FIXTURE_NAMES),
    "fold": (_suite_fold, "homology equality", CORE_FIXTURE_NAMES),
}

SUITE_NAMES = tuple(_SUITES)

# the suites whose statement is about a source clique K_n of a chosen size
_CLIQUE_SIZE_SUITES = ("thm-1.3", "prop-4.1", "quillen")
# the suites that enumerate a Hom poset, which an element cap bounds
_HOM_SUITES = ("thm-1.1", "thm-1.3", "lemma-hom-nbhd", "prop-4.1", "quillen", "fold")


def run_suite(
    theorem: str,
    fixtures: tuple | None = None,
    n: int | None = None,
    cap: int | None = None,
) -> SuiteResult:
    if theorem not in _SUITES:
        raise ValueError(
            f"unknown suite {theorem!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    for option, value, takers in (
        ("source clique size n", n, _CLIQUE_SIZE_SUITES),
        ("enumeration cap", cap, _HOM_SUITES),
    ):
        if value is not None and theorem not in takers:
            raise ValueError(
                f"suite {theorem!r} takes no {option}; only {', '.join(takers)} do"
            )
    fn, surrogate, defaults = _SUITES[theorem]
    fixtures = defaults if fixtures is None else tuple(fixtures)
    if not fixtures:
        raise ValueError("no fixtures to verify")
    start = time.perf_counter()
    prev = start
    reports = []
    for fixture, passed, artifacts in fn(fixtures, n, cap):
        now = time.perf_counter()
        reports.append(
            VerificationReport(
                theorem=theorem,
                fixture=fixture,
                surrogate=surrogate,
                passed=passed,
                artifacts=artifacts,
                wall_time_s=round(now - prev, 6),
            )
        )
        prev = now
    total = time.perf_counter() - start
    return SuiteResult(
        theorem=theorem,
        surrogate=surrogate,
        passed=all(r.passed for r in reports),
        reports=tuple(reports),
        wall_time_s=round(total, 6),
    )


def suite_to_dict(result: SuiteResult) -> dict:
    return {
        "theorem": result.theorem,
        "surrogate": result.surrogate,
        "note": SURROGATE_NOTE,
        "passed": result.passed,
        "reports": [
            {
                "fixture": r.fixture,
                "passed": r.passed,
                "artifacts": r.artifacts,
                "wall_time_s": r.wall_time_s,
            }
            for r in result.reports
        ],
        "wall_time_s": result.wall_time_s,
    }


def suite_to_text(result: SuiteResult) -> str:
    lines = [f"verify {result.theorem} (surrogate: {result.surrogate})"]
    lines.append(f"  note: {SURROGATE_NOTE}")
    for r in result.reports:
        status = "PASS" if r.passed else "FAIL"
        detail = json.dumps(r.artifacts, sort_keys=True)
        lines.append(f"  [{status}] {r.fixture}: {detail}")
    lines.append(f"overall: {'PASS' if result.passed else 'FAIL'}")
    lines.append(f"wall time: {result.wall_time_s:.3f}s")
    return "\n".join(lines)
