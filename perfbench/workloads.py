"""The benchmark's workloads: inputs built from a seed, and one pass each.

A pass runs every job of its workload once, through homcx's public API
only, and returns the answer of every check keyed by a stable name.
Verify jobs go through ``homcx.cli.main`` in-process with JSON output,
exactly as ``homcx verify ... --format json`` would run; the reports are
scrubbed of wall times before they are compared.

The seed changes only things the answers must not depend on: the order
of the jobs, the order of fixtures inside each verify command, and (for
homology-direct) a relabelling of the input vertices.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import homcx
import homcx.cli


@dataclass(frozen=True)
class Workload:
    name: str
    # ("verify", suite, fixtures) or ("homology", fixture, depth)
    jobs: tuple
    # per-pass wall-clock guard; a pass that runs longer is a failed check
    pass_limit_s: float
    # (counter, suite, artifact): the traced counter must equal the sum of
    # that artifact over the suite's reports in the same run
    count_checks: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hom-complex",
            (("verify", "lemma-hom-nbhd", ("point", "delta1", "boundary_delta2", "delta2")),),
            pass_limit_s=150.0,
            count_checks=(("hom.elements", "lemma-hom-nbhd", "hom_k2_elements"),),
        ),
        Workload(
            "homology-direct",
            (("homology", "rp2", 2), ("homology", "boundary_delta3", 2)),
            pass_limit_s=60.0,
        ),
        Workload(
            "certificates",
            (
                ("verify", "prop-collapse", homcx.CORE_FIXTURE_NAMES),
                ("verify", "thm-1.2", homcx.CORE_FIXTURE_NAMES),
                ("verify", "prop-3.1", homcx.CORE_FIXTURE_NAMES),
            ),
            pass_limit_s=60.0,
            count_checks=(
                ("collapse.kl_steps", "prop-collapse", "steps"),
                ("nerve.intersections_checked", "prop-3.1", "intersections_checked"),
            ),
        ),
        Workload(
            "fiber-checks",
            (
                ("verify", "quillen", ("delta2", "wedge_triangles")),
                ("verify", "prop-4.1", ("delta2", "wedge_triangles", "boundary_delta3")),
            ),
            pass_limit_s=60.0,
            count_checks=(
                ("hom.pairs_checked", "quillen", "pairs_checked"),
                ("hom.witnesses", "prop-4.1", "etas_checked"),
            ),
        ),
    )
}


def relabel(X, rng: random.Random):
    """X with its integer vertex labels permuted: same complex up to
    isomorphism, different canonical order."""
    old = list(X.vertices)
    new = old[:]
    rng.shuffle(new)
    mapping = dict(zip(old, new))
    return homcx.SimplicialComplex.from_facets(
        [[mapping[v] for v in f] for f in X.facets]
    )


def build_inputs(name: str, seed: int) -> list:
    """The jobs of one pass, in seeded order, with their inputs built.

    Each entry is ``("verify", suite, argv, fixtures)`` or
    ``("homology", fixture, complex, depth)``.
    """
    w = WORKLOADS[name]
    rng = random.Random(seed)
    jobs = list(w.jobs)
    rng.shuffle(jobs)
    built = []
    for kind, what, arg in jobs:
        if kind == "verify":
            fixtures = list(arg)
            rng.shuffle(fixtures)
            argv = ["verify", what, "--fixtures", ",".join(fixtures), "--format", "json"]
            built.append(("verify", what, argv, tuple(fixtures)))
        else:
            built.append(("homology", what, relabel(homcx.core_fixture(what), rng), arg))
    return built


def job_keys(job) -> list[str]:
    """Names of the checks a job answers."""
    if job[0] == "verify":
        return [f"{job[1]}/{fx}" for fx in job[3]]
    return [job[1]]


def scrub(report: dict) -> dict:
    """A verify report without its wall time."""
    return {k: v for k, v in report.items() if k != "wall_time_s"}


def run_job(job) -> dict:
    """Run one job; returns {check name: answer}."""
    if job[0] == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = homcx.cli.main(job[2])
        suite = json.loads(out.getvalue())
        return {
            f"{job[1]}/{r['fixture']}": {"exit_code": code, "report": scrub(r)}
            for r in suite["reports"]
        }
    _, fixture, X, depth = job
    profile = homcx.homology(homcx.barycentric_subdivision(X, depth))
    return {fixture: {"betti": list(profile.betti), "torsion": [list(t) for t in profile.torsion]}}
