"""Self-tests for the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import time

import pytest

import run
import spans
import workloads
from spans import Recorder, Span, self_times


def test_self_times_on_a_synthetic_tree():
    tree = [
        Span(0, 0, None, "root", 0.0, 10.0),
        Span(0, 1, 0, "a", 1.0, 4.0),
        Span(0, 2, 1, "a.child", 2.0, 3.0),
        Span(0, 3, 0, "b", 5.0, 9.0),
    ]
    own = self_times(tree)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(own.values()) == 10.0


def test_self_times_merge_overlaps_and_clip_children():
    tree = [
        Span(0, 0, None, "root", 0.0, 10.0),
        Span(0, 1, 0, "x", 1.0, 4.0),
        Span(0, 2, 0, "y", 3.0, 6.0),
        Span(0, 3, 0, "z", 8.0, 12.0),
    ]
    # covered: [1, 6] and [8, 10] -> 7 of 10
    assert self_times(tree)[0] == pytest.approx(3.0)


def _prop_3_1_job(fixtures):
    argv = ["verify", "prop-3.1", "--fixtures", ",".join(fixtures), "--format", "json"]
    return ("verify", "prop-3.1", argv, tuple(fixtures))


@pytest.fixture(scope="module")
def expected():
    return json.loads((run.HERE / "expected.json").read_text())


def test_answer_gate_passes_the_recorded_answers(expected):
    p = run.run_pass([_prop_3_1_job(["point", "delta1"])], expected["certificates"], 60)
    assert (p.attempted, p.failed) == (2, 0)


def test_answer_gate_flags_a_tampered_answer(expected):
    tampered = json.loads(json.dumps(expected["certificates"]))
    tampered["prop-3.1/delta1"]["report"]["artifacts"]["intersections_checked"] += 1
    p = run.run_pass([_prop_3_1_job(["point", "delta1"])], tampered, 60)
    assert (p.attempted, p.failed) == (2, 1)
    assert p.errors == ["prop-3.1/delta1: answer differs from expected.json"]


def test_answer_gate_flags_a_tampered_homology(expected):
    X = workloads.relabel(workloads.homcx.core_fixture("boundary_delta2"), random.Random(0))
    job = ("homology", "rp2", X, 1)  # a circle where rp2 is expected
    p = run.run_pass([job], expected["homology-direct"], 60)
    assert (p.attempted, p.failed) == (1, 1)


def test_guard_counts_a_hung_pass_as_failed(monkeypatch, expected):
    monkeypatch.setattr(run, "run_job", lambda job: time.sleep(5))
    t0 = time.perf_counter()
    p = run.run_pass([_prop_3_1_job(["point", "delta1"])], expected["certificates"], 0.2)
    assert time.perf_counter() - t0 < 2
    assert (p.attempted, p.failed) == (2, 2)
    assert "guard" in p.errors[0]


def test_every_printed_metric_is_declared():
    rec = Recorder()
    rec.begin_pass(1)
    root = rec.open(spans.PASS_SPAN)
    rec.close(root)
    passes = [run.Pass(traced=False), run.Pass(traced=True)]
    values, problems = run.layer_metrics(rec, passes)
    assert problems == []
    units = {name: run.layer_unit(name) for name in values}
    assert set(run.checked_metrics(values, units, True)) == set(run.declared_units(True))
    e2e = dict.fromkeys(run.END_TO_END_UNITS, 1.0)
    assert set(run.checked_metrics(e2e, run.END_TO_END_UNITS, False)) == set(
        run.declared_units(False)
    )


def test_undeclared_metric_is_refused():
    values = dict.fromkeys(run.END_TO_END_UNITS, 1.0)
    values["fail_ratio"] = 0.0
    units = dict(run.END_TO_END_UNITS, fail_ratio="ratio")
    with pytest.raises(RuntimeError):
        run.checked_metrics(values, units, False)


def test_count_cross_check_flags_a_mismatch():
    w = workloads.WORKLOADS["fiber-checks"]
    untraced = run.Pass(traced=False)
    untraced.answers = {
        "quillen/delta2": {"report": {"artifacts": {"pairs_checked": 5}}},
        "prop-4.1/delta2": {"report": {"artifacts": {"etas_checked": 3}}},
    }
    rec = Recorder()
    rec.begin_pass(1)
    rec.add({"hom.pairs_checked": 5, "hom.witnesses": 3})
    rec.begin_pass(3)
    rec.add({"hom.pairs_checked": 5, "hom.witnesses": 3})
    passes = [untraced, run.Pass(traced=True), untraced, run.Pass(traced=True)]
    assert run.count_cross_checks(w, rec, passes) == []
    rec.counts[3]["hom.witnesses"] = 4
    assert len(run.count_cross_checks(w, rec, passes)) == 1
    rec.counts[1]["hom.witnesses"] = 4
    rec.counts[3]["hom.witnesses"] = 4
    assert run.count_cross_checks(w, rec, passes) == [
        "hom.witnesses = 4 but prop-4.1 reports etas_checked = 3"
    ]


def test_install_routes_calls_and_uninstall_restores():
    import homcx.verify

    original = homcx.verify.greedy_collapse
    rec = Recorder()
    rec.begin_pass(0)
    undo = spans.install(rec)
    try:
        assert homcx.verify.greedy_collapse is not original
        homcx.verify.collapsed_profile(homcx.core_fixture("boundary_delta2"))
    finally:
        spans.uninstall(undo)
    assert homcx.verify.greedy_collapse is original
    assert {s.name for s in rec.spans} >= {"collapse.greedy", "homology.homology"}
    assert rec.counts[0]["collapse.greedy_in"] == 6
