"""The benchmark's tracer (perfbench/spans.py) around the Hom suites: its
counters must equal what the reports say, or the benchmark's count
checks would fail on a correct program."""

import sys
from pathlib import Path

import pytest

import homcx.verify
from homcx import build_g_kx, complete_graph, core_fixture, enumerate_hom

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

FIXTURES = ("point", "delta1", "boundary_delta2")


@pytest.fixture
def traced():
    """Run a suite with the tracer installed; returns its report
    artifacts and the counters of its one pass."""
    rec = spans.Recorder()
    undo = spans.install(rec)

    def run(suite, pass_id):
        rec.begin_pass(pass_id)
        result = homcx.verify.run_suite(suite, fixtures=FIXTURES)
        assert result.passed
        return [r.artifacts for r in result.reports], rec.counts[pass_id]

    try:
        yield run
    finally:
        spans.uninstall(undo)


def total(artifacts, key):
    return sum(a[key] for a in artifacts)


def test_counters_match_the_hom_reports(traced):
    artifacts, counts = traced("lemma-hom-nbhd", 0)
    assert counts["hom.elements"] == total(artifacts, "hom_k2_elements") == 1 + 21 + 72

    artifacts, counts = traced("prop-4.1", 1)
    # every eta of Hom(K2) and Hom(K3) gets one witness
    assert counts["hom.witnesses"] == total(artifacts, "etas_checked") == 346
    assert counts["hom.elements"] == counts["hom.witnesses"]

    # Hom(K3) and Hom(K2) once each per fixture; Q's elements are the fibers
    sizes = [len(enumerate_hom(complete_graph(3), build_g_kx(core_fixture(f), 1))) for f in FIXTURES]
    artifacts, counts = traced("quillen", 2)
    assert counts["hom.pairs_checked"] == total(artifacts, "pairs_checked")
    assert counts["hom.elements"] == sum(sizes) + total(artifacts, "fibers_checked")


def test_uninstall_puts_the_originals_back():
    original = homcx.verify.common_neighbor_witness
    undo = spans.install(spans.Recorder())
    assert homcx.verify.common_neighbor_witness.__wrapped__ is original
    spans.uninstall(undo)
    assert homcx.verify.common_neighbor_witness is original
    assert homcx.hom.common_neighbor_witness is original
