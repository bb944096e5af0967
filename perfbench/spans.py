"""Spans and counters recorded around homcx's public entry points.

Nothing under ``src/`` is changed.  :func:`install` rebinds each traced
function in every ``homcx`` module namespace that holds it (so calls
between homcx modules go through the wrapper too) and patches two
memoising methods on their classes; :func:`uninstall` puts the originals
back.  Spans stay in memory in a :class:`Recorder` until the run ends.

``canon.label_key`` is deliberately not wrapped: it runs once per
comparison, and a wrapper there would cost more than the work it times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    pass_id: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Recorder:
    """In-memory span tree plus per-pass integer counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[Span] = []
        self.pass_id = 0

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts[pass_id] = {}

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self.pass_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def unwind_to(self, span: Span) -> None:
        """Close every span opened inside ``span`` and left open."""
        while self._stack and self._stack[-1] is not span:
            self.close(self._stack[-1])

    def add(self, counts: dict) -> None:
        bucket = self.counts[self.pass_id]
        for name, value in counts.items():
            bucket[name] = bucket.get(name, 0) + value

    def dump(self, path: str) -> None:
        """Write every span, one JSON array per line:
        [pass, id, parent, name, start, end]."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.pass_id, s.span_id, s.parent, s.name, s.start, s.end]))
                fh.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so the result never double-subtracts.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.span_id] = (s.end - s.start) - covered
    return out


# --- counters taken from results, so no work is repeated --------------------

def _greedy_counts(args, result):
    core, cert = result
    return {
        "collapse.greedy_steps": len(cert.steps),
        "collapse.greedy_in": len(args[0]),
        "collapse.survivors": len(core),
    }


def _homology_counts(args, result):
    """Sum of f_{k-1} f_k is the dense work size; the boundary ranks
    follow from f_k = beta_k + r_k + r_{k+1} with r_0 = 0."""
    X = args[0]
    if X.dim < 0:
        return {}
    f = X.f_vector()
    betti = list(result.betti)
    if result.reduced:
        betti[0] += 1
    ranks = [0]
    for k in range(len(f)):
        ranks.append(f[k] - ranks[k] - betti[k])
    return {
        "homology.matrix_cells": sum(f[k - 1] * f[k] for k in range(1, len(f))),
        "homology.rank_total": sum(ranks),
    }


# (module, attribute, span name, self-time metric, counter hook)
FUNCTIONS = (
    ("graphs", "build_g_kx", "graphs.build_g_kx", "graphs.build_g_kx_s",
     lambda a, r: {"graphs.containment_vertices": len(r.vertices)}),
    ("graphs", "neighborhood_complex", "graphs.neighborhood_complex",
     "graphs.neighborhood_complex_s", None),
    ("hom", "enumerate_hom", "hom.enumerate", "hom.enumerate_s",
     lambda a, r: {"hom.elements": len(r)}),
    ("hom", "check_quillen_conditions", "hom.fiber_checks", "hom.fiber_checks_s",
     lambda a, r: {"hom.pairs_checked": r.pairs_checked}),
    ("hom", "common_neighbor_witness", "hom.witness", "hom.witness_s",
     lambda a, r: {"hom.witnesses": 1}),
    ("hom", "hom_order_complex", "simplicial.order_complex",
     "simplicial.order_complex_s", None),
    ("simplicial", "order_complex", "simplicial.order_complex",
     "simplicial.order_complex_s", lambda a, r: {"simplicial.chains": len(r.facets)}),
    ("simplicial", "barycentric_subdivision", "simplicial.subdivision",
     "simplicial.subdivision_s", None),
    ("collapse", "greedy_collapse", "collapse.greedy", "collapse.greedy_s", _greedy_counts),
    ("collapse", "kl_filtration", "collapse.kl_filtration", "collapse.kl_filtration_s", None),
    ("collapse", "verify_kl_collapse_sequence", "collapse.kl_verify", "collapse.kl_verify_s",
     lambda a, r: {"collapse.kl_steps": len(r.steps)}),
    ("collapse", "replay_certificate", "collapse.replay", "collapse.replay_s", None),
    ("collapse", "certificate_to_dict", "collapse.cert_render", "collapse.cert_render_s", None),
    ("homology", "homology", "homology.homology", "homology.homology_s", _homology_counts),
    ("nerve", "star_cover", "nerve.star_cover", "nerve.star_cover_s", None),
    ("nerve", "nerve_of_cover", "nerve.nerve", "nerve.nerve_s", None),
    ("nerve", "verify_nerve_theorem_hypotheses", "nerve.hypotheses", "nerve.hypotheses_s",
     lambda a, r: {"nerve.intersections_checked": r.intersections_checked}),
    ("verify", "run_suite", "verify.run_suite", "verify.self_s", None),
    ("cli", "main", "cli.main", "cli.self_s", None),
)

# Memoising methods: only a call that does the work opens a span.  The
# private cache attribute is read, never written.
# (module, class, method, cache attribute, span name, self-time metric, counter hook)
METHODS = (
    ("simplicial", "SimplicialComplex", "simplex_set", "_simplex_set",
     "simplicial.simplex_set", "simplicial.simplex_set_s",
     lambda a, r: {"simplicial.simplices": len(r)}),
    ("hom", "HomPoset", "to_poset", "_poset", "hom.to_poset", "hom.to_poset_s",
     lambda a, r: {"hom.covers": sum(len(u) for u in r.upper_covers.values())}),
)

# Spans the benchmark itself opens: one root per pass, one per answer check.
PASS_SPAN = "bench.pass"
CHECK_SPAN = "bench.check"

SELF_METRIC = {f[2]: f[3] for f in FUNCTIONS}
SELF_METRIC.update({m[4]: m[5] for m in METHODS})
SELF_METRIC.update({PASS_SPAN: "bench.self_s", CHECK_SPAN: "bench.check_s"})

COUNTERS = (
    "graphs.containment_vertices", "hom.elements", "hom.covers", "hom.pairs_checked",
    "hom.witnesses", "simplicial.chains", "simplicial.simplices", "collapse.greedy_steps",
    "collapse.greedy_in", "collapse.survivors", "collapse.kl_steps",
    "nerve.intersections_checked", "homology.matrix_cells", "homology.rank_total",
)


def _wrap(fn, name, hook, rec: Recorder, cache_attr=None):
    """``fn`` inside a span named ``name``; with ``cache_attr``, a method
    whose result is already cached on ``self`` runs without a span."""

    def traced(*args, **kwargs):
        if cache_attr is not None and getattr(args[0], cache_attr) is not None:
            return fn(*args, **kwargs)
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                rec.add(hook(args, result))
            return result
        finally:
            rec.close(span)

    traced.__wrapped__ = fn
    return traced


def _homcx_modules():
    return [m for n, m in list(sys.modules.items()) if n == "homcx" or n.startswith("homcx.")]


def install(rec: Recorder) -> list:
    """Route every traced entry point through ``rec``.  Returns the undo
    list for :func:`uninstall`."""
    undo = []
    modules = _homcx_modules()
    for mod_name, attr, name, _, hook in FUNCTIONS:
        original = getattr(importlib.import_module(f"homcx.{mod_name}"), attr)
        wrapper = _wrap(original, name, hook, rec)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
    for mod_name, cls_name, meth, cache_attr, name, _, hook in METHODS:
        cls = getattr(importlib.import_module(f"homcx.{mod_name}"), cls_name)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, _wrap(original, name, hook, rec, cache_attr))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
