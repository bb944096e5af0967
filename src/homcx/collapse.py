"""Simplicial collapses with replayable certificates.

A collapsible pair is a facet together with a free proper face (a face
contained in no other facet); collapsing removes the whole interval
between them.  The filtration built here interpolates between the
neighborhood complex of the containment graph of X and the union of the
closed vertex stars, one simplex of X at a time, and the verifier turns
each stage into an explicit certificate of elementary collapses.

Collapsing, verifying and replaying all run on the start complex's mask
view (:class:`homcx.simplicial.MaskView`): a simplex is an int, and
labels are looked up only for certificate steps and collapsed cores.
Every certificate can be replayed from the closure of its start complex
alone.  The filtration verifier closes only the first complex of the
filtration; each stage target is known by its facets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

from .canon import render_label
from .graphs import Graph, build_g_kx
from .simplicial import SimplicialComplex, complex_to_dict, faces, render_simplex

__all__ = [
    "CollapseStep",
    "CollapseCertificate",
    "Filtration",
    "StalledCollapse",
    "greedy_collapse",
    "kl_filtration",
    "verify_kl_collapse_sequence",
    "replay_certificate",
    "certificate_to_dict",
]


class StalledCollapse(Exception):
    """A prescribed collapse scheme could not reach its target."""

    def __init__(self, message: str, stage: int | None = None,
                 stuck: SimplicialComplex | None = None):
        super().__init__(message)
        self.stage = stage
        self.stuck = stuck


class CollapseStep(NamedTuple):
    """An elementary collapse: a facet and a free face of it."""

    sigma: frozenset  # the facet
    tau: frozenset  # its free face


@dataclass(frozen=True)
class CollapseCertificate:
    """A sequence of collapses, grouped into stages, from start to end.

    A step is its pair (sigma, tau), both simplices of the start
    complex.  The interval [tau, sigma] it removes is not stored: it is
    derived from the start complex's mask view by :meth:`removed`.
    """

    start: SimplicialComplex
    end: SimplicialComplex
    stages: tuple  # tuple of tuples of CollapseStep

    @property
    def steps(self) -> tuple:
        return tuple(s for stage in self.stages for s in stage)

    def removed(self, step: CollapseStep) -> tuple:
        """The interval [tau, sigma] of one of this certificate's steps,
        in canonical order, as simplices of the start complex."""
        view = self.start.masks
        masks = view.interval(view.mask(step.tau), view.mask(step.sigma))
        return tuple(map(view.simplex.__getitem__, masks))

    def removed_in_stage(self, i: int) -> frozenset:
        return frozenset(s for step in self.stages[i] for s in self.removed(step))


@dataclass(frozen=True)
class Filtration:
    """Nested complexes K_1 .. K_{p-q+1} on the simplices of X.

    ``order`` lists the vertices of the containment graph by dimension
    descending; the last q entries are the vertices of X.  K_l is
    generated by the neighborhoods of the tail of the order starting at
    position l.
    """

    order: tuple
    p: int
    q: int
    complexes: tuple
    graph: Graph


def greedy_collapse(X: SimplicialComplex) -> tuple[SimplicialComplex, CollapseCertificate]:
    """Collapse free faces until none remain.

    Runs on the complex's mask view.  Each simplex carries a live
    cofacet count plus the XOR of the vertex bits its cofacets add, so
    the unique cofacet of a count-one face tau is ``tau | added[tau]``.  A
    heap pops the canonically first face whose lone cofacet is maximal;
    stale entries are revalidated on pop.  Each step removes a
    codimension-one pair, whose interval is just (tau, sigma).  Running
    dry is conclusive: a face whose only containing facet sits several
    dimensions up always yields a codimension-one free pair against that
    facet, so no free face of any kind survives.
    """
    view = X.masks
    label = view.simplex
    S = set(label)
    count = dict.fromkeys(S, 0)
    added = dict.fromkeys(S, 0)
    for s in S:
        rest = s
        while rest:
            b = rest & -rest
            rest ^= b
            f = s ^ b
            if f:
                count[f] += 1
                added[f] ^= b

    # the heap holds key(f) = popcount(f)·2^n − f, from which -key & full
    # recovers f
    key, full = view.key, (1 << view.n) - 1
    heap = [key(f) for f in S if count[f] == 1]
    heapq.heapify(heap)
    push = heapq.heappush
    steps: list[CollapseStep] = []

    def unlink(gamma: int) -> None:
        """Take gamma, already out of S, off the counts of its faces."""
        rest = gamma
        while rest:
            b = rest & -rest
            rest ^= b
            f = gamma ^ b
            if f not in S:
                continue
            c = count[f] = count[f] - 1
            added[f] ^= b
            if c == 1:
                push(heap, key(f))
            elif c == 0:
                # f just became maximal; its count-one faces may be free now
                below = f
                while below:
                    w = below & -below
                    below ^= w
                    g = f ^ w
                    if g in S and count[g] == 1:
                        push(heap, key(g))

    while heap:
        tau = -heapq.heappop(heap) & full
        if tau not in S or count[tau] != 1:
            continue
        sigma = tau | added[tau]
        if count[sigma]:
            continue
        # tau leaves with sigma, so it is never pushed as a new maximum
        S.remove(sigma)
        S.remove(tau)
        unlink(sigma)
        unlink(tau)
        steps.append(CollapseStep(label[sigma], label[tau]))
    result = SimplicialComplex(map(label.__getitem__, S))
    cert = CollapseCertificate(start=X, end=result, stages=(tuple(steps),))
    return result, cert


def kl_filtration(X: SimplicialComplex) -> Filtration:
    """The nested neighborhood-generated complexes of the containment
    graph of X, indexed from all simplices down to the vertex stars."""
    G = build_g_kx(X, 1)
    # G.vertices is in label_key order, which among equal sizes is the
    # canonical simplex order of X
    order = tuple(sorted(G.vertices, key=lambda s: -len(s)))
    p = len(order)
    q = sum(1 for s in order if len(s) == 1)
    if p == q:
        raise ValueError("filtration undefined: no positive-dimensional simplex")
    # K_l is generated by the neighborhoods of order[l - 1:].  From the last
    # stage (the vertex stars) back, K_l is generated by K_{l+1}'s facets
    # and N(sigma_l).
    K = SimplicialComplex(G.neighbors(v) for v in order[p - q :])
    complexes = [K]
    for sigma in reversed(order[: p - q]):
        K = SimplicialComplex([*K.facets, G.neighbors(sigma)])
        complexes.append(K)
    complexes.reverse()
    return Filtration(order=order, p=p, q=q, complexes=tuple(complexes), graph=G)


def _faces_outside(A: SimplicialComplex, B: SimplicialComplex) -> set:
    """The simplices of A that lie under no facet of B.

    Only a facet of A that lies under no facet of B can have such faces,
    so only those facets are expanded.
    """
    return {
        s for f in A.facets if not B.covers(f) for s in faces(f) if not B.covers(s)
    }


def verify_kl_collapse_sequence(F: Filtration) -> CollapseCertificate:
    """Collapse each K_l onto K_{l+1} by removing the simplices through
    sigma_l, and certify every stage.

    Stage l first collapses (N(sigma_l), N(sigma_l) minus sigma_l), then
    repeatedly collapses (sigma, sigma minus sigma_l) for the canonically
    first sigma whose reduced face is free, restarting after each
    removal.  Only simplices outside K_{l+1} are eligible: freeness alone
    does not stop the scan from eating into the target complex, which
    also has pairs of this shape.  Raises StalledCollapse, carrying the
    stuck complex, if a stage cannot reach its target.

    Only K_1 is closed into a simplex set; that set, as masks of K_1's
    view, is carried from stage to stage.  Each target K_{l+1} is known
    by its facets: since the set equals K_l when stage l starts, what
    lies outside K_{l+1} is exactly the faces of K_l's facets under no
    facet of K_{l+1}, which on a genuine filtration are faces of
    N(sigma_l) alone.
    """
    view = F.complexes[0].masks
    label, mask = view.simplex, view.mask
    S = set(label)
    stages: list[tuple] = []
    for l in range(1, F.p - F.q + 1):
        sig = F.order[l - 1]
        sig_bit = view.bit.get(sig, 0)
        target = F.complexes[l]
        # S is K_l here, so this is S minus K_{l+1}; a face on a vertex K_1
        # lacks is in neither
        outside = {mask(s) for s in _faces_outside(F.complexes[l - 1], target)}
        outside.discard(None)
        steps: list[CollapseStep] = []

        def stall(message: str) -> StalledCollapse:
            return StalledCollapse(
                f"stage {l}: {message}",
                stage=l,
                stuck=SimplicialComplex(map(label.__getitem__, S)),
            )

        def apply(sigma: int, tau: int):
            removed = view.interval(tau, sigma)
            if not outside.issuperset(removed):
                raise stall("a collapse would remove part of the next complex")
            S.difference_update(removed)
            steps.append(CollapseStep(label[sigma], label[tau]))

        first_sigma = mask(F.graph.neighbors(sig))
        first_tau = (first_sigma or 0) & ~sig_bit
        if not first_tau or view.free_facet(S, first_tau) != first_sigma:
            raise stall(
                f"the neighborhood of {render_label(sig)} has no free reduced face"
            )
        apply(first_sigma, first_tau)
        candidates = sorted((s for s in outside if s & sig_bit and s in S), key=view.key)
        progressed = True
        while progressed:
            progressed = False
            for sigma in candidates:
                if sigma not in S:
                    continue
                tau = sigma ^ sig_bit
                if not tau or tau not in outside:
                    continue
                if view.free_facet(S, tau) == sigma:
                    apply(sigma, tau)
                    progressed = True
                    break
        # nothing under a facet of K_{l+1} was removed, so S equals K_{l+1}
        # exactly when it holds those facets and nothing outside them
        if not all(mask(f) in S for f in target.facets) or not S.isdisjoint(outside):
            raise stall("collapse stalled before reaching the next complex")
        stages.append(tuple(steps))
    return CollapseCertificate(
        start=F.complexes[0], end=F.complexes[-1], stages=tuple(stages)
    )


def replay_certificate(cert: CollapseCertificate) -> bool:
    """Re-run a certificate from its start complex on its mask view,
    revalidating every pair.  Returns True or raises ValueError."""
    view = cert.start.masks
    label, mask = view.simplex, view.mask
    S = set(label)
    for n, step in enumerate(cert.steps):
        tau = mask(step.tau)
        sigma = None if tau is None else view.free_facet(S, tau)
        if sigma is None or label[sigma] != step.sigma:
            raise ValueError(f"step {n}: pair is not collapsible at replay time")
        S.difference_update(view.interval(tau, sigma))
    # the end complex in the start's view, as the nonempty submasks of its
    # facets' masks, so cert.end itself is never closed
    tops = list(map(mask, cert.end.facets))
    end = set()
    for top in tops:
        sub = top  # None, for a vertex the start lacks, adds nothing
        while sub:
            end.add(sub)
            sub = (sub - 1) & top
    if None in tops or S != end:
        raise ValueError("replay did not reach the certified end complex")
    return True


def certificate_to_dict(cert: CollapseCertificate) -> dict:
    X = cert.start
    return {
        "start": complex_to_dict(cert.start),
        "end": complex_to_dict(cert.end),
        "stages": [
            [
                {
                    "facet": render_simplex(X, step.sigma),
                    "free_face": render_simplex(X, step.tau),
                    "removed": [render_simplex(X, r) for r in cert.removed(step)],
                }
                for step in stage
            ]
            for stage in cert.stages
        ],
    }
