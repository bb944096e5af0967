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
One engine finds collapses: a heap of faces keyed by a live cofacet
count, which greedy collapse runs on the whole complex and the
filtration verifier runs stage by stage on what lies outside the next
complex.  Replay is independent of it: every certificate can be
replayed from the closure of its start complex alone, each face's
freeness rechecked by :meth:`MaskView.free_facet`.  The filtration
verifier closes only the first complex of the filtration; each stage
target is known by its facets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

from .canon import render_label
from .graphs import Graph, build_g_kx
from .simplicial import MaskView, SimplicialComplex, complex_to_dict, faces, render_simplex

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


def _collapse_free_pairs(view: MaskView, S: set, within: set, bits: int) -> list[CollapseStep]:
    """Collapse codimension-one pairs (sigma, tau) inside ``within`` until
    none is left, taking the canonically first free face tau each time,
    among those whose cofacet sigma adds a bit of ``bits``.

    S is a downward-closed set of masks of ``view`` and is shrunk in
    place; ``within`` is an upward-closed part of S, so every cofacet of
    a face in it lies in it too.  Each face of ``within`` carries a live
    cofacet count plus the XOR of the vertex bits its cofacets add, so
    the cofacet of a count-one face tau is ``tau | added[tau]``, and it
    is maximal: were sigma + w in S, tau + w would be a second cofacet.
    A heap pops the canonically first count-one face and rechecks it.
    Counts only fall, so a face is pushed once, when its count reaches
    one, and a count-one face whose cofacet adds no bit of ``bits`` never
    becomes eligible.
    """
    label = view.simplex
    count = dict.fromkeys(within, 0)
    added = dict.fromkeys(within, 0)
    for s in within:
        rest = s
        while rest:
            b = rest & -rest
            rest ^= b
            f = s ^ b
            if f in count:
                count[f] += 1
                added[f] ^= b

    # the heap holds key(f) = popcount(f)·2^n − f, from which -key & full
    # recovers f
    key, full = view.key, (1 << view.n) - 1
    heap = [key(f) for f, c in count.items() if c == 1]
    heapq.heapify(heap)
    push = heapq.heappush
    steps: list[CollapseStep] = []

    def unlink(gamma: int) -> None:
        """Take gamma, already out of the counts, off those of its faces."""
        rest = gamma
        while rest:
            b = rest & -rest
            rest ^= b
            f = gamma ^ b
            if f in count:
                c = count[f] = count[f] - 1
                added[f] ^= b
                if c == 1:
                    push(heap, key(f))

    while heap:
        tau = -heapq.heappop(heap) & full
        if count.get(tau) != 1 or not added[tau] & bits:
            continue
        sigma = tau | added[tau]
        del count[sigma], count[tau]
        S.remove(sigma)
        S.remove(tau)
        unlink(sigma)
        unlink(tau)
        steps.append(CollapseStep(label[sigma], label[tau]))
    return steps


def greedy_collapse(X: SimplicialComplex) -> tuple[SimplicialComplex, CollapseCertificate]:
    """Collapse free faces until none remain.

    Runs :func:`_collapse_free_pairs` on the complex's mask view over
    all of it, with any cofacet allowed: each step removes the
    canonically first codimension-one free pair (tau, sigma).  Running
    dry is conclusive: a face whose only containing facet sits several
    dimensions up always yields a codimension-one free pair against that
    facet, so no free face of any kind survives.
    """
    view = X.masks
    S = set(view.simplex)
    steps = _collapse_free_pairs(view, S, S, (1 << view.n) - 1)
    result = SimplicialComplex(map(view.simplex.__getitem__, S))
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
    runs the engine of :func:`greedy_collapse` on what is left outside
    K_{l+1}, with only cofacets that add sigma_l allowed: each step
    collapses (sigma, sigma minus sigma_l) for the canonically first such
    pair whose reduced face is free.  Only simplices outside K_{l+1} are
    eligible: freeness alone does not stop the collapse from eating into
    the target complex, which also has pairs of this shape.  Raises
    StalledCollapse, carrying the stuck complex, if a stage cannot reach
    its target.

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

        def stall(message: str) -> StalledCollapse:
            return StalledCollapse(
                f"stage {l}: {message}",
                stage=l,
                stuck=SimplicialComplex(map(label.__getitem__, S)),
            )

        first_sigma = mask(F.graph.neighbors(sig))
        first_tau = (first_sigma or 0) & ~sig_bit
        if not first_tau or view.free_facet(S, first_tau) != first_sigma:
            raise stall(
                f"the neighborhood of {render_label(sig)} has no free reduced face"
            )
        if not outside.issuperset((first_sigma, first_tau)):
            raise stall("a collapse would remove part of the next complex")
        S.difference_update((first_sigma, first_tau))
        steps = [CollapseStep(label[first_sigma], label[first_tau])]
        # what is left of S minus K_{l+1} is still upward-closed in S, so
        # the engine's pairs never reach into K_{l+1}
        steps += _collapse_free_pairs(view, S, outside & S, sig_bit)
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
