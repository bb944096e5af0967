"""Simplicial collapses with replayable certificates.

A collapsible pair is a facet together with a free proper face (a face
contained in no other facet); collapsing removes the whole interval
between them.  The filtration built here interpolates between the
neighborhood complex of the containment graph of X and the union of the
closed vertex stars, one simplex of X at a time, and the verifier turns
each stage into an explicit certificate of elementary collapses.

Collapsing, verifying, replaying and rendering all run on the start
complex's mask view (:class:`homcx.simplicial.MaskView`): a simplex is an
int, a certificate step is a pair of ints, and labels are decoded only
for a collapsed core, a stuck complex and the intervals
:meth:`CollapseCertificate.removed` reports.  One engine finds
collapses: a heap of faces, each face holding one packed int, its live
cofacet count above the bits its cofacets add.  A step removes a pair
(sigma, tau), sigma being tau plus one bit, and one walk over the bits
of tau reaches every face whose count falls; the faces left are those
not removed.  Greedy collapse runs it on the whole complex; each stage
of the filtration verifier is one run on what lies outside the next
complex, allowing only cofacets that add the stage's simplex, whose
first pop is the stage's forced pair and whose outcome no order of pops
changes (:func:`verify_kl_collapse_sequence` proves both).  Both start
from one function that reads each face's state off the union of the
facets over it.  Replay is independent of the engine:
every certificate can be replayed from the mask closure of its start
complex alone, each free face checked to be a live face and its
freeness rechecked by :meth:`MaskView.free_facet`.
The filtration verifier closes only the first complex of the filtration;
each stage target is known by its facets, and what lies outside it is
found by submasks of facet masks.  A certificate renders each start
vertex once and its steps from their masks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

from .canon import render_label
from .graphs import Graph, build_g_kx
from .simplicial import SimplicialComplex, bits_of, complex_to_dict, maximal_masks, submasks

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
    """An elementary collapse: a facet and a free face of it, as masks
    of the start complex's view (``cert.start.masks``); decode one with
    ``cert.start.masks.label``."""

    sigma: int  # the facet
    tau: int  # its free face


@dataclass(frozen=True)
class CollapseCertificate:
    """A sequence of collapses, grouped into stages, from start to end.

    A step is its pair (sigma, tau), both masks of the start complex's
    view.  The interval [tau, sigma] it removes is not stored: it is
    derived from that view by :meth:`removed`.
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
        return tuple(map(view.label, view.interval(step.tau, step.sigma)))


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


def _collapse_free_pairs(n: int, state: dict, bits: int) -> list[CollapseStep]:
    """Collapse codimension-one pairs (sigma, tau) inside the faces of
    ``state`` until none is left, taking the canonically first free face
    tau each time, among those whose cofacet sigma adds a bit of ``bits``.

    ``state`` holds an upward-closed part of a downward-closed set of
    masks on ``n`` bits and maps each of its faces to one packed int,
    ``count << n | added``: its live cofacet count and the bits its
    cofacets add.  The cofacet of a count-one face tau is ``tau | added``,
    and it is maximal: were sigma + w in the set, tau + w would be a
    second cofacet.  A heap pops the canonically first count-one face and
    rechecks it; counts only fall, so a face is pushed once, when its
    count reaches one.  A step deletes sigma = tau | a and tau, and the
    faces losing a cofacet are sigma ^ b and tau ^ b for the bits b of
    tau, so one walk over those bits takes ``1 << n`` and b off each, with
    heap keys from tau's: sigma ^ b has tau's popcount, tau ^ b one less.
    ``state`` is consumed: the faces left in it are those not removed,
    counted over what is left.
    """
    one, low = 1 << n, (1 << n) - 1
    # the heap holds the key popcount(f)·2^n − f, from which -key & low
    # recovers f
    heap = [(f.bit_count() << n) - f for f, st in state.items() if st >> n == 1]
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, state.get
    steps: list[CollapseStep] = []
    while heap:
        key = pop(heap)
        tau = -key & low
        st = get(tau)
        if st is None or st >> n != 1 or not st & bits:
            continue
        sigma = tau | st & low
        del state[sigma], state[tau]
        up = key + tau  # popcount(tau)·2^n
        # walked inline: bits_of here lost 60-64 of 100 paired greedy runs on the core N(G)s
        rest = tau
        while rest:
            b = rest & -rest
            rest ^= b
            f = sigma ^ b
            st = get(f)
            if st is not None:
                st = state[f] = (st - one) ^ b
                if st >> n == 1:
                    push(heap, up - f)
            f = tau ^ b
            st = get(f)
            if st is not None:
                st = state[f] = (st - one) ^ b
                if st >> n == 1:
                    push(heap, up - one - f)
        steps.append(CollapseStep(sigma, tau))
    return steps


def _state(tops: list[int], over: list[int], n: int) -> dict:
    """The engine's state of the faces of the complex with facet masks
    ``tops`` under none of the masks ``over``.  Only tops under no mask
    of ``over`` are expanded, each submask tested against the maximal
    parts of ``over`` within its top.  The faces kept are upward-closed,
    so the cofacets of a face f are f plus one bit of U ^ f each, U the
    union of the tops over f: count(f) is the popcount of U ^ f and
    added(f) is U ^ f."""
    union: dict[int, int] = {}
    get = union.get
    for top in tops:
        caps = {top & g for g in over}
        if top in caps:
            continue
        caps = maximal_masks(caps)
        sub = top
        while sub:
            # no caps is greedy collapse's case: the test cost it about 10%
            if not caps or not any(sub | c == c for c in caps):
                union[sub] = get(sub, 0) | top
            sub = (sub - 1) & top
    return {f: (a := u ^ f).bit_count() << n | a for f, u in union.items()}


def greedy_collapse(X: SimplicialComplex) -> tuple[SimplicialComplex, CollapseCertificate]:
    """Collapse free faces until none remain.

    Runs :func:`_collapse_free_pairs` on the whole complex with any
    cofacet allowed, from a state read off the facets alone
    (:func:`_state`, leaving nothing out); the faces the engine leaves
    are the core, the only part decoded to labels.  Running dry is
    conclusive: a face whose only containing facet sits several
    dimensions up always yields a codimension-one free pair against that
    facet, so no free face of any kind survives.
    """
    view = X.masks
    state = _state(list(map(view.mask, X.facets)), (), view.n)
    steps = _collapse_free_pairs(view.n, state, (1 << view.n) - 1)
    result = SimplicialComplex(map(view.label, state))
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


def verify_kl_collapse_sequence(F: Filtration) -> CollapseCertificate:
    """Collapse each K_l onto K_{l+1} by removing the simplices through
    sigma_l, and certify every stage.

    Stage l checks that N(sigma_l) minus sigma_l is a free face, under
    N(sigma_l), outside K_{l+1}; then it is one run of the engine of
    :func:`greedy_collapse` on what K_l has outside K_{l+1}, allowing only
    cofacets that add sigma_l, so freeness alone never lets it eat into
    the target, which has pairs of that shape too.  Raises
    StalledCollapse, carrying the stuck complex, if a check fails or the
    stage cannot reach its target.  The engine takes the forced pair
    (N(sigma_l), N(sigma_l) minus sigma_l) itself:

    1. On every stage :func:`kl_filtration` builds, N(sigma_l) is K_l's
       only facet outside K_{l+1}, so the state is an upward-closed family
       of faces of it, and a face f there has |N(sigma_l)| - |f|
       cofacets.  The count-one faces are N(sigma_l)'s codimension-one
       faces, and only the forced one adds sigma_l: it is the first pop.
    2. Collapse restricted to sigma_l is confluent.  A step
       (tau + sigma_l, tau) never removes or blocks another available
       pair, since an available tau' lacks sigma_l, and a face skipped
       for adding another bit can only fall to no cofacet.  So on a
       hand-built :class:`Filtration` too the verdict, the stalled
       stage, the message, the stuck complex and each stage's set of
       steps are those of taking the forced pair first; only the order
       inside a passing stage can differ.

    Only K_1 is closed, into its view's masks, and that set is carried
    from stage to stage, decoded only for a stuck complex.  Each target
    is known by its facets, each taken as the mask of its vertices in K_1
    (a simplex of K_1 is under a facet exactly when it is under that
    mask): as the set is K_l when stage l starts, the stage's state is
    :func:`_state` of K_l's facets under none of K_{l+1}'s, and the stage
    reaches K_{l+1} when the engine leaves it empty.
    """
    view = F.complexes[0].masks
    mask, bit = view.mask, view.bit
    S = set(view.closure)

    def tops(K: SimplicialComplex) -> list[int]:
        """K's facets as masks of their vertices in K_1."""
        return [sum(bit.get(v, 0) for v in f) for f in K.facets]

    tops_next = tops(F.complexes[0])
    stages: list[tuple] = []
    for l in range(1, F.p - F.q + 1):
        sig = F.order[l - 1]
        sig_bit = bit.get(sig, 0)
        target = F.complexes[l]
        tops_l, tops_next = tops_next, tops(target)
        # S is K_l here, so the state's faces are S minus K_{l+1}, which is
        # upward-closed in S: the engine's pairs never reach into K_{l+1}
        state = _state(tops_l, tops_next, view.n)

        def stall(message: str) -> StalledCollapse:
            return StalledCollapse(
                f"stage {l}: {message}",
                stage=l,
                stuck=SimplicialComplex(map(view.label, S)),
            )

        first_sigma = mask(F.graph.neighbors(sig))
        first_tau = (first_sigma or 0) & ~sig_bit
        if not first_tau or view.free_facet(S, first_tau) != first_sigma:
            raise stall(
                f"the neighborhood of {render_label(sig)} has no free reduced face"
            )
        # first_sigma is in S over first_tau, so first_tau's being outside
        # K_{l+1} puts the whole pair in the state
        if first_tau not in state:
            raise stall("a collapse would remove part of the next complex")
        steps = _collapse_free_pairs(view.n, state, sig_bit)
        S.difference_update(*steps)
        # nothing under a facet of K_{l+1} was removed, so S equals K_{l+1}
        # exactly when it holds those facets and the engine left nothing
        # outside them
        if state or not all(mask(f) in S for f in target.facets):
            raise stall("collapse stalled before reaching the next complex")
        stages.append(tuple(steps))
    return CollapseCertificate(
        start=F.complexes[0], end=F.complexes[-1], stages=tuple(stages)
    )


def replay_certificate(cert: CollapseCertificate) -> bool:
    """Re-run a certificate from its start complex on its mask view,
    revalidating every pair: its free face must be a live face, and its
    facet the one facet over it.  Returns True or raises ValueError."""
    view = cert.start.masks
    S = set(view.closure)
    for n, (sigma, tau) in enumerate(cert.steps):
        # a free face outside S (empty, on a bit the view lacks, or
        # already removed) has no cofacets to assemble
        if tau not in S or view.free_facet(S, tau) != sigma:
            raise ValueError(f"step {n}: pair is not collapsible at replay time")
        S.difference_update(view.interval(tau, sigma))
    # the end complex in the start's view, as the nonempty submasks of its
    # facets' masks, so cert.end itself is never closed
    tops = list(map(view.mask, cert.end.facets))
    if None in tops or S != submasks(tops):
        raise ValueError("replay did not reach the certified end complex")
    return True


def certificate_to_dict(cert: CollapseCertificate) -> dict:
    """The certificate as JSON data.  Each vertex of the start complex is
    rendered once; a step's simplices are rendered from their masks,
    highest bit, so lowest rank, first."""
    view = cert.start.masks
    names = list(map(render_label, view.vertex))

    def render(m: int) -> list[str]:
        return [names[b.bit_length() - 1] for b in reversed(bits_of(m))]

    def step_to_dict(step: CollapseStep) -> dict:
        sigma, tau = step
        return {
            "facet": render(sigma),
            "free_face": render(tau),
            "removed": list(map(render, view.interval(tau, sigma))),
        }

    return {
        "start": complex_to_dict(cert.start),
        "end": complex_to_dict(cert.end),
        "stages": [list(map(step_to_dict, stage)) for stage in cert.stages],
    }
