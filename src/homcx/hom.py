"""Multihomomorphism posets, the restriction map, and fiber certificates.

A multihomomorphism G -> H assigns a nonempty set of H-vertices to each
G-vertex so that adjacent G-vertices receive sets whose full product
lies in the edges of H (a loop on a G-vertex forces its image to induce
a reflexive clique).  Pointwise inclusion makes these a poset; its order
complex is the topological object of interest.

Hom(G, H) is enumerated by one pruned depth-first walk, which emits the
elements in the label order of multihoms, the order the poset keeps.

For complete source graphs there is a restriction map dropping the last
vertex.  Over containment graphs of a complex the fibers of that map
have unique maxima, and the common-neighbor witness construction
produces the certifying vertex explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product, repeat
from math import prod
from operator import le
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from .canon import label_key, render_label, sorted_labels
from .graphs import Graph, common_neighborhood, complete_graph
from .homology import HomologyProfile, chain_complex, chain_homology
from .simplicial import Poset, SimplicialComplex, faces, order_complex

__all__ = [
    "DEFAULT_CAP",
    "CapExceeded",
    "Multihom",
    "HomPoset",
    "WitnessTrace",
    "QuillenReport",
    "is_multihom",
    "enumerate_hom",
    "hom_order_complex",
    "hom_homology",
    "restriction_map",
    "fiber_maximum",
    "common_neighbor_witness",
    "check_quillen_conditions",
    "multihom_to_dict",
    "hom_poset_to_dict",
]

DEFAULT_CAP = 10**6


class CapExceeded(Exception):
    """Enumeration tried more images than the cap before finishing;
    ``partial_count`` is the number tried."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(
            f"multihomomorphism enumeration tried {partial_count} images, "
            f"more than the cap of {cap}"
        )
        self.cap = cap
        self.partial_count = partial_count


class Multihom(NamedTuple):
    """Images of the source vertices, in the source's canonical order.

    A named tuple, so hashing and equality run in C; it equals the plain
    tuple ``(domain, images)``, which no Hom container mixes with it."""

    domain: tuple
    images: tuple

    def get(self, u: Any) -> frozenset:
        return self.images[self.domain.index(u)]

    def canonical_key(self) -> tuple:
        return tuple(label_key(img) for img in self.images)

    def pointwise_le(self, other: "Multihom") -> bool:
        if self.domain != other.domain:
            raise ValueError("multihomomorphisms over different domains")
        return all(map(le, self.images, other.images))

    def total_size(self) -> int:
        return sum(len(img) for img in self.images)

    def __str__(self) -> str:
        return "(" + "|".join(render_label(img) for img in self.images) + ")"


def _drops(images: tuple, stop: int) -> Iterator[tuple]:
    """``images`` with one vertex dropped from one of its first ``stop``
    images, each way that leaves no image empty."""
    for i in range(stop):
        img = images[i]
        if len(img) > 1:
            head, tail = images[:i], images[i + 1 :]
            for v in img:
                yield head + (img - {v},) + tail


class HomPoset:
    """All multihomomorphisms G -> H, ordered by pointwise inclusion.

    The elements keep the order they are given in; :func:`enumerate_hom`
    gives them in the label order of multihoms.  ``target_rank`` is the
    target graph's canonical order of its vertices, ``H.rank``."""

    def __init__(self, domain: tuple, elements: Iterable[Multihom], target_rank: Mapping):
        self.domain = tuple(domain)
        self.elements = tuple(elements)
        self.target_rank = target_rank
        self._poset: Poset | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _index(self) -> dict:
        """Each element's position, built on the first lookup."""
        return {m: i for i, m in enumerate(self.elements)}

    def __contains__(self, m: Multihom) -> bool:
        return m in self._index

    def index(self, m: Multihom) -> int:
        return self._index[m]

    def to_poset(self) -> Poset:
        """Covering relations: pointwise inclusion with total size one
        less.  Dropping a vertex from an image of any element lands in
        the poset again, so these are all the covers."""
        if self._poset is not None:
            return self._poset
        upper: dict[Multihom, list] = {m: [] for m in self.elements}
        for m in self.elements:
            for images in _drops(m.images, len(m.images)):
                smaller = Multihom(m.domain, images)
                if smaller not in self._index:
                    raise AssertionError(
                        "pointwise restriction left the poset; "
                        "enumeration was incomplete"
                    )
                # m is appended once per face, in element order
                upper[smaller].append(m)
        self._poset = Poset(self.elements, upper)
        return self._poset


@dataclass(frozen=True)
class WitnessTrace:
    """Record of the common-neighbor construction.

    ``k`` is the 1-based source position whose image attains the minimum
    dimension, ``i1`` the count of minimum-dimension members there.
    ``s_families`` starts with the non-minimum remainder S_0 and then
    lists each family of incomparables that was merged; a trailing empty
    family means the iteration halted with members still unmerged.
    """

    k: int
    i1: int
    tau_chain: tuple
    s_families: tuple
    witness: frozenset


@dataclass(frozen=True)
class QuillenReport:
    n: int
    fibers_checked: int
    pairs_checked: int
    maximum_failures: tuple
    pair_failures: tuple

    @property
    def passed(self) -> bool:
        return not self.maximum_failures and not self.pair_failures


def _as_images(G: Graph, eta: Multihom | Mapping) -> Multihom:
    if isinstance(eta, Multihom):
        if eta.domain != G.vertices:
            raise ValueError("multihomomorphism domain does not match the graph")
        return eta
    images = []
    for u in G.vertices:
        if u not in eta:
            raise ValueError(f"no image assigned to vertex {u!r}")
        img = frozenset(eta[u])
        images.append(img)
    return Multihom(domain=G.vertices, images=tuple(images))


def is_multihom(G: Graph, H: Graph, eta: Multihom | Mapping) -> bool:
    """Whether the assignment satisfies the product condition on every
    edge of G, loops included."""
    m = _as_images(G, eta)
    hverts = set(H.vertices)
    for u, img in zip(m.domain, m.images):
        if not img:
            raise ValueError(f"empty image at vertex {u!r}")
        if not img <= hverts:
            raise ValueError(f"image of {u!r} leaves the target graph")
    for a, b in G.edges:
        if any(not H.has_edge(x, y) for x in m.get(a) for y in m.get(b)):
            return False
    return True


class _Images(dict):
    """Each image's frozenset by its mask over the target's ranks (rank r
    is bit r), built on first use, so equal images are one object."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple):
        super().__init__()
        self.vertices = vertices

    def __missing__(self, mask: int) -> frozenset:
        img = self[mask] = frozenset(v for r, v in enumerate(self.vertices) if mask >> r & 1)
        return img


def _grown_images(
    images: tuple, meets: tuple, pool: int, nbrs: list, interned: _Images,
    has_later: bool, looped: bool,
) -> Iterator[tuple | None]:
    """``images`` and ``meets`` extended by each nonempty subset S of the
    rank mask ``pool`` and its common neighborhood, S grown one vertex at
    a time in rank order, depth first.

    S carries its common neighborhood as a mask, one AND with ``nbrs``
    (the neighbor mask of each rank) per added vertex.  A branch is
    pruned when that neighborhood is empty and the source vertex
    ``has_later`` neighbors (their images must lie in it), or when it is
    ``looped`` and S leaves it (S must be a reflexive clique).  Both pass
    from S to every superset, so no element is lost.  With neither flag
    nothing is pruned.  Every subset tried is yielded, a pruned one as
    None, so the caller counts the work.
    """
    bits = []
    while pool:
        low = pool & -pool
        bits.append(low)
        pool ^= low
    cns = [nbrs[b.bit_length() - 1] for b in bits]
    end = len(bits)
    # (next pool position, S, cn(S)); children are pushed last-first, so
    # the S come out in the order of their sorted ranks
    todo = [(i + 1, bits[i], cns[i]) for i in reversed(range(end))]
    while todo:
        nxt, S, meet = todo.pop()
        if (has_later and not meet) or (looped and meet & S != S):
            yield None
            continue
        yield images + (interned[S],), meets + (meet,)
        if nxt < end:
            todo.extend((i + 1, S | bits[i], meet & cns[i]) for i in reversed(range(nxt, end)))


def enumerate_hom(G: Graph, H: Graph, cap: int | None = None) -> HomPoset:
    """Every multihomomorphism G -> H, by depth-first extension.

    Source vertices are processed in canonical order; the image of the
    next vertex is a nonempty subset of the common neighborhood of the
    images already assigned to its neighbors, the AND of the masks over
    the target's ranks that those images carry.  Each image grows one
    target vertex at a time, in rank order, and a branch is pruned as
    soon as no superset can be an image (:func:`_grown_images`; a vertex
    with no later neighbor and no loop prunes nothing).  Each distinct
    image is one frozenset, shared by every element that has it.
    Extensions wait on a stack, not in recursion, and are taken depth
    first, so the elements come out in the label order of multihoms.

    The cap bounds the work: every partial assignment tried counts, kept
    or pruned, the empty one at the root included, and CapExceeded is
    raised, with that count, once more than ``cap`` have been tried.  Each
    element is an assignment tried, so a run within the cap has at most
    ``cap`` elements.
    """
    cap = DEFAULT_CAP if cap is None else int(cap)
    if cap < 0:
        raise ValueError(f"the enumeration cap must be non-negative, got {cap}")
    gverts = G.vertices
    # the positions of each source vertex's neighbors that come before it
    earlier = [[j for j in range(i) if G.has_edge(u, gverts[j])] for i, u in enumerate(gverts)]
    has_later = [False] * len(gverts)
    for js in earlier:
        for j in js:
            has_later[j] = True
    looped = [G.has_loop(u) for u in gverts]
    nbrs = [sum(1 << H.rank[w] for w in H.neighbors(v)) for v in H.vertices]
    everything = (1 << len(nbrs)) - 1
    interned = _Images(H.vertices)
    found: list[Multihom] = []
    tried = 0
    stack: list[Iterator[tuple | None]] = [iter([((), ())])]
    while stack:
        # siblings come from one iterator; a node with children pushes
        # theirs and breaks, and the loop resumes it when they run out
        for node in stack[-1]:
            tried += 1
            if tried > cap:
                raise CapExceeded(cap=cap, partial_count=tried)
            if node is None:
                continue
            images, meets = node
            idx = len(images)
            if idx == len(gverts):
                found.append(Multihom(domain=gverts, images=images))
                continue
            # cn(A | B) = cn(A) & cn(B): one AND per fixed image
            pool = everything
            for j in earlier[idx]:
                pool &= meets[j]
            if not pool:
                continue
            stack.append(
                _grown_images(images, meets, pool, nbrs, interned, has_later[idx], looped[idx])
            )
            break
        else:
            stack.pop()
    return HomPoset(domain=gverts, elements=found, target_rank=H.rank)


def hom_order_complex(P: HomPoset) -> SimplicialComplex:
    """Order complex of the multihomomorphism poset; vertices are the
    poset elements themselves.  This is the order-complex route, kept as
    the tests' oracle: the suites take Hom homology from its cells."""
    return order_complex(P.to_poset())


def hom_homology(P: HomPoset) -> HomologyProfile:
    """Cellular homology of Hom(G, H), in dimensions 0 .. its dimension.

    Hom(G, H) is a polyhedral complex whose cell eta is the product of
    simplices on its images and whose face poset is P, so its cellular
    homology is that of the order complex of P.  The boundary is the
    product rule of :func:`~homcx.homology.chain_complex`, with each image
    sorted by the target graph's canonical order of its vertices.
    """
    cells, columns = chain_complex((m.images for m in P), P.target_rank)
    return chain_homology([len(by_dim) for by_dim in cells], columns)


def restriction_map(eta: Multihom) -> Multihom:
    """Forget the last source vertex (complete source graphs, n >= 3)."""
    if len(eta.domain) < 3:
        raise ValueError("restriction needs a source on at least 3 vertices")
    return Multihom(domain=eta.domain[:-1], images=eta.images[:-1])


def fiber_maximum(rho: Multihom, H: Graph) -> Multihom:
    """Extend rho by the intersection of the common neighborhoods of its
    images: the unique maximum of the restriction fiber over rho."""
    meet = common_neighborhood(H, frozenset().union(*rho.images))
    if not meet:
        raise ValueError(
            "common-neighborhood intersection is empty; the fiber has no maximum"
        )
    n = len(rho.domain) + 1
    if rho.domain != tuple(range(1, n)):
        raise ValueError("fiber extension expects a complete source on 1..n-1")
    return Multihom(domain=tuple(range(1, n + 1)), images=rho.images + (meet,))


def _fusion(k: int, chosen: frozenset, low: int, H: Graph) -> WitnessTrace:
    """The fusion on image ``k``, ``chosen``, whose smallest members have
    ``low`` vertices: fuse those into tau_0, then repeatedly fuse in
    every remaining member incomparable with the current tau."""
    if len(chosen) > 1:
        # H.vertices is in label_key order, which among equal sizes is the
        # canonical simplex order; the second sort is stable
        members = sorted(sorted(chosen, key=H.rank.__getitem__), key=len)
    else:
        members = [*chosen]
    i1 = [*map(len, members)].count(low)
    tau = frozenset().union(*members[:i1])
    tau_chain = [tau]
    remaining = members[i1:]
    s_families: list[tuple] = [tuple(remaining)]
    # each nonempty family removes a member, so the loop ends
    while remaining:
        family = tuple(
            s for s in remaining if not (s <= tau or tau <= s)
        )
        s_families.append(family)
        if not family:
            break
        tau = tau | frozenset().union(*family)
        tau_chain.append(tau)
        merged = set(family)
        remaining = [s for s in remaining if s not in merged]
    return WitnessTrace(
        k=k,
        i1=i1,
        tau_chain=tuple(tau_chain),
        s_families=tuple(s_families),
        witness=tau,
    )


def common_neighbor_witness(eta: Multihom, H: Graph, memo: dict | None = None) -> WitnessTrace:
    """Build a common neighbor of all images of eta constructively.

    Pick the image of smallest minimum dimension, fuse its
    minimum-dimension members into tau_0, then repeatedly fuse in every
    remaining member incomparable with the current tau.  The resulting
    vertex is comparable with every member of every image; membership in
    the actual common neighborhood is asserted, image by image, before
    returning.

    The fusion depends only on k and the k-th image.  ``memo``, a dict
    the caller keeps for one target graph H, holds each image's
    validated minimum member size and each fusion by (k, image), so
    etas that share them fuse once; the neighborhood check runs on every
    call.
    """
    if memo is None:
        memo = {}
    images = eta.images
    mins = []
    for img in images:
        low = memo.get(img)
        if low is None:
            if not all(map(isinstance, img, repeat(frozenset))):
                raise ValueError("witness construction needs simplex-valued target vertices")
            low = memo[img] = min(map(len, img))
        mins.append(low)
    low = min(mins)
    k = mins.index(low) + 1
    key = (k, images[k - 1])
    trace = memo.get(key)
    if trace is None:
        trace = memo[key] = _fusion(k, images[k - 1], low, H)
    witness = trace.witness
    # adjacency is symmetric: witness lies in cn(img) iff img lies in N(witness)
    near = H.neighbors(witness) if witness in H.rank else frozenset()
    for i, img in enumerate(images, start=1):
        if not img <= near:
            raise AssertionError(
                f"constructed witness {render_label(witness)} misses the "
                f"neighborhood of image {i}"
            )
    return trace


def check_quillen_conditions(n: int, H: Graph, cap: int | None = None) -> QuillenReport:
    """Fiber checks for the restriction from complete sources.

    (A surrogate) every fiber of the restriction has a unique maximum,
    and it is the one the common-neighborhood extension predicts.
    (B) for every rho below a restricted eta, the fiber part weakly
    below eta has a maximum.  Each member of that part is rho extended
    by a subset of eta's last image, so (B) asks only whether rho
    extended by eta's last image is a multihomomorphism.

    On a complete enumeration only "no candidate maximum" (the images of
    rho have no common neighbor) can fail.  The other failures fire only
    when the enumeration lost an element: rho extended by its common
    neighborhood is a multihom above its fiber, and the (B) candidate is
    a sub-multihom of eta.

    The rho below a restricted eta are the products of nonempty subsets
    of its images.  Two checks, one pass over P = Hom(K_n, H) each,
    settle every (B) pair at once: every restricted eta lies in
    Q = Hom(K_{n-1}, H), and P is closed under dropping one vertex from
    an image before the last.  Then each candidate is reached from eta
    by such drops, so it lies in P, and rho, its restriction, lies in Q.
    No pair fails, and eta has prod_{i<n} (2^|eta_i| - 1) of them.

    When either check fails, the enumeration lost an element, and the
    pairs are generated one by one: a rho missing from Q raises an
    AssertionError, and a candidate missing from P is a pair failure.
    Each image's subsets are sorted once by their target ranks, so the
    products, and with them the pairs and failures, come in Q's order,
    as a scan over all of Q would list them.
    """
    if n < 3:
        raise ValueError("fiber checks need n >= 3")
    P = enumerate_hom(complete_graph(n), H, cap=cap)
    Q = enumerate_hom(complete_graph(n - 1), H, cap=cap)
    fibers: dict[tuple, list[Multihom]] = {m.images[:-1]: [] for m in P}
    for m in P:
        fibers[m.images[:-1]].append(m)
    maximum_failures = []
    for rho in Q:
        # what is left in fibers afterwards are restrictions missing from Q
        fiber = fibers.pop(rho.images, [])
        try:
            top = fiber_maximum(rho, H)
        except ValueError:
            maximum_failures.append((str(rho), "no candidate maximum"))
            continue
        if top not in P:
            maximum_failures.append((str(rho), "predicted maximum is not a multihom"))
            continue
        if any(not m.pointwise_le(top) for m in fiber):
            maximum_failures.append((str(rho), "fiber member above predicted maximum"))
    pair_failures = []
    if not fibers and all(
        Multihom(P.domain, images) in P for eta in P for images in _drops(eta.images, n - 1)
    ):
        pairs = sum(prod((1 << len(img)) - 1 for img in eta.images[:-1]) for eta in P)
    else:
        pairs = 0
        rank = Q.target_rank.__getitem__
        # faces(img) follows frozenset order, which hash randomisation moves
        subsets = cache(lambda img: sorted(faces(img), key=lambda f: sorted(map(rank, f))))
        for eta in P:
            for images in product(*map(subsets, eta.images[:-1])):
                rho = Multihom(domain=Q.domain, images=images)
                if rho not in Q:
                    raise AssertionError(
                        "a sub-multihomomorphism is missing from the poset; "
                        "enumeration was incomplete"
                    )
                pairs += 1
                candidate = Multihom(domain=P.domain, images=images + (eta.images[-1],))
                if candidate not in P:
                    pair_failures.append((str(rho), str(eta), "candidate not a multihom"))
    return QuillenReport(
        n=n,
        fibers_checked=len(Q),
        pairs_checked=pairs,
        maximum_failures=tuple(maximum_failures),
        pair_failures=tuple(pair_failures),
    )


def multihom_to_dict(m: Multihom) -> dict:
    return {
        render_label(u): [render_label(v) for v in sorted_labels(img)]
        for u, img in zip(m.domain, m.images)
    }


def hom_poset_to_dict(P: HomPoset) -> dict:
    covers = sorted((P.index(a), P.index(b)) for a, b in P.to_poset().cover_pairs())
    return {
        "domain": [render_label(u) for u in P.domain],
        "elements": [multihom_to_dict(m) for m in P.elements],
        "covers": [list(c) for c in covers],
    }
