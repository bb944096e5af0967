"""Multihomomorphism posets, the restriction map, and fiber certificates.

A multihomomorphism G -> H assigns a nonempty set of H-vertices to each
G-vertex so that adjacent G-vertices receive sets whose full product
lies in the edges of H (a loop on a G-vertex forces its image to induce
a reflexive clique).  Pointwise inclusion makes these a poset; its order
complex is the topological object of interest.

Every image is an int mask over the target's canonical order: bit r is
the target vertex of rank r.  Inclusion is a subset test on masks,
common neighborhoods are ANDs of neighbor masks, and a face of an image
drops one bit.  Labels are decoded only where a user sees them: ``str``,
the JSON forms and failure strings.  The chain complex builder takes
the image masks as they are.

Hom(G, H) is enumerated by one pruned depth-first walk, which emits the
elements in the label order of multihoms, the order the poset keeps.

For complete source graphs there is a restriction map dropping the last
vertex.  Over containment graphs of a complex the fibers of that map
have unique maxima, and the common-neighbor witness construction
produces the certifying vertex explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import product
from math import prod
from operator import or_
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from .canon import render_label
from .graphs import Graph, complete_graph
from .homology import HomologyProfile, chain_complex, chain_homology
from .simplicial import Poset, SimplicialComplex, bits_of, order_complex, submasks

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


def _ranks(mask: int) -> tuple:
    """The ranks of the bits of ``mask``, ascending."""
    return tuple([b.bit_length() - 1 for b in bits_of(mask)])


def _decode(target: tuple, mask: int) -> frozenset:
    """The vertex set of an image mask over ``target``."""
    return frozenset(map(target.__getitem__, _ranks(mask)))


def _encode(rank: Mapping, labels: Iterable[Any]) -> int:
    """The mask of a vertex set over a target with ranks ``rank``; a
    KeyError names a vertex the target does not have."""
    return sum(1 << rank[v] for v in set(labels))


class Multihom(NamedTuple):
    """Images of the source vertices, in the source's canonical order,
    as masks over ``target``, the target graph's vertices in canonical
    order: bit r of an image is the vertex of rank r.

    A named tuple, so hashing and equality run in C; it equals the plain
    tuple ``(domain, images, target)``, which no Hom container mixes with
    it.  Hashing walks ``target`` too, so it costs O(|V(H)|); a lookup
    that only needs the images keys by ``images``, as
    :class:`HomPoset` does."""

    domain: tuple
    images: tuple
    target: tuple

    def get(self, u: Any) -> frozenset:
        """The image of ``u``, as a set of target vertices."""
        return _decode(self.target, self.images[self.domain.index(u)])

    def canonical_key(self) -> tuple:
        """Each image's ranks, ascending: the ranks follow the label
        order, so this sorts as the images' label keys do."""
        return tuple(map(_ranks, self.images))

    def total_size(self) -> int:
        return sum(img.bit_count() for img in self.images)

    def __str__(self) -> str:
        # each image's labels in rank order, the order render_label sorts in
        return "(" + "|".join(
            "{" + ",".join(render_label(self.target[r]) for r in _ranks(img)) + "}"
            for img in self.images
        ) + ")"


# Multihom from one (domain, images, target) tuple, without the Python
# frame of the named tuple's __new__
_multihom = partial(tuple.__new__, Multihom)


def _drops(images: tuple, stop: int) -> Iterator[tuple]:
    """``images`` with one vertex dropped from one of its first ``stop``
    images, each way that leaves no image empty."""
    for i in range(stop):
        img = images[i]
        if img & (img - 1):
            head, tail = images[:i], images[i + 1 :]
            for low in bits_of(img):
                yield head + (img ^ low,) + tail


class HomPoset:
    """All multihomomorphisms G -> H, ordered by pointwise inclusion.

    The elements keep the order they are given in; :func:`enumerate_hom`
    gives them in the label order of multihoms.  ``target`` is the
    target graph's vertices in canonical order, ``H.vertices``, over
    which the images are masks."""

    def __init__(self, domain: tuple, elements: Iterable[Multihom], target: tuple):
        self.domain = tuple(domain)
        self.elements = tuple(elements)
        self.target = target
        self._poset: Poset | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def _index(self) -> dict:
        """Each element's position by its images, built on the first
        lookup."""
        return {m.images: i for i, m in enumerate(self.elements)}

    def __contains__(self, m: Multihom) -> bool:
        i = self._index.get(m.images)
        return i is not None and self.elements[i] == m

    def index(self, m: Multihom) -> int:
        i = self._index.get(m.images)
        if i is None or self.elements[i] != m:
            raise KeyError(m)
        return i

    def to_poset(self) -> Poset:
        """Covering relations: pointwise inclusion with total size one
        less.  Dropping a vertex from an image of any element lands in
        the poset again, so these are all the covers."""
        if self._poset is not None:
            return self._poset
        index, elements = self._index, self.elements
        upper: list[list] = [[] for _ in elements]
        for m in elements:
            for images in _drops(m.images, len(m.images)):
                i = index.get(images)
                if i is None:
                    raise AssertionError(
                        "pointwise restriction left the poset; "
                        "enumeration was incomplete"
                    )
                # m is appended once per face, in element order
                upper[i].append(m)
        self._poset = Poset(elements, dict(zip(elements, upper)))
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


def _image_masks(G: Graph, H: Graph, eta: Multihom | Mapping) -> tuple:
    """eta's images as masks over ``H.vertices``, in G's canonical order,
    each checked to be nonempty and inside H."""
    if isinstance(eta, Multihom):
        if eta.domain != G.vertices:
            raise ValueError("multihomomorphism domain does not match the graph")
        if eta.target != H.vertices:
            raise ValueError("multihomomorphism target does not match the graph")
        images = eta.images
    else:
        images = []
        for u in G.vertices:
            if u not in eta:
                raise ValueError(f"no image assigned to vertex {u!r}")
            labels = set(eta[u])
            # -1 stands for an image with a vertex H does not have
            images.append(_encode(H.rank, labels) if labels <= H.rank.keys() else -1)
    for u, img in zip(G.vertices, images):
        if not img:
            raise ValueError(f"empty image at vertex {u!r}")
        if img < 0 or img >> len(H.vertices):
            raise ValueError(f"image of {u!r} leaves the target graph")
    return tuple(images)


def is_multihom(G: Graph, H: Graph, eta: Multihom | Mapping) -> bool:
    """Whether the assignment satisfies the product condition on every
    edge of G, loops included.  A mapping gives each source vertex a set
    of target vertices; a Multihom gives masks over ``H.vertices``."""
    images = _image_masks(G, H, eta)
    nbrs = H.neighbor_masks
    for a, b in G.edges:
        img_b = images[G.rank[b]]
        if any(img_b & ~nbrs[r] for r in _ranks(images[G.rank[a]])):
            return False
    return True


def _grown(pool: int, nbrs: tuple, has_later: bool, looped: bool, budget: int):
    """Every nonempty subset S of the rank mask ``pool`` tried as an
    image, S grown one vertex at a time in rank order, depth first: the
    number tried, and the S kept with their common neighborhoods, both
    in the order of their sorted ranks.  None once more than ``budget``
    are tried.

    S carries its common neighborhood as a mask, one AND with ``nbrs``
    (the neighbor mask of each rank) per added vertex.  A branch is
    pruned when that neighborhood is empty and the source vertex
    ``has_later`` neighbors (their images must lie in it), or when it is
    ``looped`` and S leaves it (S must be a reflexive clique).  Both pass
    from S to every superset, so no element is lost.  A pruned S is
    tried, and counted, but not kept.
    """
    bits = bits_of(pool)
    end = len(bits)
    cns = [nbrs[b.bit_length() - 1] for b in bits]
    kept = []
    meets = []
    tried = 0
    # (next pool position, S, cn(S)); children are pushed last-first, so
    # the S come out in the order of their sorted ranks
    todo = [(i + 1, bits[i], cns[i]) for i in reversed(range(end))]
    while todo:
        nxt, S, meet = todo.pop()
        tried += 1
        if tried > budget:
            return None
        if (has_later and not meet) or (looped and meet & S != S):
            continue
        kept.append(S)
        meets.append(meet)
        if nxt < end:
            todo.extend((i + 1, S | bits[i], meet & cns[i]) for i in reversed(range(nxt, end)))
    return tried, kept, meets


def enumerate_hom(G: Graph, H: Graph, cap: int | None = None) -> HomPoset:
    """Every multihomomorphism G -> H, by depth-first extension.

    Source vertices are processed in canonical order; the image of the
    next vertex is a nonempty subset of the common neighborhood of the
    images already assigned to its neighbors, the AND of the masks over
    the target's ranks that those images carry.  Each image grows one
    target vertex at a time, in rank order, and a branch is pruned as
    soon as no superset can be an image (:func:`_grown`).  The subsets
    tried at a source position depend only on its pool, whether it has
    later neighbors and whether it is looped, so each (pool, has_later,
    looped) list is built once per target graph, kept on ``H``, and
    reused by every enumeration into ``H``, whatever its source; the
    last position appends its whole list at once.  Extensions wait on a
    stack, not in recursion, and are taken depth first, so the elements
    come out in the label order of multihoms.  Images are masks over
    ``H.vertices``; no label is decoded.

    The cap bounds the work: every partial assignment tried counts, kept
    or pruned, the empty one at the root included, and CapExceeded is
    raised, with the count ``cap + 1``, once more than ``cap`` have been
    tried.  A subset list is charged in full, pruned entries too, before
    any of it is used, whether this call built it or an earlier one did.
    A list stops being built once it alone would pass the cap, and such
    a list is never kept, so the lists held are bounded by the work and
    the count is the same on a fresh graph as on a filled one.  Each
    element is an assignment tried, so a run within the cap has at most
    ``cap`` elements.
    """
    cap = DEFAULT_CAP if cap is None else int(cap)
    if cap < 0:
        raise ValueError(f"the enumeration cap must be non-negative, got {cap}")
    gverts, target, nbrs = G.vertices, H.vertices, H.neighbor_masks
    # the root, the empty assignment, is tried first
    if cap < 1:
        raise CapExceeded(cap=cap, partial_count=1)
    tried = 1
    last = len(gverts) - 1
    if last < 0:
        return HomPoset(domain=gverts, elements=[_multihom((gverts, (), target))], target=target)
    # the positions of each source vertex's neighbors that come before it
    earlier = [[j for j in range(i) if G.has_edge(u, gverts[j])] for i, u in enumerate(gverts)]
    has_later = [False] * len(gverts)
    for js in earlier:
        for j in js:
            has_later[j] = True
    looped = [G.has_loop(u) for u in gverts]
    # each position's lists, by pool, shared with every enumeration into H
    lists = H._subset_lists
    by_pool = [lists.setdefault(flags, {}) for flags in zip(has_later, looped)]
    everything = (1 << len(nbrs)) - 1
    found: list[Multihom] = []
    stack: list[Iterator[tuple]] = [iter([((), ())])]
    while stack:
        # siblings come from one iterator; a node with children pushes
        # theirs and breaks, and the loop resumes it when they run out
        for images, meets in stack[-1]:
            idx = len(images)
            # cn(A | B) = cn(A) & cn(B): one AND per fixed image
            pool = everything
            for j in earlier[idx]:
                pool &= meets[j]
            if not pool:
                continue
            grown = by_pool[idx]
            entry = grown.get(pool)
            if entry is None:
                entry = _grown(pool, nbrs, has_later[idx], looped[idx], cap - tried)
                if entry is None:
                    raise CapExceeded(cap=cap, partial_count=cap + 1)
                grown[pool] = entry
            count, kept, kept_meets = entry
            tried += count
            if tried > cap:
                raise CapExceeded(cap=cap, partial_count=cap + 1)
            if idx == last:
                found.extend([_multihom((gverts, images + (S,), target)) for S in kept])
                continue
            stack.append(
                iter([(images + (S,), meets + (meet,)) for S, meet in zip(kept, kept_meets)])
            )
            break
        else:
            stack.pop()
    return HomPoset(domain=gverts, elements=found, target=target)


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
    product rule of :func:`~homcx.homology.chain_complex`, shared with
    simplicial homology, on the image masks themselves: no image is
    decoded.
    """
    cells, columns = chain_complex(m.images for m in P)
    return chain_homology([len(by_dim) for by_dim in cells], columns)


def restriction_map(eta: Multihom) -> Multihom:
    """Forget the last source vertex (complete source graphs, n >= 3)."""
    if len(eta.domain) < 3:
        raise ValueError("restriction needs a source on at least 3 vertices")
    return Multihom(domain=eta.domain[:-1], images=eta.images[:-1], target=eta.target)


def _meet(union: int, nbrs: tuple) -> int:
    """The common neighborhood of the vertices of ``union``: the AND of
    their neighbor masks."""
    meet = (1 << len(nbrs)) - 1
    for b in bits_of(union):
        meet &= nbrs[b.bit_length() - 1]
    return meet


def fiber_maximum(rho: Multihom, H: Graph) -> Multihom:
    """Extend rho by the intersection of the common neighborhoods of its
    images: the unique maximum of the restriction fiber over rho."""
    if rho.target != H.vertices:
        raise ValueError("multihomomorphism target does not match the graph")
    meet = _meet(reduce(or_, rho.images, 0), H.neighbor_masks)
    if not meet:
        raise ValueError(
            "common-neighborhood intersection is empty; the fiber has no maximum"
        )
    n = len(rho.domain) + 1
    if rho.domain != tuple(range(1, n)):
        raise ValueError("fiber extension expects a complete source on 1..n-1")
    return Multihom(domain=tuple(range(1, n + 1)), images=rho.images + (meet,), target=rho.target)


def _fusion(k: int, chosen: int, low: int, target: tuple) -> WitnessTrace:
    """The fusion on image ``k``, the mask ``chosen`` over ``target``,
    whose smallest members have ``low`` vertices: fuse those into tau_0,
    then repeatedly fuse in every remaining member incomparable with the
    current tau.  Only this image is decoded."""
    # the members in rank order, which among equal sizes is the canonical
    # simplex order; the sort by size is stable
    members = sorted(map(target.__getitem__, _ranks(chosen)), key=len)
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


def common_neighbor_witness(eta: Multihom, H: Graph) -> WitnessTrace:
    """Build a common neighbor of all images of eta constructively.

    Pick the image of smallest minimum dimension, fuse its
    minimum-dimension members into tau_0, then repeatedly fuse in every
    remaining member incomparable with the current tau.  The resulting
    vertex is comparable with every member of every image; membership in
    the actual common neighborhood is asserted, image by image, before
    returning.  A witness that is a vertex of H is H's own vertex
    object.

    The fusion depends only on the chosen image, and the trace on k and
    that image, so H keeps them (``Graph._witness_memo``): each image
    mask's validated minimum member size, each image's fusion with its
    witness's rank in H, and each trace with that rank by (k, image
    mask).  So every image is fused once, whatever k it is chosen at.
    The neighborhood check reads H on every call.
    """
    target = eta.target
    if target is not H.vertices and target != H.vertices:
        raise ValueError("multihomomorphism target does not match the graph")
    lows, fusions, traces = H._witness_memo
    images = eta.images
    # the first image of the smallest minimum
    try:
        chosen = min(images, key=lows.__getitem__)
    except KeyError:
        for img in images:
            if img not in lows:
                members = [target[r] for r in _ranks(img)]
                if not all(isinstance(s, frozenset) for s in members):
                    raise ValueError("witness construction needs simplex-valued target vertices")
                lows[img] = min(map(len, members))
        chosen = min(images, key=lows.__getitem__)
    key = (images.index(chosen) + 1, chosen)
    entry = traces.get(key)
    if entry is None:
        fused = fusions.get(chosen)
        if fused is None:
            fusion = _fusion(key[0], chosen, lows[chosen], target)
            fused = fusions[chosen] = (fusion, H.rank.get(fusion.witness))
        fusion, r = fused
        # the fusion's own k is the first k it was chosen at
        witness = fusion.witness if r is None else H.vertices[r]
        trace = WitnessTrace(key[0], fusion.i1, fusion.tau_chain, fusion.s_families, witness)
        entry = traces[key] = (trace, r)
    trace, r = entry
    # adjacency is symmetric: the witness lies in cn(img) iff img lies in
    # N(witness), the mask near
    near = 0 if r is None else H.neighbor_masks[r]
    if reduce(or_, images) & ~near:
        i = next(i for i, img in enumerate(images, start=1) if img & ~near)
        raise AssertionError(
            f"constructed witness {render_label(trace.witness)} misses the "
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

    The fibers are keyed by the restricted image masks, each holding the
    last images over it.  The predicted maximum extends rho by the AND
    of the neighbor masks of every vertex in its images.  On a complete
    enumeration only "no candidate maximum" (that AND is empty) can
    fail.  The other failures fire only when the enumeration lost an
    element: rho extended by its common neighborhood is a multihom above
    its fiber, and the (B) candidate is a sub-multihom of eta.

    The rho below a restricted eta are the products of nonempty subsets
    of its images.  Two checks settle every (B) pair at once: every
    restricted eta lies in Q = Hom(K_{n-1}, H), and P = Hom(K_n, H) is
    closed under dropping one vertex from an image before the last, that
    is, each fiber's last images lie in the fiber of every one-vertex
    drop of its key.  Then each candidate is reached from eta by such
    drops, so it lies in P, and rho, its restriction, lies in Q.  No pair
    fails, and eta has prod_{i<n} (2^|eta_i| - 1) of them.

    When either check fails, the enumeration lost an element, and the
    pairs are generated one by one: a rho missing from Q raises an
    AssertionError, and a candidate missing from P is a pair failure.
    Each image's submasks are sorted once by their ranks, so the
    products, and with them the pairs and failures, come in Q's order,
    as a scan over all of Q would list them.
    """
    if n < 3:
        raise ValueError("fiber checks need n >= 3")
    P = enumerate_hom(complete_graph(n), H, cap=cap)
    Q = enumerate_hom(complete_graph(n - 1), H, cap=cap)
    nbrs = H.neighbor_masks
    fibers: dict[tuple, set] = {}
    for m in P:
        fibers.setdefault(m.images[:-1], set()).add(m.images[-1])
    maximum_failures = []
    # the restrictions of P's elements that lie in Q
    in_q = 0
    for rho in Q:
        fiber = fibers.get(rho.images, ())
        in_q += rho.images in fibers
        meet = _meet(reduce(or_, rho.images), nbrs)
        if not meet:
            maximum_failures.append((str(rho), "no candidate maximum"))
        elif meet not in fiber:
            maximum_failures.append((str(rho), "predicted maximum is not a multihom"))
        elif any(last & ~meet for last in fiber):
            maximum_failures.append((str(rho), "fiber member above predicted maximum"))
    pair_failures = []
    if in_q == len(fibers) and all(
        fiber.issubset(fibers.get(smaller, ()))
        for rho, fiber in fibers.items()
        for smaller in _drops(rho, n - 1)
    ):
        pairs = sum(
            len(fiber) * prod((1 << img.bit_count()) - 1 for img in rho)
            for rho, fiber in fibers.items()
        )
    else:
        pairs = 0
        in_Q = {rho.images for rho in Q}
        subsets = cache(lambda img: sorted(submasks((img,)), key=_ranks))
        for eta in P:
            last = eta.images[-1]
            for images in product(*map(subsets, eta.images[:-1])):
                if images not in in_Q:
                    raise AssertionError(
                        "a sub-multihomomorphism is missing from the poset; "
                        "enumeration was incomplete"
                    )
                pairs += 1
                if last not in fibers.get(images, ()):
                    rho = Multihom(Q.domain, images, Q.target)
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
        render_label(u): [render_label(m.target[r]) for r in _ranks(img)]
        for u, img in zip(m.domain, m.images)
    }


def hom_poset_to_dict(P: HomPoset) -> dict:
    covers = sorted((P.index(a), P.index(b)) for a, b in P.to_poset().cover_pairs())
    return {
        "domain": [render_label(u) for u in P.domain],
        "elements": [multihom_to_dict(m) for m in P.elements],
        "covers": [list(c) for c in covers],
    }
