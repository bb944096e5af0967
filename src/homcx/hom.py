"""Multihomomorphism posets, the restriction map, and fiber certificates.

A multihomomorphism G -> H assigns a nonempty set of H-vertices to each
G-vertex so that adjacent G-vertices receive sets whose full product
lies in the edges of H (a loop on a G-vertex forces its image to induce
a reflexive clique).  Pointwise inclusion makes these a poset; its order
complex is the topological object of interest.

For complete source graphs there is a restriction map dropping the last
vertex.  Over containment graphs of a complex the fibers of that map
have unique maxima, and the common-neighbor witness construction
produces the certifying vertex explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Iterable, Mapping

from .canon import canonical_order, label_key, render_label, sorted_labels
from .graphs import Graph, common_neighborhood, complete_graph
from .homology import HomologyProfile, chain_complex, chain_homology
from .simplicial import Poset, SimplicialComplex, order_complex

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
    """Enumeration hit the element cap before finishing."""

    def __init__(self, cap: int, partial_count: int):
        super().__init__(
            f"multihomomorphism enumeration exceeded the cap of {cap} "
            f"(partial count {partial_count})"
        )
        self.cap = cap
        self.partial_count = partial_count


def resolve_cap(cap: int | None = None) -> int:
    """The element cap: ``cap`` if given, else HOMCX_CAP, else the default.
    A negative cap is bad input."""
    if cap is None:
        env = os.environ.get("HOMCX_CAP")
        if env is None:
            return DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValueError(f"HOMCX_CAP must be an integer, got {env!r}") from exc
    cap = int(cap)
    if cap < 0:
        raise ValueError(f"the enumeration cap must be non-negative, got {cap}")
    return cap


@dataclass(frozen=True)
class Multihom:
    """Images of the source vertices, in the source's canonical order."""

    domain: tuple
    images: tuple

    def __post_init__(self):
        # every dict and set lookup hashes the key; compute it once
        object.__setattr__(self, "_hash", hash((self.domain, self.images)))

    def __hash__(self) -> int:
        return self._hash

    def get(self, u: Any) -> frozenset:
        return self.images[self.domain.index(u)]

    def canonical_key(self) -> tuple:
        return tuple(label_key(img) for img in self.images)

    def pointwise_le(self, other: "Multihom") -> bool:
        if self.domain != other.domain:
            raise ValueError("multihomomorphisms over different domains")
        return all(a <= b for a, b in zip(self.images, other.images))

    def total_size(self) -> int:
        return sum(len(img) for img in self.images)

    def __str__(self) -> str:
        return "(" + "|".join(render_label(img) for img in self.images) + ")"


class HomPoset:
    """All multihomomorphisms G -> H, ordered by pointwise inclusion."""

    def __init__(self, domain: tuple, elements: Iterable[Multihom]):
        self.domain = tuple(domain)
        self.elements, self._index = canonical_order(elements)
        self._poset: Poset | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

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
            for i, img in enumerate(m.images):
                if len(img) < 2:
                    continue
                for v in img:
                    smaller = Multihom(
                        domain=m.domain,
                        images=m.images[:i] + (img - {v},) + m.images[i + 1 :],
                    )
                    if smaller not in self._index:
                        raise AssertionError(
                            "pointwise restriction left the poset; "
                            "enumeration was incomplete"
                        )
                    upper[smaller].append(m)
        covers = {
            m: tuple(sorted(set(ups), key=self._index.__getitem__))
            for m, ups in upper.items()
        }
        self._poset = Poset(self.elements, covers)
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
    pos = {u: i for i, u in enumerate(m.domain)}
    for a, b in G.edges:
        A = m.images[pos[a]]
        B = m.images[pos[b]]
        if any(not H.has_edge(x, y) for x in A for y in B):
            return False
    return True


def _reflexive_clique(H: Graph, S: frozenset) -> bool:
    return all(y in H.neighbors(x) for x in S for y in S)


def enumerate_hom(G: Graph, H: Graph, cap: int | None = None) -> HomPoset:
    """Every multihomomorphism G -> H, by depth-first extension.

    Source vertices are processed in canonical order; the image of the
    next vertex ranges over nonempty subsets of the common neighborhood
    of the images already assigned to its neighbors.  Raises CapExceeded
    once more than ``cap`` elements have been found.
    """
    cap = resolve_cap(cap)
    gverts = G.vertices
    found: list[Multihom] = []

    def extend(idx: int, images: tuple):
        if idx == len(gverts):
            if len(found) >= cap:
                raise CapExceeded(cap=cap, partial_count=len(found))
            found.append(Multihom(domain=gverts, images=images))
            return
        u = gverts[idx]
        pool = None
        for j in range(idx):
            if G.has_edge(u, gverts[j]):
                cn = common_neighborhood(H, images[j])
                pool = cn if pool is None else pool & cn
        members = H.vertices if pool is None else [v for v in H.vertices if v in pool]
        looped = G.has_loop(u)
        for r in range(1, len(members) + 1):
            for chosen in combinations(members, r):
                S = frozenset(chosen)
                if looped and not _reflexive_clique(H, S):
                    continue
                extend(idx + 1, images + (S,))

    extend(0, ())
    return HomPoset(domain=gverts, elements=found)


def hom_order_complex(P: HomPoset) -> SimplicialComplex:
    """Order complex of the multihomomorphism poset; vertices are the
    poset elements themselves."""
    return order_complex(P.to_poset())


def hom_homology(P: HomPoset) -> HomologyProfile:
    """Cellular homology of Hom(G, H), in dimensions 0 .. its dimension.

    Hom(G, H) is a polyhedral complex whose cell eta is the product of
    simplices on its images and whose face poset is P, so its cellular
    homology is that of the order complex of P.  The boundary is the
    product rule of :func:`~homcx.homology.chain_complex`, with each image
    sorted by one canonical order of the target vertices.
    """
    _, rank = canonical_order(frozenset().union(*(img for m in P for img in m.images)))
    cells, columns = chain_complex((m.images for m in P), rank)
    return chain_homology([len(by_dim) for by_dim in cells], columns)


def restriction_map(eta: Multihom) -> Multihom:
    """Forget the last source vertex (complete source graphs, n >= 3)."""
    if len(eta.domain) < 3:
        raise ValueError("restriction needs a source on at least 3 vertices")
    return Multihom(domain=eta.domain[:-1], images=eta.images[:-1])


def fiber_maximum(rho: Multihom, H: Graph) -> Multihom:
    """Extend rho by the intersection of the common neighborhoods of its
    images: the unique maximum of the restriction fiber over rho."""
    meet = None
    for img in rho.images:
        cn = common_neighborhood(H, img)
        meet = cn if meet is None else meet & cn
    if not meet:
        raise ValueError(
            "common-neighborhood intersection is empty; the fiber has no maximum"
        )
    n = len(rho.domain) + 1
    if rho.domain != tuple(range(1, n)):
        raise ValueError("fiber extension expects a complete source on 1..n-1")
    return Multihom(domain=tuple(range(1, n + 1)), images=rho.images + (meet,))


def common_neighbor_witness(eta: Multihom, H: Graph) -> WitnessTrace:
    """Build a common neighbor of all images of eta constructively.

    Pick the image of smallest minimum dimension, fuse its
    minimum-dimension members into tau_0, then repeatedly fuse in every
    remaining member incomparable with the current tau.  The resulting
    vertex is comparable with every member of every image; membership in
    the actual common neighborhood is asserted before returning.
    """
    if not all(isinstance(v, frozenset) for img in eta.images for v in img):
        raise ValueError("witness construction needs simplex-valued target vertices")
    mins = [min(len(v) for v in img) for img in eta.images]
    k = mins.index(min(mins)) + 1
    # H.vertices is in label_key order, which among equal sizes is the
    # canonical simplex order
    members = sorted(sorted(eta.images[k - 1], key=H.rank.__getitem__), key=len)
    low = min(mins)
    i1 = sum(1 for s in members if len(s) == low)
    tau = frozenset().union(*members[:i1])
    tau_chain = [tau]
    remaining = members[i1:]
    s_families: list[tuple] = [tuple(remaining)]
    max_rounds = len(members)
    while remaining:
        family = tuple(
            s for s in remaining if not (s <= tau or tau <= s)
        )
        s_families.append(family)
        if not family:
            break
        tau = tau | frozenset().union(*family)
        tau_chain.append(tau)
        remaining = [s for s in remaining if s not in set(family)]
        if len(s_families) > max_rounds + 1:
            raise AssertionError("witness iteration failed to terminate")
    if len(s_families) - 1 == len(members) - i1 and s_families[-1]:
        # the last possible family can only ever hold a single member
        if len(s_families[-1]) != 1:
            raise AssertionError("final incomparable family is not a singleton")
    witness = tau
    for i, img in enumerate(eta.images, start=1):
        if witness not in common_neighborhood(H, img):
            raise AssertionError(
                f"constructed witness {render_label(witness)} misses the "
                f"neighborhood of image {i}"
            )
    return WitnessTrace(
        k=k,
        i1=i1,
        tau_chain=tuple(tau_chain),
        s_families=tuple(s_families),
        witness=witness,
    )


def check_quillen_conditions(n: int, H: Graph, cap: int | None = None) -> QuillenReport:
    """Fiber checks for the restriction from complete sources.

    (A surrogate) every fiber of the restriction has a unique maximum,
    and it is the one the common-neighborhood extension predicts.
    (B) for every rho below a restricted eta, the fiber part weakly
    below eta has the expected maximal element.
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
        fiber = fibers.get(rho.images, [])
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
    pairs = 0
    for eta in P:
        restricted = Multihom(domain=Q.domain, images=eta.images[:-1])
        for rho in Q:
            if not rho.pointwise_le(restricted):
                continue
            pairs += 1
            candidate = Multihom(domain=P.domain, images=rho.images + (eta.images[-1],))
            if candidate not in P:
                pair_failures.append((str(rho), str(eta), "candidate not a multihom"))
                continue
            below = [
                m
                for m in fibers.get(rho.images, [])
                if m.pointwise_le(eta)
            ]
            if any(not m.pointwise_le(candidate) for m in below):
                pair_failures.append((str(rho), str(eta), "candidate not maximal"))
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
    poset = P.to_poset()
    index = {m: i for i, m in enumerate(P.elements)}
    covers = sorted(
        (index[a], index[b]) for a, b in poset.cover_pairs()
    )
    return {
        "domain": [render_label(u) for u in P.domain],
        "elements": [multihom_to_dict(m) for m in P.elements],
        "covers": [list(c) for c in covers],
    }
