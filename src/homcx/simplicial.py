"""Finite abstract simplicial complexes, posets, order complexes and
barycentric subdivision.

A complex is stored by its facets (inclusion-maximal simplices).
Simplices are frozensets of vertex labels.  Each complex has one
:class:`MaskView`, which gives every vertex a bit from its rank (see
:mod:`homcx.canon`) and holds the downward closure as masks, built from
the facets on first use.  The view's int key is the one canonical
simplex order: dimension ascending, then lexicographic on the sorted
vertex ranks.  Algorithms that do set arithmetic on every simplex work
on the masks, and decode a mask to its labels only to report it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, groupby, permutations
from typing import Any, Callable, Iterable, Iterator

from .canon import canonical_order, render_label

__all__ = [
    "SimplicialComplex",
    "MaskView",
    "Poset",
    "order_complex",
    "barycentric_subdivision",
    "euler_characteristic",
    "maximal_sets",
    "faces",
    "bits_of",
    "complex_to_dict",
    "render_simplex",
    "complex_from_dict",
    "load_complex",
    "save_complex",
]


def faces(s: Iterable) -> Iterator[frozenset]:
    """The nonempty subsets of s, lazily, smallest first, in the iteration
    order of s (a 31-vertex simplex has 2**31 - 1 faces)."""
    members = tuple(s)
    sizes = range(1, len(members) + 1)
    return chain.from_iterable(map(frozenset, combinations(members, r)) for r in sizes)


def bits_of(m: int) -> list[int]:
    """The set bits of the mask ``m`` as one-bit masks, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low)
        m ^= low
    return out


def submasks(tops: Iterable[int]) -> set[int]:
    """The nonempty submasks of the masks ``tops``."""
    out: set[int] = set()
    for top in tops:
        sub = top
        while sub:
            out.add(sub)
            sub = (sub - 1) & top
    return out


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal nonzero masks among ``masks``, each once."""
    ms = set(masks) - {0}
    return [m for m in ms if not any(m | d == d != m for d in ms)]


class _CoverIndex:
    """Sets indexed by vertex, to test whether s lies under one of them.  A
    set containing s contains each vertex of s, so s is tested only against
    the sets through its least-shared vertex; the empty set is under all."""

    def __init__(self, sets: Iterable[frozenset] = ()):
        self.sets: list[frozenset] = []
        self._through: dict[Any, list[frozenset]] = {}
        for t in sets:
            self.add(t)

    def add(self, t: frozenset) -> None:
        self.sets.append(t)
        for v in t:
            self._through.setdefault(v, []).append(t)

    def covers(self, s: frozenset) -> bool:
        rivals = min((self._through.get(v, ()) for v in s), key=len, default=self.sets)
        return any(s <= t for t in rivals)


def maximal_sets(sets: Iterable[frozenset]) -> list[frozenset]:
    """Inclusion-maximal members of a family of frozensets, each once,
    largest first.

    Sets are taken in size groups, largest first, and each is kept unless
    a kept set covers it.  Two distinct sets of one size never contain each
    other, so a set is tested only against the strictly larger kept sets:
    the kept sets join the index only once a smaller group comes up, and
    a family of one size makes no test and builds no index at all.
    """
    kept: list[frozenset] = []
    index = _CoverIndex()
    for _, group in groupby(sorted(set(sets), key=len, reverse=True), key=len):
        for t in kept[len(index.sets) :]:
            index.add(t)
        kept += [s for s in group if not index.covers(s)] if kept else group
    return kept


class SimplicialComplex:
    """Abstract simplicial complex over opaque hashable vertex labels."""

    def __init__(self, facets: Iterable[Iterable[Any]]):
        normalized = []
        for f in facets:
            fs = frozenset(f)
            if not fs:
                raise ValueError("empty simplex")
            normalized.append(fs)
        self._facets = frozenset(maximal_sets(normalized))
        self._simplex_set: frozenset | None = None

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[Any]]) -> "SimplicialComplex":
        """Build from facet lists.  A repeated label inside one facet is an
        input error, not a convenience."""
        checked = []
        for f in facets:
            listed = list(f)
            if len(listed) != len(set(listed)):
                raise ValueError(f"duplicate vertex label in facet {listed!r}")
            checked.append(listed)
        return cls(checked)

    @property
    def facets(self) -> frozenset:
        return self._facets

    @cached_property
    def _order(self) -> tuple[tuple, dict]:
        return canonical_order(frozenset().union(*self._facets))

    @property
    def vertices(self) -> tuple:
        return self._order[0]

    @property
    def rank(self) -> dict:
        """Position of each vertex in ``vertices``."""
        return self._order[1]

    @property
    def dim(self) -> int:
        if not self._facets:
            return -1
        return max(len(f) for f in self._facets) - 1

    @cached_property
    def masks(self) -> "MaskView":
        """The complex's closure and simplex order as vertex bitmasks."""
        return MaskView(self._facets, self.vertices)

    @cached_property
    def covers(self) -> Callable[[frozenset], bool]:
        """Whether a set lies under a facet; for a nonempty set, whether it
        is a simplex.  The facet index is built on the first call."""
        return _CoverIndex(self._facets).covers

    def simplex_set(self) -> frozenset:
        if self._simplex_set is None:
            view = self.masks
            self._simplex_set = frozenset(map(view.label, view.closure))
        return self._simplex_set

    def simplices(self) -> tuple[frozenset, ...]:
        """All simplices in canonical order."""
        view = self.masks
        return tuple(map(view.label, sorted(view.closure, key=view.key)))

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for m in self.masks.closure:
            counts[m.bit_count() - 1] += 1
        return tuple(counts)

    def __contains__(self, simplex: Iterable[Any]) -> bool:
        fs = frozenset(simplex)
        return bool(fs) and self.covers(fs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self) -> int:
        return hash(self._facets)

    def __len__(self) -> int:
        return len(self.masks.closure)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"{len(self._facets)} facets, dim {self.dim})"
        )


class MaskView:
    """The simplices of a complex as vertex bitmasks.

    The vertex of rank r is bit n - 1 - r.  Among simplices of one size
    the canonical order is then descending mask, so :meth:`key` is one
    int.  ``closure`` is every simplex as a mask, built from the facets
    on first use; :meth:`label` decodes a mask to its vertex set where a
    caller needs labels.  The view holds the facets and the bits, not the
    complex.
    """

    def __init__(self, facets: frozenset, vertices: tuple):
        n = len(vertices)
        self.n = n
        self.bit = {v: 1 << (n - 1 - r) for r, v in enumerate(vertices)}
        # the vertex of bit i, which has rank n - 1 - i
        self.vertex = vertices[::-1]
        self._facets = facets

    @cached_property
    def closure(self) -> frozenset:
        """Every face of every facet, as masks: the nonempty submasks of
        the facets' masks."""
        return frozenset(submasks(map(self.mask, self._facets)))

    def label(self, m: int) -> frozenset:
        """The vertex set of a mask of this view."""
        return frozenset([self.vertex[b.bit_length() - 1] for b in bits_of(m)])

    def mask(self, s: Iterable[Any]) -> int | None:
        """The mask of a vertex set, or None if it names a vertex the
        complex does not have."""
        try:
            return sum(map(self.bit.__getitem__, s))
        except KeyError:
            return None

    def key(self, m: int) -> int:
        """Sort key of a nonempty mask: the canonical simplex order."""
        return (m.bit_count() << self.n) - m

    def free_facet(self, S: set, tau: int) -> int | None:
        """The one facet of S properly containing tau, or None if tau
        is not a free face of S, a downward-closed set of masks.

        Tau is a free face exactly when its one-vertex extensions inside
        S assemble to a single member of S; that member is then the facet.
        """
        sigma = tau
        for b in self.bit.values():
            # a bit of tau leaves sigma as it is
            if tau | b in S:
                sigma |= b
        return sigma if sigma != tau and sigma in S else None

    def interval(self, tau: int, sigma: int) -> list[int]:
        """The masks between tau and sigma, in canonical order."""
        extra = sigma & ~tau
        between = [tau | extra]
        sub = extra
        while sub:
            sub = (sub - 1) & extra
            between.append(tau | sub)
        return sorted(between, key=self.key)


class Poset:
    """Finite poset described by its elements and upper covering relations.

    ``elements`` fixes the canonical element order; ``upper_covers`` maps
    each element to the elements covering it.
    """

    def __init__(self, elements: Iterable[Any], upper_covers: dict):
        self.elements = tuple(elements)
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate poset element")
        self.upper_covers = {
            e: tuple(upper_covers.get(e, ())) for e in self.elements
        }
        for e, ups in self.upper_covers.items():
            for u in ups:
                if u not in index:
                    raise ValueError(f"cover target {u!r} is not an element")
        self._index = index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def index(self, element: Any) -> int:
        return self._index[element]

    def cover_pairs(self) -> list[tuple[Any, Any]]:
        return [(e, u) for e in self.elements for u in self.upper_covers[e]]

    def minimal_elements(self) -> list:
        covered = set()
        for ups in self.upper_covers.values():
            covered.update(ups)
        return [e for e in self.elements if e not in covered]

    def maximal_chains(self) -> list[tuple]:
        """All maximal chains, each as a tuple bottom to top."""
        chains: list[tuple] = []
        stack = [(e,) for e in reversed(self.minimal_elements())]
        while stack:
            chain = stack.pop()
            ups = self.upper_covers[chain[-1]]
            if not ups:
                chains.append(chain)
                continue
            for u in reversed(ups):
                stack.append(chain + (u,))
        return chains


def order_complex(P: Poset) -> SimplicialComplex:
    """Complex of chains of P.  Facets are the maximal chains."""
    if len(P) == 0:
        return SimplicialComplex([])
    return SimplicialComplex(map(frozenset, P.maximal_chains()))


def barycentric_subdivision(X: SimplicialComplex, k: int = 1) -> SimplicialComplex:
    """k-fold subdivision: vertices of each stage are the simplices of the
    previous one, simplices are inclusion chains.  The facets of a stage
    are the chains of prefixes of the orderings of the previous facets."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("subdivision depth must be a positive integer")
    Y = X
    for _ in range(k):
        Y = SimplicialComplex(
            frozenset(frozenset(p[:i]) for i in range(1, len(p) + 1))
            for f in Y.facets
            for p in permutations(f)
        )
    return Y


def euler_characteristic(X: SimplicialComplex) -> int:
    return sum(
        count if d % 2 == 0 else -count for d, count in enumerate(X.f_vector())
    )


# ---------------------------------------------------------------------------
# JSON form: {"facets": [["1", "2"], ["2", "3"]]}, labels rendered to strings.

def complex_to_dict(X: SimplicialComplex) -> dict:
    view = X.masks
    facets = sorted(X.facets, key=lambda f: view.key(view.mask(f)))
    return {"facets": [render_simplex(X, f) for f in facets]}


def render_simplex(X: SimplicialComplex, simplex: frozenset) -> list[str]:
    """Vertex labels of a simplex of X, rendered in canonical order."""
    return [render_label(v) for v in sorted(simplex, key=X.rank.__getitem__)]


def complex_from_dict(data: dict) -> SimplicialComplex:
    if not isinstance(data, dict) or "facets" not in data:
        raise ValueError('complex JSON needs a "facets" key')
    facets = data["facets"]
    if not isinstance(facets, list) or not all(
        isinstance(f, list) and all(isinstance(v, str) for v in f) for f in facets
    ):
        raise ValueError('"facets" must be a list of lists of string labels')
    return SimplicialComplex.from_facets(facets)


def load_complex(path: str) -> SimplicialComplex:
    import json

    with open(path) as fh:
        return complex_from_dict(json.load(fh))


def save_complex(X: SimplicialComplex, path: str) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(complex_to_dict(X), fh, indent=2, sort_keys=True)
        fh.write("\n")
