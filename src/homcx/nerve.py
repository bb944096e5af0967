"""Covers by subcomplexes and their nerves.

The star cover of a complex X covers the union of closed vertex stars
inside the containment graph of X: one full simplex per vertex of X,
spanned by everything comparable with that vertex.  Its nerve reproduces
X itself, label for label, and every intersection of pieces is again a
full simplex, which is exactly the hypothesis a nerve argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from .canon import label_key, render_label
from .graphs import build_g_kx
from .simplicial import SimplicialComplex, complex_to_dict, submasks

__all__ = [
    "Cover",
    "NerveHypothesesReport",
    "star_cover",
    "nerve_of_cover",
    "cover_union",
    "verify_nerve_theorem_hypotheses",
    "cover_to_dict",
]


@dataclass(frozen=True)
class Cover:
    """Indexed family of subcomplexes."""

    index: tuple
    pieces: dict

    def piece(self, i: Any) -> SimplicialComplex:
        return self.pieces[i]


@dataclass(frozen=True)
class NerveHypothesesReport:
    passed: bool
    intersections_checked: int
    failures: tuple


def star_cover(X: SimplicialComplex) -> Cover:
    """One piece per vertex x of X: the full simplex on the neighborhood
    of {x} in the containment graph of X."""
    if X.dim < 0:
        raise ValueError("star cover of the empty complex is undefined")
    G = build_g_kx(X, 1)
    pieces = {}
    for x in X.vertices:
        nb = G.neighbors(frozenset([x]))
        pieces[x] = SimplicialComplex([nb])
    return Cover(index=tuple(X.vertices), pieces=pieces)


def _intersections(cover: Cover) -> Iterator[tuple[tuple, set]]:
    """Every tuple of indices, increasing in label order, whose pieces
    share a simplex, together with the simplices they share, as masks
    over one bit per vertex of any piece."""
    bit: dict[Any, int] = {}
    for i in cover.index:
        for v in cover.pieces[i].vertices:
            bit.setdefault(v, 1 << len(bit))
    sets = {
        i: submasks(sum(map(bit.__getitem__, f)) for f in cover.pieces[i].facets)
        for i in cover.index
    }
    order = sorted(cover.index, key=label_key)
    stack = [((i,), sets[i]) for i in reversed(order) if sets[i]]
    while stack:
        chosen, common = stack.pop()
        yield chosen, common
        start = order.index(chosen[-1]) + 1
        for i in order[start:]:
            meet = common & sets[i]
            if meet:
                stack.append((chosen + (i,), meet))


def nerve_of_cover(cover: Cover) -> SimplicialComplex:
    """Nerve: a finite set of indices spans a simplex exactly when the
    corresponding pieces share at least one simplex."""
    return SimplicialComplex(frozenset(chosen) for chosen, _ in _intersections(cover))


def cover_union(cover: Cover) -> SimplicialComplex:
    """The union of the pieces: the complex on all of their facets."""
    return SimplicialComplex(f for i in cover.index for f in cover.pieces[i].facets)


def _is_full_simplex(simplices: set) -> bool:
    """Whether a set of masks is every nonempty submask of one mask."""
    top = max(simplices, key=int.bit_count)
    if not all(s | top == top for s in simplices):
        return False
    return len(simplices) == 2 ** top.bit_count() - 1


def verify_nerve_theorem_hypotheses(cover: Cover) -> NerveHypothesesReport:
    """Check that every nonempty intersection of pieces is a full simplex
    (in particular nonempty intersections are contractible, so the nerve
    has the same homotopy type as the union)."""
    checked = 0
    failures: list[tuple] = []
    for chosen, common in _intersections(cover):
        checked += 1
        if not _is_full_simplex(common):
            failures.append(chosen)
    return NerveHypothesesReport(
        passed=not failures,
        intersections_checked=checked,
        failures=tuple(failures),
    )


def cover_to_dict(cover: Cover) -> dict:
    return {render_label(i): complex_to_dict(cover.pieces[i]) for i in cover.index}
