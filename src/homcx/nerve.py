"""Covers by subcomplexes and their nerves.

The star cover of a complex X covers the union of closed vertex stars
inside the containment graph of X: one full simplex per vertex of X,
spanned by everything comparable with that vertex.  Its nerve reproduces
X itself, label for label, and every intersection of pieces is again a
full simplex, which is exactly the hypothesis a nerve argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator

from .canon import label_key, render_label
from .graphs import build_g_kx
from .simplicial import SimplicialComplex, complex_to_dict, maximal_masks

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
    """Indexed family of subcomplexes.  Its intersections are walked once,
    on first use, and kept with the cover, so the pieces must not change
    after that."""

    index: tuple
    pieces: dict

    def piece(self, i: Any) -> SimplicialComplex:
        return self.pieces[i]

    @cached_property
    def _meets(self) -> tuple:
        """The walk of :func:`_intersections`, taken on first use and
        shared by the nerve and the hypothesis check."""
        return tuple(_intersections(self))


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


def _intersections(cover: Cover) -> Iterator[tuple[tuple, list]]:
    """Every tuple of indices, increasing in label order, whose pieces
    share a simplex, with the maximal masks of what they share, over one
    bit per vertex of any piece.

    A simplex lies in pieces P and Q exactly when it lies under f & g for
    a facet f of P and a facet g of Q, so a tuple carries only its maximal
    nonzero facet meets.  Its pieces share a simplex exactly when a meet
    is left, and a full simplex exactly when only one is: a full simplex
    holds its top, which lies under a maximal meet, so that meet is the
    top and every other lies under it.
    """
    bit: dict[Any, int] = {}
    for i in cover.index:
        for v in cover.pieces[i].vertices:
            bit.setdefault(v, 1 << len(bit))
    tops = {
        i: [sum(map(bit.__getitem__, f)) for f in cover.pieces[i].facets]
        for i in cover.index
    }
    order = sorted(cover.index, key=label_key)
    stack = [((i,), tops[i]) for i in reversed(order) if tops[i]]
    while stack:
        chosen, meets = stack.pop()
        yield chosen, meets
        start = order.index(chosen[-1]) + 1
        for i in order[start:]:
            meet = maximal_masks(m & g for m in meets for g in tops[i])
            if meet:
                stack.append((chosen + (i,), meet))


def nerve_of_cover(cover: Cover) -> SimplicialComplex:
    """Nerve: a finite set of indices spans a simplex exactly when the
    corresponding pieces share at least one simplex."""
    return SimplicialComplex(frozenset(chosen) for chosen, _ in cover._meets)


def cover_union(cover: Cover) -> SimplicialComplex:
    """The union of the pieces: the complex on all of their facets."""
    return SimplicialComplex(f for i in cover.index for f in cover.pieces[i].facets)


def verify_nerve_theorem_hypotheses(cover: Cover) -> NerveHypothesesReport:
    """Check that every nonempty intersection of pieces is a full simplex
    (in particular nonempty intersections are contractible, so the nerve
    has the same homotopy type as the union)."""
    found = [(chosen, len(meets) == 1) for chosen, meets in cover._meets]
    failures = tuple(chosen for chosen, full in found if not full)
    return NerveHypothesesReport(
        passed=not failures, intersections_checked=len(found), failures=failures
    )


def cover_to_dict(cover: Cover) -> dict:
    return {render_label(i): complex_to_dict(cover.pieces[i]) for i in cover.index}
