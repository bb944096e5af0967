"""Canonical ordering and rendering of vertex labels.

Vertex labels are opaque hashable tokens: ints, strings, frozensets of
labels (subdivision vertices are labelled by the simplex they subdivide),
or any object exposing a ``canonical_key()`` method.  Each vertex set is
sorted with :func:`label_key` once, by :func:`canonical_order`; after
that a vertex is compared by its rank, its position in the sorted tuple,
and simplices by :func:`simplex_key`.  Output is therefore stable across
runs regardless of hash randomization.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

__all__ = ["label_key", "canonical_order", "simplex_key", "sorted_labels", "render_label"]


def label_key(label: Any) -> tuple:
    """Total order on labels.  Ints sort numerically, then strings, then
    frozensets (recursively by sorted member keys), then anything with a
    canonical_key method, then everything else by repr."""
    if isinstance(label, bool):
        return (4, repr(label))
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, frozenset):
        return (2, tuple(sorted(label_key(m) for m in label)))
    key = getattr(label, "canonical_key", None)
    if key is not None:
        return (3, key())
    return (4, repr(label))


def canonical_order(labels: Iterable[Any]) -> tuple[tuple, dict]:
    """The labels sorted by label_key, and the rank of each label: its
    position in that tuple."""
    ordered = tuple(sorted(labels, key=label_key))
    return ordered, {v: i for i, v in enumerate(ordered)}


def simplex_key(rank: Mapping[Any, int]) -> Callable[[frozenset], tuple]:
    """Sort key for simplices: dimension first, then the sorted vertex ranks.

    With ``rank`` from :func:`canonical_order` over any superset of the
    vertices, this is the order of ``(len(s), sorted(label_key(v) for v
    in s))`` whenever label_key separates the vertices, as it does for
    every label type the package builds."""
    position = rank.__getitem__

    def key(simplex: frozenset) -> tuple:
        return (len(simplex), tuple(sorted(map(position, simplex))))

    return key


def sorted_labels(labels: Iterable[Any]) -> list:
    return sorted(labels, key=label_key)


def render_label(label: Any) -> str:
    """Canonical string form of a label, e.g. frozenset({1, 2}) -> "{1,2}"."""
    if isinstance(label, frozenset):
        return "{" + ",".join(render_label(v) for v in sorted_labels(label)) + "}"
    return str(label)
