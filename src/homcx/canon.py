"""Canonical ordering and rendering of vertex labels.

Vertex labels are opaque hashable tokens: ints, strings, frozensets of
labels (subdivision vertices are labelled by the simplex they subdivide),
or any object exposing a ``canonical_key()`` method.  Each vertex set is
sorted with :func:`label_key` once, by :func:`canonical_order`; after
that a vertex is compared by its rank, its position in the sorted tuple.
Simplices are compared by the int key of their complex's mask view
(:class:`homcx.simplicial.MaskView`), which is built from those ranks.
Output is therefore stable across runs regardless of hash randomization.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["label_key", "canonical_order", "sorted_labels", "render_label"]


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


def sorted_labels(labels: Iterable[Any]) -> list:
    return sorted(labels, key=label_key)


def render_label(label: Any) -> str:
    """Canonical string form of a label, e.g. frozenset({1, 2}) -> "{1,2}"."""
    if isinstance(label, frozenset):
        return "{" + ",".join(render_label(v) for v in sorted_labels(label)) + "}"
    return str(label)
