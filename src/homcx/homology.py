"""Integral homology by sparse elimination on unit pivots.

A chain complex is given by its cell counts and its boundary columns,
one dict ``{row: coefficient}`` per cell.  One builder makes them for
products of simplices: a cell is a tuple of int vertex masks, and a
simplex is the one-factor cell ``(m,)`` of its mask, so simplicial
complexes and the cells of Hom share the product-rule boundary with
each factor oriented by its bits, and no label is decoded.  Each
boundary is reduced by pivoting on +-1 entries, which adds a 1 to the
Smith diagonal per pivot; only the residue without unit entries goes to
the dense Smith form, on arbitrary-precision ints, in two steps: a
diagonalisation by remainder exchange, then a gcd/lcm pass over the
diagonal.  Over all nine verify suites on the core fixtures and the
benchmark workloads, no residue is larger than 1 x 14.

The boundaries are reduced from the top dimension down, with clearing
(Chen and Kerber, "Persistent homology computation with a twist",
EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and compress", 2014).
Say the unit loop of d_{k+1} pivots on row r.  Every column it works on
is an integer combination of the columns of d_{k+1}, so the pivot column
is a boundary c with c_r = +-1, and d_k c = 0 puts column r of d_k in
the integer span of the columns of d_k at the other rows of c.  None of
those rows is an earlier pivot, since each pivot clears its row from
every other column.  Going back from the last pivot, every pivot-row
column of d_k is then an integer combination of the columns on rows the
unit loop did not pivot on.  Leaving the pivot-row columns out keeps the
lattice the columns of d_k span, and with it the rank of d_k and its
nonzero Smith diagonal.  Rows settled by the dense residue are not
cleared.

Profiles are printed up to their homological dimension, by
:meth:`HomologyProfile.to_dict`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Collection, Iterable, Mapping, Sequence

from .simplicial import SimplicialComplex, bits_of

__all__ = [
    "SNFResult",
    "HomologyProfile",
    "chain_complex",
    "smith_normal_form",
    "sparse_smith_normal_form",
    "chain_homology",
    "homology",
    "profiles_equal",
]


@dataclass(frozen=True)
class SNFResult:
    diagonal: tuple[int, ...]  # positive, each dividing the next
    rank: int
    shape: tuple[int, int]


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers and torsion coefficients per dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced: bool = False

    def to_dict(self) -> dict:
        """Betti numbers and torsion up to the homological dimension: the
        last dimension with a nonzero Betti number or, if later, one past
        the last with torsion; at least dimension 0 unless there is none."""
        top = [k for k, b in enumerate(self.betti) if b]
        top += [k + 1 for k, t in enumerate(self.torsion) if t]
        depth = min(len(self.betti), 1 + max(top, default=0))
        return {
            "betti": list(self.betti[:depth]),
            "torsion": [list(t) for t in self.torsion[:depth]],
        }


def chain_complex(cells: Iterable[tuple]) -> tuple[list[tuple], list[list[dict]]]:
    """The cells by dimension, in the given order, and the boundary
    columns of every dimension k >= 1: ``columns[k - 1][j]`` maps the index
    of each face of the j-th k-cell to its incidence number.

    A cell is a tuple of vertex masks, the product of the simplices on
    their bits, of dimension sum_i (popcount(eta_i) - 1).  With the bits
    of each factor taken lowest first, the boundary is the product rule

        d(eta) = sum_i sum_j (-1)^(sum_{l<i} (popcount(eta_l) - 1) + j)
                 eta[eta_i <- eta_i ^ b_ij],

    where b_ij is the j-th bit of eta_i and i runs over the factors with
    at least two bits.  Any fixed vertex order orients a product of
    simplices, and another order only flips the signs of some cells, so
    the homology does not depend on which order the bits give.
    """
    by_dim: list[list[tuple]] = []
    for cell in cells:
        k = sum(m.bit_count() for m in cell) - len(cell)
        by_dim.extend([] for _ in range(k + 1 - len(by_dim)))
        by_dim[k].append(cell)
    columns = []
    for below, above in zip(by_dim, by_dim[1:]):
        row_index = {cell: i for i, cell in enumerate(below)}
        boundaries = []
        for cell in above:
            column = {}
            offset = 0
            for i, m in enumerate(cell):
                if m & (m - 1):
                    head, tail = cell[:i], cell[i + 1 :]
                    for j, b in enumerate(bits_of(m), offset):
                        column[row_index[head + (m ^ b,) + tail]] = -1 if j % 2 else 1
                    offset += m.bit_count() - 1
            boundaries.append(column)
        columns.append(boundaries)
    return [tuple(c) for c in by_dim], columns


def _check_boundary_squared(columns: Sequence[Sequence[Mapping[int, int]]]) -> None:
    """Raise unless every boundary composes to zero with the one below it."""
    for k in range(2, len(columns) + 1):
        below = columns[k - 2]
        for j, column in enumerate(columns[k - 1]):
            acc: dict[int, int] = {}
            for i, a in column.items():
                for r, b in below[i].items():
                    acc[r] = acc.get(r, 0) + a * b
            if any(acc.values()):
                raise AssertionError(
                    f"boundary of boundary is nonzero at {k}-cell {j}"
                )


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form diagonal of an integer matrix, in two steps.

    1. Diagonalise by remainder exchange.  Pivot on a smallest-magnitude
       nonzero entry of the working submatrix, move it to (t, t), and
       reduce column t and row t modulo it.  While a remainder is left in
       row t or column t, pivot again: the pivot's magnitude falls every
       round, so the loop ends.
    2. Replace each pair (d_i, d_j), i < j, of the diagonal by (gcd, lcm).
       diag(a, b) is equivalent to diag(g, l) with g = gcd(a, b) = xa + yb
       and l = ab/g: add row 2 to row 1, giving [[a, b], [0, b]]; multiply
       on the right by [[x, -b/g], [y, a/g]], of determinant 1, giving
       [[g, 0], [yb, l]]; subtract yb/g times row 1 from row 2.  After the
       pairs of d_i, d_i divides every later entry, and later pairs keep
       that, so the diagonal is a divisibility chain.

    All arithmetic is exact.
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    t = 0
    while t < min(m, n):
        nonzero = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        p = A[t][t]
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // p
                A[i] = [a - q * b for a, b in zip(A[i], A[t])]
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // p
                for row in A:
                    row[j] -= q * row[t]
        if not any(A[i][t] for i in range(t + 1, m)) and not any(A[t][t + 1 :]):
            t += 1
    diagonal = [abs(A[i][i]) for i in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
    for a, b in zip(diagonal, diagonal[1:]):
        if b % a:
            raise AssertionError("SNF divisibility chain broken")
    return SNFResult(diagonal=tuple(diagonal), rank=t, shape=(m, n))


def sparse_smith_normal_form(
    columns: Sequence[Mapping[int, int]], n_rows: int
) -> SNFResult:
    """Smith normal form diagonal of the integer matrix whose j-th column
    maps row indices to its nonzero entries.

    Each step takes a row with the fewest entries that holds a +-1 entry,
    pivots on that entry in its shortest column, and clears the row from
    the other columns.  Every such step is unimodular and contributes a 1
    to the diagonal.  Once no +-1 entry is left, the residue goes to
    :func:`smith_normal_form`.  All arithmetic is exact.
    """
    return _sparse_snf(columns, n_rows, ())[0]


def _sparse_snf(
    columns: Sequence[Mapping[int, int]], n_rows: int, skip: Collection[int]
) -> tuple[SNFResult, set[int]]:
    """The elimination of :func:`sparse_smith_normal_form` on the columns
    outside ``skip``, and the rows it pivoted on in the unit loop.  The
    shape is still that of all the columns."""
    cols = {j: dict(c) for j, c in enumerate(columns) if c and j not in skip}
    rows: dict[int, set[int]] = {}
    for j, c in cols.items():
        for i in c:
            rows.setdefault(i, set()).add(j)
    # rows whose entries changed are pushed again, so an entry whose count
    # is out of date is stale, and a row never misses a unit it gains
    heap = [(len(js), i) for i, js in rows.items()]
    heapq.heapify(heap)
    pivot_rows: set[int] = set()
    while heap:
        count, r = heapq.heappop(heap)
        js = rows.get(r)
        if js is None or len(js) != count:
            continue
        unit_cols = [j for j in js if cols[j][r] in (1, -1)]
        if not unit_cols:
            continue
        p = min(unit_cols, key=lambda j: (len(cols[j]), j))
        pivot = cols.pop(p)
        u = pivot[r]
        del rows[r]
        touched = set(pivot)
        touched.discard(r)
        for i in touched:
            rows[i].discard(p)
        for j in js:
            if j == p:
                continue
            c = cols[j]
            f = c[r] * u
            for i, a in pivot.items():
                value = c.get(i, 0) - f * a
                if value:
                    if i not in c and i != r:
                        rows[i].add(j)
                    c[i] = value
                else:
                    del c[i]
                    if i != r:
                        rows[i].discard(j)
            if not c:
                del cols[j]
        for i in touched:
            if rows[i]:
                heapq.heappush(heap, (len(rows[i]), i))
            else:
                del rows[i]
        pivot_rows.add(r)
    residue = [[c.get(i, 0) for i in rows] for c in cols.values()]
    # the residue is transposed and its rows unsorted, which keeps the Smith form
    tail = smith_normal_form(residue).diagonal
    diagonal = (1,) * len(pivot_rows) + tail
    snf = SNFResult(diagonal=diagonal, rank=len(diagonal), shape=(n_rows, len(columns)))
    return snf, pivot_rows


def chain_homology(
    counts: Sequence[int], columns: Sequence[Sequence[Mapping[int, int]]]
) -> HomologyProfile:
    """Integral homology of a chain complex with ``counts[k]`` cells in
    dimension k and boundary columns ``columns[k - 1]`` for k >= 1, each
    mapping the indices of (k-1)-cells to their incidence numbers.

    Betti numbers come from the ranks, torsion from the Smith diagonals.
    The boundary of every boundary is checked to vanish first, on every
    column.  The boundaries are then reduced from the top dimension down,
    with clearing: the columns of d_k at the rows where the unit loop of
    d_{k+1} pivoted are left out, which keeps the lattice d_k spans and
    so its rank and its nonzero Smith diagonal (see the module
    docstring)."""
    if len(columns) != max(len(counts) - 1, 0):
        raise ValueError("need one list of boundary columns per positive dimension")
    _check_boundary_squared(columns)
    snfs: list[SNFResult] = []
    cleared: set[int] = set()
    for k in range(len(columns), 0, -1):
        snf, cleared = _sparse_snf(columns[k - 1], counts[k - 1], cleared)
        snfs.append(snf)
    snfs.reverse()
    ranks = [0] + [snf.rank for snf in snfs] + [0]
    diagonals = [snf.diagonal for snf in snfs] + [()]
    return HomologyProfile(
        betti=tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(len(counts))),
        torsion=tuple(
            tuple(d for d in diagonals[k] if d > 1) for k in range(len(counts))
        ),
    )


def homology(X: SimplicialComplex, reduced: bool = False) -> HomologyProfile:
    """Integral homology of X: Betti numbers in dimensions 0 .. dim X and
    torsion coefficients read off the Smith diagonals."""
    view = X.masks
    cells, columns = chain_complex((m,) for m in sorted(view.closure, key=view.key))
    profile = chain_homology([len(c) for c in cells], columns)
    if not reduced:
        return profile
    betti = (profile.betti[0] - 1,) + profile.betti[1:] if profile.betti else ()
    return HomologyProfile(betti=betti, torsion=profile.torsion, reduced=True)


def profiles_equal(a: HomologyProfile, b: HomologyProfile) -> bool:
    """Equality with missing trailing dimensions read as zero."""
    if a.reduced != b.reduced:
        return False
    depth = max(len(a.betti), len(b.betti))
    pad = lambda t: tuple(t) + (0,) * (depth - len(t))
    if pad(a.betti) != pad(b.betti):
        return False
    padt = lambda t: tuple(t) + ((),) * (depth - len(t))
    return padt(a.torsion) == padt(b.torsion)
