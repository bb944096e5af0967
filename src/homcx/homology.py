"""Integral homology by sparse elimination on unit pivots.

A chain complex is given by its cell counts and its boundary columns,
one dict ``{row: coefficient}`` per cell.  One builder makes them for
products of simplices: a cell is a tuple of vertex sets, and a simplex
``s`` is the one-factor cell ``(s,)``, so simplicial complexes and the
cells of Hom share the product-rule boundary with each factor sorted by
one canonical vertex order.  Each boundary is reduced by pivoting on +-1
entries, which adds a 1 to the Smith diagonal per pivot; only the
residue without unit entries goes to the dense Smith reduction, which
works on arbitrary-precision Python ints with gcd-driven elimination,
pivoting on a smallest-magnitude nonzero entry.

Profiles are printed up to their homological dimension, by
:meth:`HomologyProfile.to_dict`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .simplicial import SimplicialComplex

__all__ = [
    "BoundaryMatrix",
    "SNFResult",
    "HomologyProfile",
    "boundary_matrices",
    "chain_complex",
    "smith_normal_form",
    "sparse_smith_normal_form",
    "chain_homology",
    "homology",
    "profiles_equal",
]


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the boundary map from k-chains to (k-1)-chains."""

    k: int
    rows: tuple  # (k-1)-simplices, canonical order
    cols: tuple  # k-simplices, canonical order
    entries: tuple  # tuple of row tuples over {-1, 0, 1}

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


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


def chain_complex(
    cells: Iterable[tuple], rank: Mapping
) -> tuple[list[tuple], list[list[dict]]]:
    """The cells by dimension, in the given order, and the boundary
    columns of every dimension k >= 1: ``columns[k - 1][j]`` maps the index
    of each face of the j-th k-cell to its incidence number.

    A cell is a tuple of vertex sets, the product of the simplices on
    them, of dimension sum_i (|eta_i| - 1).  With each factor sorted by
    ``rank``, the boundary is the product rule

        d(eta) = sum_i sum_j (-1)^(sum_{l<i} (|eta_l| - 1) + j)
                 eta[eta_i <- eta_i - a_ij],

    where a_ij is the j-th vertex of eta_i and i runs over the factors
    with at least two vertices.  A simplex s is the cell ``(s,)``.
    """
    by_dim: list[list[tuple]] = []
    for cell in cells:
        k = sum(len(f) for f in cell) - len(cell)
        by_dim.extend([] for _ in range(k + 1 - len(by_dim)))
        by_dim[k].append(cell)
    position = rank.__getitem__
    columns = []
    for below, above in zip(by_dim, by_dim[1:]):
        row_index = {cell: i for i, cell in enumerate(below)}
        boundaries = []
        for cell in above:
            column = {}
            offset = 0
            for i, f in enumerate(cell):
                if len(f) > 1:
                    for j, a in enumerate(sorted(f, key=position)):
                        face = cell[:i] + (f - {a},) + cell[i + 1 :]
                        column[row_index[face]] = -1 if (offset + j) % 2 else 1
                offset += len(f) - 1
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


def boundary_matrices(X: SimplicialComplex) -> list[BoundaryMatrix]:
    """Boundary matrices for dimensions 1 .. dim X: the dense view of the
    sparse columns :func:`homology` eliminates.

    The composite of consecutive boundaries is verified to vanish on
    every generator before the matrices are returned.
    """
    cells, columns = chain_complex(((s,) for s in X.simplices()), X.rank)
    _check_boundary_squared(columns)
    simplices = [tuple(s for (s,) in by_dim) for by_dim in cells]
    matrices = []
    for k in range(1, X.dim + 1):
        entries = [[0] * len(cells[k]) for _ in cells[k - 1]]
        for j, column in enumerate(columns[k - 1]):
            for i, sign in column.items():
                entries[i][j] = sign
        matrices.append(
            BoundaryMatrix(
                k=k,
                rows=simplices[k - 1],
                cols=simplices[k],
                entries=tuple(map(tuple, entries)),
            )
        )
    return matrices


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form diagonal of an integer matrix.

    Elimination is by repeated remainder exchange: the pivot is a
    smallest-magnitude nonzero entry of the working submatrix, rows and
    columns are reduced mod the pivot, and any remainder of smaller
    magnitude takes over as pivot.  A remaining entry the pivot does not
    divide gets its row added to the pivot row, which restarts the
    reduction with a strictly smaller gcd.  All arithmetic is exact.
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    diagonal: list[int] = []
    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i][j]
                if a != 0 and (pivot is None or abs(a) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # column sweep below the pivot
            reduced = True
            while True:
                p = A[t][t]
                best = None
                for i in range(t + 1, m):
                    if A[i][t]:
                        q = A[i][t] // p
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t] and (best is None or abs(A[i][t]) < abs(A[best][t])):
                        best = i
                if best is None:
                    break
                A[t], A[best] = A[best], A[t]
                reduced = False
            # row sweep right of the pivot
            while True:
                p = A[t][t]
                best = None
                for j in range(t + 1, n):
                    if A[t][j]:
                        q = A[t][j] // p
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j] and (best is None or abs(A[t][j]) < abs(A[t][best])):
                        best = j
                if best is None:
                    break
                for row in A:
                    row[t], row[best] = row[best], row[t]
                reduced = False
            if not reduced:
                continue
            p = A[t][t]
            offender = None
            for i in range(t + 1, m):
                if any(A[i][j] % p for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
        diagonal.append(abs(A[t][t]))
        t += 1
    for a, b in zip(diagonal, diagonal[1:]):
        if b % a:
            raise AssertionError("SNF divisibility chain broken")
    return SNFResult(diagonal=tuple(diagonal), rank=len(diagonal), shape=(m, n))


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
    cols = {j: dict(c) for j, c in enumerate(columns) if c}
    rows: dict[int, set[int]] = {}
    for j, c in cols.items():
        for i in c:
            rows.setdefault(i, set()).add(j)
    # rows whose entries changed are pushed again, so an entry whose count
    # is out of date is stale, and a row never misses a unit it gains
    heap = [(len(js), i) for i, js in rows.items()]
    heapq.heapify(heap)
    units = 0
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
        units += 1
    residue_rows = sorted(rows)
    at = {i: t for t, i in enumerate(residue_rows)}
    residue = []
    for c in cols.values():
        dense = [0] * len(residue_rows)
        for i, a in c.items():
            dense[at[i]] = a
        residue.append(dense)
    # the residue's transpose has the same Smith form
    tail = smith_normal_form(residue).diagonal
    diagonal = (1,) * units + tail
    return SNFResult(diagonal=diagonal, rank=len(diagonal), shape=(n_rows, len(columns)))


def chain_homology(
    counts: Sequence[int], columns: Sequence[Sequence[Mapping[int, int]]]
) -> HomologyProfile:
    """Integral homology of a chain complex with ``counts[k]`` cells in
    dimension k and boundary columns ``columns[k - 1]`` for k >= 1, each
    mapping the indices of (k-1)-cells to their incidence numbers.

    Betti numbers come from the ranks, torsion from the Smith diagonals.
    The boundary of every boundary is checked to vanish first."""
    if len(columns) != max(len(counts) - 1, 0):
        raise ValueError("need one list of boundary columns per positive dimension")
    _check_boundary_squared(columns)
    snfs = [
        sparse_smith_normal_form(columns[k - 1], counts[k - 1])
        for k in range(1, len(counts))
    ]
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
    cells, columns = chain_complex(((s,) for s in X.simplices()), X.rank)
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
