"""Integral simplicial homology via Smith normal form.

Boundary matrices use the alternating-sum sign convention on vertices
sorted canonically.  The Smith reduction works on arbitrary-precision
Python ints with gcd-driven elimination, pivoting on a smallest-magnitude
nonzero entry.  A fraction-free (Bareiss) rank routine is provided as an
independent cross-check on the SNF ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .simplicial import SimplicialComplex

__all__ = [
    "BoundaryMatrix",
    "SNFResult",
    "HomologyProfile",
    "boundary_matrices",
    "smith_normal_form",
    "fraction_free_rank",
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
        return {
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
            "reduced": self.reduced,
        }


def _boundary_terms(vertices: tuple):
    for i in range(len(vertices)):
        sign = 1 if i % 2 == 0 else -1
        yield sign, vertices[:i] + vertices[i + 1 :]


def boundary_matrices(X: SimplicialComplex) -> list[BoundaryMatrix]:
    """Boundary matrices for dimensions 1 .. dim X.

    The composite of consecutive boundaries is verified to vanish on
    every generator before the matrices are returned.
    """
    position = X.rank.__getitem__
    by_dim: dict[int, list[frozenset]] = {}
    for s in X.simplices():
        by_dim.setdefault(len(s) - 1, []).append(s)
    matrices = []
    for k in range(1, X.dim + 1):
        rows = tuple(by_dim.get(k - 1, ()))
        cols = tuple(by_dim.get(k, ()))
        row_index = {s: i for i, s in enumerate(rows)}
        entries = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for sign, face in _boundary_terms(tuple(sorted(s, key=position))):
                entries[row_index[frozenset(face)]][j] = sign
        matrices.append(
            BoundaryMatrix(
                k=k,
                rows=rows,
                cols=cols,
                entries=tuple(map(tuple, entries)),
            )
        )
    for k in range(2, X.dim + 1):
        for s in by_dim.get(k, ()):
            acc: dict[tuple, int] = {}
            for sign, face in _boundary_terms(tuple(sorted(s, key=position))):
                for sign2, sub in _boundary_terms(face):
                    acc[sub] = acc.get(sub, 0) + sign * sign2
            if any(acc.values()):
                raise AssertionError(f"boundary of boundary is nonzero at {s!r}")
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


def fraction_free_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by Bareiss elimination (exact divisions,
    no fractions).  Independent of the Smith reduction."""
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(n):
        pivot_row = None
        for i in range(rank, m):
            if A[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        A[rank], A[pivot_row] = A[pivot_row], A[rank]
        p = A[rank][col]
        for i in range(rank + 1, m):
            factor = A[i][col]
            for j in range(col, n):
                num = p * A[i][j] - factor * A[rank][j]
                q, r = divmod(num, prev)
                if r:
                    raise AssertionError("Bareiss division not exact")
                A[i][j] = q
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def homology(X: SimplicialComplex, reduced: bool = False) -> HomologyProfile:
    """Integral homology of X: Betti numbers in dimensions 0 .. dim X and
    torsion coefficients read off the Smith diagonals."""
    if X.dim < 0:
        return HomologyProfile(betti=(), torsion=(), reduced=reduced)
    counts = X.f_vector()
    matrices = boundary_matrices(X)
    snfs = {M.k: smith_normal_form(M.entries) for M in matrices}
    ranks = {k: snfs[k].rank if k in snfs else 0 for k in range(0, X.dim + 2)}
    betti = []
    torsion = []
    for k in range(X.dim + 1):
        betti.append(counts[k] - ranks[k] - ranks[k + 1])
        if k + 1 in snfs:
            torsion.append(tuple(d for d in snfs[k + 1].diagonal if d > 1))
        else:
            torsion.append(())
    if reduced:
        betti[0] -= 1
    return HomologyProfile(betti=tuple(betti), torsion=tuple(torsion), reduced=reduced)


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
