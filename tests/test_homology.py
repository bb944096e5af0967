"""Integer boundary matrices, Smith form, Betti numbers, torsion."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from homcx import (
    HomologyProfile,
    SimplicialComplex,
    barycentric_subdivision,
    boundary_matrices,
    chain_homology,
    core_fixture,
    euler_characteristic,
    homology,
    profiles_equal,
    smith_normal_form,
)
from test_simplicial import random_complex


def rational_rank(matrix):
    """Plain Gaussian elimination over Q.  Slow and obviously correct."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows or not rows[0]:
        return 0
    rank = 0
    col = 0
    ncols = len(rows[0])
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def fraction_free_rank(matrix):
    """Rank over the rationals by Bareiss elimination (exact divisions,
    no fractions).  Independent of the Smith reductions."""
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


def det(matrix):
    """Cofactor expansion; fine for the k x k minors used below."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j, x in enumerate(matrix[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            total += (-1) ** j * x * det(minor)
    return total


def determinant_divisors(matrix):
    """d_k = gcd of all k x k minors.  The SNF diagonal must satisfy
    diag[k-1] = d_k / d_{k-1}."""
    m, n = len(matrix), len(matrix[0])
    divisors = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[r][c] for c in cols] for r in rows]
                g = math.gcd(g, abs(det(sub)))
        divisors.append(g)
        if g == 0:
            break
    return divisors


def random_matrix(rng, max_dim, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def matmul(A, B):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
        for row in A
    ]


def test_snf_known_matrix():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.diagonal == (2, 4)
    assert res.rank == 2
    assert res.shape == (2, 2)


def test_snf_edge_cases():
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == ()
    assert smith_normal_form([[5]]).diagonal == (5,)
    assert smith_normal_form([[-3]]).diagonal == (3,)
    assert smith_normal_form([]).rank == 0


def test_snf_against_determinant_divisors():
    rng = random.Random(101)
    for _ in range(80):
        M = random_matrix(rng, 4, lo=-6, hi=6)
        res = smith_normal_form(M)
        dd = determinant_divisors(M)
        prev = 1
        for i, d in enumerate(res.diagonal):
            assert dd[i] % prev == 0
            assert d == dd[i] // prev
            prev = dd[i]


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(60):
        M = random_matrix(rng, 6)
        diag = smith_normal_form(M).diagonal
        assert all(d > 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_snf_rank_matches_rational_rank():
    rng = random.Random(13)
    for _ in range(60):
        M = random_matrix(rng, 8)
        assert smith_normal_form(M).rank == rational_rank(M)


def test_fraction_free_rank_matches_rational_rank():
    rng = random.Random(17)
    for _ in range(60):
        M = random_matrix(rng, 8)
        assert fraction_free_rank(M) == rational_rank(M)


def test_boundary_composition_is_zero():
    for name in ("delta2", "boundary_delta3", "wedge_triangles", "rp2"):
        X = core_fixture(name)
        mats = boundary_matrices(X)
        for a, b in zip(mats, mats[1:]):
            prod = matmul(a.entries, b.entries)
            assert all(x == 0 for row in prod for x in row), name


def test_boundary_matrix_shapes():
    X = core_fixture("rp2")
    mats = boundary_matrices(X)
    assert [m.k for m in mats] == [1, 2]
    assert len(mats[0].entries) == 6 and len(mats[0].entries[0]) == 15
    assert len(mats[1].entries) == 15 and len(mats[1].entries[0]) == 10
    assert boundary_matrices(core_fixture("point")) == []


FIXTURE_HOMOLOGY = {
    "point": ((1,), ((),)),
    "delta1": ((1, 0), ((), ())),
    "path2": ((1, 0), ((), ())),
    "boundary_delta2": ((1, 1), ((), ())),
    "delta2": ((1, 0, 0), ((), (), ())),
    "boundary_delta3": ((1, 0, 1), ((), (), ())),
    "wedge_triangles": ((1, 2), ((), ())),
    "rp2": ((1, 0, 0), ((), (2,), ())),
}


def test_fixture_homology():
    for name, (betti, torsion) in FIXTURE_HOMOLOGY.items():
        prof = homology(core_fixture(name))
        assert prof.betti == betti, name
        assert prof.torsion == torsion, name


def test_homology_of_second_subdivisions():
    prof = homology(barycentric_subdivision(core_fixture("rp2"), 2))
    assert prof.betti == (1, 0, 0)
    assert prof.torsion == ((), (2,), ())
    prof = homology(barycentric_subdivision(core_fixture("boundary_delta3"), 2))
    assert prof.betti == (1, 0, 1)
    assert prof.torsion == ((), (), ())


def test_chain_homology_checks_boundary_of_boundary():
    # a triangle whose 2-cell has one facet sign flipped
    edges = [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]
    assert chain_homology([3, 3, 1], [edges, [{0: 1, 1: -1, 2: 1}]]).betti == (1, 0, 0)
    with pytest.raises(AssertionError, match="boundary of boundary"):
        chain_homology([3, 3, 1], [edges, [{0: 1, 1: 1, 2: 1}]])


def test_seven_vertex_torus():
    # vertex i joined to i+1, i+2, i+3 mod 7; two triangle orbits
    facets = []
    for i in range(1, 8):
        step = lambda d: (i - 1 + d) % 7 + 1
        facets.append([i, step(1), step(3)])
        facets.append([i, step(2), step(3)])
    T = SimplicialComplex.from_facets(facets)
    assert T.f_vector() == (7, 21, 14)
    prof = homology(T)
    assert prof.betti == (1, 2, 1)
    assert prof.torsion == ((), (), ())


def test_two_spheres_disjoint():
    X = SimplicialComplex.from_facets(
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
         [5, 6, 7], [5, 6, 8], [5, 7, 8], [6, 7, 8]]
    )
    prof = homology(X)
    assert prof.betti == (2, 0, 2)


def test_empty_complex_homology():
    prof = homology(SimplicialComplex([]))
    assert prof.betti == ()
    assert prof.torsion == ()


@pytest.mark.parametrize(
    "X,printed",
    [
        # the Z/2 in H_1 keeps dimension 2, where its relation lives
        (core_fixture("rp2"), {"betti": [1, 0, 0], "torsion": [[], [2], []]}),
        (core_fixture("boundary_delta3"), {"betti": [1, 0, 1], "torsion": [[], [], []]}),
        (core_fixture("delta2"), {"betti": [1], "torsion": [[]]}),
        (SimplicialComplex([]), {"betti": [], "torsion": []}),
    ],
)
def test_profiles_print_up_to_the_homological_dimension(X, printed):
    assert homology(X).to_dict() == printed


def test_reduced_homology():
    prof = homology(core_fixture("boundary_delta2"), reduced=True)
    assert prof.reduced
    assert prof.betti[0] == 0
    assert prof.betti[1] == 1


def test_euler_equals_alternating_betti_sum():
    rng = random.Random(29)
    complexes = [core_fixture(n) for n in FIXTURE_HOMOLOGY]
    complexes += [random_complex(rng, n_max=6, dim_max=3) for _ in range(30)]
    for X in complexes:
        prof = homology(X)
        alt = sum((-1) ** k * b for k, b in enumerate(prof.betti))
        assert alt == euler_characteristic(X)


def test_profiles_equal_pads_trailing_zeros():
    a = HomologyProfile(betti=(1, 1), torsion=((), ()))
    b = HomologyProfile(betti=(1, 1, 0), torsion=((), (), ()))
    assert profiles_equal(a, b)
    c = HomologyProfile(betti=(1, 1, 1), torsion=((), (), ()))
    assert not profiles_equal(a, c)
    d = HomologyProfile(betti=(1, 1, 0), torsion=((), (), (2,)))
    assert not profiles_equal(a, d)


def test_profiles_equal_requires_matching_reduction():
    a = HomologyProfile(betti=(1,), torsion=((),))
    r = HomologyProfile(betti=(0,), torsion=((),), reduced=True)
    assert not profiles_equal(a, r)
