"""Facet storage, closure, subdivision against the face poset,
serialization."""

import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from homcx import (
    CORE_FIXTURE_NAMES,
    Poset,
    SimplicialComplex,
    barycentric_subdivision,
    complex_from_dict,
    complex_to_dict,
    core_fixture,
    euler_characteristic,
    load_complex,
    order_complex,
    save_complex,
)
from homcx.simplicial import bits_of


def closure_by_hand(facets):
    """Every nonempty subset of every facet, the slow way."""
    out = set()
    for f in facets:
        members = sorted(f)
        for r in range(1, len(members) + 1):
            out.update(frozenset(c) for c in combinations(members, r))
    return out


def face_poset(X):
    """Poset of the simplices of X ordered by inclusion, covers by a scan
    over the vertices: in a downward-closed family the codimension-one
    containments are all the covers there are, and adding vertices in
    rank order lists them in canonical order."""
    simplices = X.simplices()
    S = set(simplices)
    covers = {
        s: tuple(s | {v} for v in X.vertices if v not in s and s | {v} in S)
        for s in simplices
    }
    return Poset(simplices, covers)


def random_complex(rng, n_max=6, f_max=5, dim_max=3):
    n = rng.randint(1, n_max)
    verts = list(range(1, n + 1))
    facets = []
    for _ in range(rng.randint(1, f_max)):
        k = rng.randint(1, min(n, dim_max + 1))
        facets.append(rng.sample(verts, k))
    return SimplicialComplex.from_facets(facets)


def test_bits_of_lists_the_set_bits_lowest_first():
    rng = random.Random(60)
    wide = [rng.getrandbits(60) | 1 << 59 for _ in range(20)] + [(1 << 60) - 1, 1 << 59]
    for m in [*range(1 << 12), *wide]:
        bits = bits_of(m)
        assert all(b & (b - 1) == 0 and b > 0 for b in bits), m
        assert bits == sorted(set(bits)), m
        assert reduce(or_, bits, 0) == m, m
        assert len(bits) == m.bit_count(), m


def test_closure_matches_enumeration():
    rng = random.Random(11)
    for _ in range(50):
        X = random_complex(rng)
        assert set(X.simplex_set()) == closure_by_hand(X.facets)


def test_facet_absorption():
    X = SimplicialComplex.from_facets([[1, 2, 3], [1, 2], [3], [2, 3]])
    assert X.facets == frozenset([frozenset([1, 2, 3])])


def test_from_facets_rejects_bad_input():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([[1, 1, 2]])
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([[]])


def test_simplices_canonical_order():
    X = core_fixture("delta2")
    got = [tuple(sorted(s)) for s in X.simplices()]
    assert got == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]


FIXTURE_SHAPE = {
    # name: (dim, f_vector)
    "point": (0, (1,)),
    "delta1": (1, (2, 1)),
    "path2": (1, (3, 2)),
    "boundary_delta2": (1, (3, 3)),
    "delta2": (2, (3, 3, 1)),
    "boundary_delta3": (2, (4, 6, 4)),
    "wedge_triangles": (1, (5, 6)),
    "rp2": (2, (6, 15, 10)),
}


def test_fixture_shapes():
    for name, (dim, fv) in FIXTURE_SHAPE.items():
        X = core_fixture(name)
        assert X.dim == dim, name
        assert X.f_vector() == fv, name


def test_core_fixture_unknown_name():
    with pytest.raises(ValueError):
        core_fixture("klein_bottle")


def test_contains_and_len():
    X = core_fixture("boundary_delta2")
    assert frozenset([1, 2]) in X
    assert frozenset([1, 2, 3]) not in X
    assert len(X) == 6


def test_face_poset_covers_match_brute_force():
    rng = random.Random(23)
    for _ in range(30):
        X = random_complex(rng)
        P = face_poset(X)
        simp = set(X.simplex_set())
        want = {
            (a, b)
            for a in simp
            for b in simp
            if a < b and len(b) == len(a) + 1
        }
        assert set(P.cover_pairs()) == want


def test_maximal_chains_are_saturated_and_complete():
    X = core_fixture("delta2")
    P = face_poset(X)
    chains = P.maximal_chains()
    # vertex < edge < triangle, and each edge contains two vertices
    assert len(chains) == 6
    mins = set(P.minimal_elements())
    for ch in chains:
        assert ch[0] in mins
        for a, b in zip(ch, ch[1:]):
            assert a < b and len(b) == len(a) + 1


def test_subdivision_of_circle_is_hexagon():
    X = core_fixture("boundary_delta2")
    sd = barycentric_subdivision(X)
    v = {frozenset([1]), frozenset([2]), frozenset([3])}
    e = {frozenset([1, 2]), frozenset([1, 3]), frozenset([2, 3])}
    want = set()
    for edge in e:
        for vert in v:
            if vert < edge:
                want.add(frozenset([vert, edge]))
    assert sd.facets == frozenset(want)
    assert sd.f_vector() == (6, 6)


def test_subdivision_f_vectors():
    assert barycentric_subdivision(core_fixture("delta1")).f_vector() == (3, 2)
    assert barycentric_subdivision(core_fixture("delta2")).f_vector() == (7, 12, 6)


def test_subdivision_is_order_complex_of_face_poset():
    """Prefix chains of facet orderings, against the maximal chains of the
    face poset, at depths 1 and 2."""
    for name in CORE_FIXTURE_NAMES:
        X = core_fixture(name)
        Y = order_complex(face_poset(X))
        assert barycentric_subdivision(X) == Y, name
        assert barycentric_subdivision(X, 2) == order_complex(face_poset(Y)), name


def test_subdivision_preserves_euler():
    rng = random.Random(5)
    for _ in range(25):
        X = random_complex(rng, n_max=5, dim_max=2)
        assert euler_characteristic(barycentric_subdivision(X)) == euler_characteristic(X)
    Y = core_fixture("boundary_delta3")
    assert euler_characteristic(barycentric_subdivision(Y, 2)) == euler_characteristic(Y)


def test_subdivision_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        barycentric_subdivision(core_fixture("delta1"), 0)


def test_json_round_trip_is_stable():
    # file labels are strings, so one round trip stringifies; after that
    # the mapping is the identity and shape data survives unchanged
    for name in FIXTURE_SHAPE:
        X = core_fixture(name)
        d = complex_to_dict(X)
        Y = complex_from_dict(d)
        assert complex_to_dict(Y) == d
        assert Y.f_vector() == X.f_vector()


def test_json_round_trip_subdivision_labels():
    # subdivision vertices are simplices; serialization renders them as strings
    sd = barycentric_subdivision(core_fixture("delta1"))
    d = complex_to_dict(sd)
    assert d["facets"] == [["{1}", "{1,2}"], ["{1,2}", "{2}"]]


def test_save_and_load(tmp_path):
    X = core_fixture("wedge_triangles")
    p = tmp_path / "wedge.json"
    save_complex(X, str(p))
    loaded = load_complex(str(p))
    assert complex_to_dict(loaded) == complex_to_dict(X)
    assert loaded.f_vector() == X.f_vector()


def test_complex_from_dict_validation():
    with pytest.raises(ValueError):
        complex_from_dict({})
    with pytest.raises(ValueError):
        complex_from_dict({"facets": "nope"})
    with pytest.raises(ValueError):
        complex_from_dict({"facets": [[1, 2]]})
