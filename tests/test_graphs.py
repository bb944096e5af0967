"""Reflexive containment graphs, folds, and the derived complexes."""

import inspect
import random
import sys
from itertools import combinations

import pytest

from homcx import (
    Graph,
    SimplicialComplex,
    build_g_kx,
    clique_complex,
    common_neighborhood,
    complete_graph,
    core_fixture,
    diameter,
    find_fold,
    fold_reduce,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    looped_edge_graph,
    neighborhood_complex,
    render_label,
    save_graph,
)


def random_graph(rng, n_max=5, p_edge=0.5, p_loop=0.3):
    n = rng.randint(1, n_max)
    verts = list(range(1, n + 1))
    edges = []
    for u, v in combinations(verts, 2):
        if rng.random() < p_edge:
            edges.append((u, v))
    for v in verts:
        if rng.random() < p_loop:
            edges.append((v, v))
    return Graph(vertices=verts, edges=edges)


def brute_common_neighborhood(G, A):
    out = set()
    for v in G.vertices:
        if all(G.has_edge(v, a) for a in A):
            out.add(v)
    return frozenset(out)


def brute_neighborhood_membership(G, A):
    """A is a simplex of N(G) iff some vertex neighbors everything in A."""
    return any(all(G.has_edge(w, a) for a in A) for w in G.vertices)


def brute_clique_membership(G, A):
    return all(G.has_edge(u, v) for u, v in combinations(sorted(A), 2))


def test_complete_graph_counts():
    K4 = complete_graph(4)
    assert K4.vertices == (1, 2, 3, 4)
    assert len(K4.edges) == 6
    assert K4.loop_count() == 0
    K3r = complete_graph(3, loops=True)
    assert len(K3r.edges) == 6
    assert K3r.loop_count() == 3
    assert all(K3r.has_loop(v) for v in K3r.vertices)


def test_g1x_of_edge():
    G = build_g_kx(core_fixture("delta1"), 1)
    labels = [render_label(v) for v in G.vertices]
    assert labels == ["{1}", "{1,2}", "{2}"]
    assert G.loop_count() == 3
    f1, f2, f12 = frozenset([1]), frozenset([2]), frozenset([1, 2])
    assert G.has_edge(f1, f12) and G.has_edge(f2, f12)
    assert not G.has_edge(f1, f2)
    assert len(G.edges) == 5


def test_g1x_of_triangle_boundary_is_looped_hexagon():
    G = build_g_kx(core_fixture("boundary_delta2"), 1)
    assert len(G.vertices) == 6
    assert G.loop_count() == 6
    assert len(G.edges) == 12
    # every singleton meets exactly its two containing edges
    for a in (1, 2, 3):
        nb = G.neighbors(frozenset([a]))
        assert len(nb) == 3  # itself plus two edges
        assert sum(1 for x in nb if len(x) == 2) == 2
    # equal-dimension simplices are never adjacent
    for u, v in combinations(G.vertices, 2):
        if len(u) == len(v):
            assert not G.has_edge(u, v)


def test_g1x_adjacency_is_strict_containment():
    for name in ("path2", "delta2", "boundary_delta3"):
        G = build_g_kx(core_fixture(name), 1)
        for u in G.vertices:
            for v in G.vertices:
                if u == v:
                    assert G.has_edge(u, v)
                else:
                    assert G.has_edge(u, v) == (u < v or v < u)


def test_g2x_lives_on_first_subdivision():
    from homcx import barycentric_subdivision

    X = core_fixture("delta1")
    G = build_g_kx(X, 2)
    sd = barycentric_subdivision(X, 1)
    assert frozenset(G.vertices) == frozenset(sd.simplex_set())


def test_common_neighborhood_matches_brute_force():
    rng = random.Random(31)
    for _ in range(60):
        G = random_graph(rng)
        verts = list(G.vertices)
        k = rng.randint(1, len(verts))
        A = rng.sample(verts, k)
        assert common_neighborhood(G, A) == brute_common_neighborhood(G, A)


def test_common_neighborhood_rejects_empty_set():
    with pytest.raises(ValueError):
        common_neighborhood(complete_graph(3), [])


def test_neighborhood_complex_membership_oracle():
    rng = random.Random(47)
    for _ in range(40):
        G = random_graph(rng)
        N = neighborhood_complex(G)
        simp = set(N.simplex_set())
        verts = list(G.vertices)
        for r in range(1, len(verts) + 1):
            for A in combinations(verts, r):
                assert (frozenset(A) in simp) == brute_neighborhood_membership(G, A)


def test_neighborhood_complex_of_edgeless_graph_is_empty():
    G = Graph(vertices=[1, 2, 3], edges=[])
    N = neighborhood_complex(G)
    assert len(N) == 0


def test_clique_complex_membership_oracle():
    rng = random.Random(53)
    for _ in range(40):
        G = random_graph(rng)
        C = clique_complex(G)
        simp = set(C.simplex_set())
        verts = list(G.vertices)
        for r in range(1, len(verts) + 1):
            for A in combinations(verts, r):
                want = brute_clique_membership(G, A) if r > 1 else True
                assert (frozenset(A) in simp) == want


def test_clique_complex_of_the_empty_graph_is_empty():
    assert clique_complex(Graph([], [])) == SimplicialComplex([])


def test_clique_complex_ignores_loops():
    G = Graph(vertices=["a", "b"], edges=[("a", "a"), ("a", "b")])
    C = clique_complex(G)
    assert C.facets == frozenset([frozenset(["a", "b"])])


def test_clique_search_keeps_no_frame_per_clique_vertex():
    K = complete_graph(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        C = clique_complex(K)
    finally:
        sys.setrecursionlimit(limit)
    assert C.facets == frozenset([frozenset(range(1, 301))])


def test_fold_of_looped_edge():
    T = looped_edge_graph()
    step = find_fold(T)
    assert step is not None
    assert step.removed == "a" and step.witness == "b"
    core, steps = fold_reduce(T)
    assert core.vertices == ("b",)
    assert core.has_loop("b")
    assert [(s.removed, s.witness) for s in steps] == [("a", "b")]


def test_reflexive_complete_graph_folds_to_looped_point():
    core, steps = fold_reduce(complete_graph(4, loops=True))
    assert len(core.vertices) == 1
    assert core.loop_count() == 1
    assert len(steps) == 3


def test_fold_reduce_on_four_cycle():
    C4 = Graph(vertices=["a", "b", "c", "d"],
               edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    core, steps = fold_reduce(C4)
    # a folds into c, then b into d; the loopless edge c-d is fold-free
    assert [(s.removed, s.witness) for s in steps] == [("a", "c"), ("b", "d")]
    assert set(core.vertices) == {"c", "d"}
    assert find_fold(core) is None


def test_five_cycle_has_no_fold():
    C5 = Graph(vertices=list(range(5)),
               edges=[(i, (i + 1) % 5) for i in range(5)])
    assert find_fold(C5) is None


def antichains(subsets):
    """Every antichain of the given sets under inclusion."""
    if not subsets:
        yield ()
        return
    first, rest = subsets[0], subsets[1:]
    yield from antichains(rest)
    incomparable = [s for s in rest if not (s <= first or first <= s)]
    for chain in antichains(incomparable):
        yield (first,) + chain


def small_complexes():
    """The facets of each of the 126 complexes whose vertex set is exactly
    {1..n}, n <= 4: the antichains of subsets covering it."""
    for n in range(1, 5):
        full = frozenset(range(1, n + 1))
        subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(full, k)]
        yield from (a for a in antichains(subsets) if frozenset().union(*a) == full)


def test_g1x_folds_exactly_onto_the_only_facet_above():
    """In G_{1,X}, N(u) <= N(v) for u != v exactly when v is the only facet
    of X containing u, in any codimension, so G_{1,X} has no fold exactly
    when X has no free face.  Checked on all 126 complexes whose vertex set
    is exactly {1..n}, n <= 4."""
    complexes = deep_folds = 0
    for facets in small_complexes():
        complexes += 1
        G = build_g_kx(SimplicialComplex.from_facets(facets), 1)
        above = {u: [f for f in facets if u <= f] for u in G.vertices}
        for u in G.vertices:
            for v in G.vertices:
                if u != v:
                    folds = G.neighbors(u) <= G.neighbors(v)
                    assert folds == (above[u] == [v]), (facets, u, v)
                    deep_folds += folds and len(v) - len(u) >= 2
        free = any(len(above[u]) == 1 and u not in facets for u in G.vertices)
        assert (find_fold(G) is None) == (not free), facets
    assert complexes == 126
    assert deep_folds == 73


def test_diameter():
    P = Graph(vertices=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])
    assert diameter(P) == 2
    assert diameter(complete_graph(5)) == 1
    assert diameter(complete_graph(1, loops=True)) == 0
    with pytest.raises(ValueError):
        diameter(Graph(vertices=[1, 2], edges=[]))


def test_remove_vertex_drops_incident_edges():
    G = complete_graph(4, loops=True)
    H = G.remove_vertex(2)
    assert H.vertices == (1, 3, 4)
    assert all(2 not in e for e in H.edges)
    assert H.loop_count() == 3


def test_graph_json_round_trip():
    G = looped_edge_graph()
    d = graph_to_dict(G)
    assert d == {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "b"]]}
    H = graph_from_dict(d)
    assert graph_to_dict(H) == d


def test_graph_save_and_load(tmp_path):
    G = build_g_kx(core_fixture("delta1"), 1)
    p = tmp_path / "g.json"
    save_graph(G, str(p))
    H = load_graph(str(p))
    d = graph_to_dict(G)
    d2 = graph_to_dict(H)
    # labels stringify on disk, which reorders them; content is unchanged
    # and a second trip is the identity
    assert set(d2["vertices"]) == set(d["vertices"])
    assert {frozenset(e) for e in d2["edges"]} == {frozenset(e) for e in d["edges"]}
    assert graph_to_dict(graph_from_dict(d2)) == d2


def test_graph_from_dict_validation():
    with pytest.raises(ValueError):
        graph_from_dict({"vertices": ["a"]})
    with pytest.raises(ValueError):
        graph_from_dict({"vertices": ["a"], "edges": [["a", "b"]]})
