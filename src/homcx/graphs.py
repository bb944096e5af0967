"""Finite graphs with loops, and the graphs derived from a complex.

The central construction takes a complex X and returns the reflexive
graph on the simplices of its (k-1)-fold subdivision: two distinct
simplices are adjacent exactly when one contains the other, and every
vertex carries a loop.  Neighborhood and clique complexes of such graphs
recover the subdivision combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .canon import canonical_order, render_label
from .simplicial import SimplicialComplex, barycentric_subdivision

__all__ = [
    "Graph",
    "FoldStep",
    "complete_graph",
    "build_g_kx",
    "common_neighborhood",
    "neighborhood_complex",
    "clique_complex",
    "find_fold",
    "fold_reduce",
    "diameter",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "save_graph",
]


class Graph:
    """Undirected graph; loops allowed, multi-edges not.  ``vertices`` is
    in canonical order and ``rank`` maps each vertex to its position there."""

    def __init__(self, vertices: Iterable[Any], edges: Iterable[Iterable[Any]]):
        self.vertices, self.rank = canonical_order(set(vertices))
        adj: dict[Any, set] = {v: set() for v in self.vertices}
        edge_set = set()
        for e in edges:
            pair = list(e)
            if len(pair) != 2:
                raise ValueError(f"edge {pair!r} does not have two endpoints")
            a, b = pair
            if a not in self.rank or b not in self.rank:
                raise ValueError(f"edge {pair!r} mentions an unknown vertex")
            if self.rank[b] < self.rank[a]:
                a, b = b, a
            edge_set.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self.edges = frozenset(edge_set)
        self._adj = {v: frozenset(nb) for v, nb in adj.items()}

    def neighbors(self, v: Any) -> frozenset:
        """Neighbors of v; contains v itself exactly when v has a loop."""
        return self._adj[v]

    def has_edge(self, a: Any, b: Any) -> bool:
        return b in self._adj[a] if a in self._adj else False

    def has_loop(self, v: Any) -> bool:
        return v in self._adj[v]

    def loop_count(self) -> int:
        return sum(1 for a, b in self.edges if a == b)

    def remove_vertex(self, u: Any) -> "Graph":
        if u not in self._adj:
            raise ValueError(f"no vertex {u!r}")
        return Graph(
            (v for v in self.vertices if v != u),
            ((a, b) for a, b in self.edges if a != u and b != u),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), self.edges))

    def __repr__(self) -> str:
        return (
            f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{self.loop_count()} loops)"
        )


@dataclass(frozen=True)
class FoldStep:
    """One fold: ``removed`` had its neighborhood contained in ``witness``'s."""

    removed: Any
    witness: Any


def complete_graph(n: int, loops: bool = False) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    vertices = range(1, n + 1)
    edges = [(i, j) for i in vertices for j in vertices if i < j]
    if loops:
        edges += [(i, i) for i in vertices]
    return Graph(vertices, edges)


def build_g_kx(X: SimplicialComplex, k: int = 1) -> Graph:
    """Reflexive containment graph on the simplices of the (k-1)-fold
    subdivision of X.  For k = 1 the vertices are the simplices of X
    itself; adjacency is strict containment either way, plus a loop at
    every vertex."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    Y = X if k == 1 else barycentric_subdivision(X, k - 1)
    simplices = Y.simplices()
    edges: list[tuple] = [(s, s) for s in simplices]
    for i, s in enumerate(simplices):
        for t in simplices[i + 1 :]:
            if s < t or t < s:
                edges.append((s, t))
    return Graph(simplices, edges)


def common_neighborhood(G: Graph, A: Iterable[Any]) -> frozenset:
    """Vertices adjacent to every member of A (closed under loops)."""
    members = list(A)
    if not members:
        raise ValueError("common neighborhood of an empty set is undefined")
    result = set(G.neighbors(members[0]))
    for v in members[1:]:
        result &= G.neighbors(v)
    return frozenset(result)


def neighborhood_complex(G: Graph) -> SimplicialComplex:
    """Complex generated by the vertex neighborhoods of G.

    Isolated vertices do not appear.  A graph with no edges yields the
    empty complex.
    """
    return SimplicialComplex(G.neighbors(v) for v in G.vertices if G.neighbors(v))


def clique_complex(G: Graph) -> SimplicialComplex:
    """Flag complex of G.  Loops are ignored for the pair condition, so
    every vertex appears as a 0-simplex even if isolated."""
    return SimplicialComplex([frozenset(c) for c in _maximal_cliques(G)])


def _maximal_cliques(G: Graph):
    """Bron-Kerbosch with Tomita pivoting, loop edges stripped.

    Each call picks the pivot u among candidates and excluded vertices
    with the most neighbours among the candidates, and branches only on
    the candidates outside N(u): a clique of u's neighbours alone could
    still take u, so it is not maximal.  Calls wait on a stack, not in
    recursion; each opens all its branches at once, in recursive order.

    The pivot scan stops at the first vertex whose count is the largest
    possible: all the candidates if something is excluded, else all but
    one, as no vertex counts itself.  A full scan picks that same vertex,
    so on K_n, where each call has one candidate fewer and nothing
    excluded, the scans cost n^2 and not n^3 steps.
    """
    adj = {v: G.neighbors(v) - {v} for v in G.vertices}
    stack = [([], set(G.vertices), set())]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            # the empty graph has no clique, not the empty one
            if clique and not excluded:
                yield tuple(clique)
            continue
        bound = len(candidates) if excluded else len(candidates) - 1
        pivot, best = None, -1
        for u in candidates | excluded:
            count = len(candidates & adj[u])
            if count > best:
                pivot, best = u, count
                if count == bound:
                    break
        branches = []
        for v in [v for v in candidates if v not in adj[pivot]]:
            branches.append((clique + [v], candidates & adj[v], excluded & adj[v]))
            candidates.remove(v)
            excluded.add(v)
        stack.extend(reversed(branches))


def find_fold(G: Graph) -> FoldStep | None:
    """First pair (u, v), u removable, with N(u) contained in N(v).

    Scans removable vertices in canonical order, witnesses likewise.
    """
    for u in G.vertices:
        nu = G.neighbors(u)
        for v in G.vertices:
            if u == v:
                continue
            if nu <= G.neighbors(v):
                return FoldStep(removed=u, witness=v)
    return None


def fold_reduce(G: Graph) -> tuple[Graph, list[FoldStep]]:
    """Fold until no fold applies; returns the core and the fold history."""
    steps: list[FoldStep] = []
    H = G
    while True:
        step = find_fold(H)
        if step is None:
            return H, steps
        steps.append(step)
        H = H.remove_vertex(step.removed)


def diameter(G: Graph) -> int:
    """Largest pairwise distance, loops ignored.  Raises on a disconnected
    graph (infinite diameter)."""
    if not G.vertices:
        raise ValueError("diameter of the empty graph is undefined")
    best = 0
    for source in G.vertices:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in G.neighbors(v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) != len(G.vertices):
            raise ValueError("infinite diameter: graph is disconnected")
        best = max(best, max(dist.values()))
    return best


# ---------------------------------------------------------------------------
# JSON form: {"vertices": [...], "edges": [[a, b], ...]}, loop as [v, v].

def graph_to_dict(G: Graph) -> dict:
    rendered = {v: render_label(v) for v in G.vertices}
    edges = sorted(
        ([rendered[a], rendered[b]] for a, b in G.edges),
        key=lambda e: (e[0], e[1]),
    )
    return {"vertices": [rendered[v] for v in G.vertices], "edges": edges}


def graph_from_dict(data: dict) -> Graph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError('graph JSON needs "vertices" and "edges" keys')
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError('"vertices" must be a list of string labels')
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)
        for e in edges
    ):
        raise ValueError('"edges" must be a list of pairs of string labels')
    return Graph(vertices, edges)


def load_graph(path: str) -> Graph:
    import json

    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def save_graph(G: Graph, path: str) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(graph_to_dict(G), fh, indent=2, sort_keys=True)
        fh.write("\n")
