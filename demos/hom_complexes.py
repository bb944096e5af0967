"""
Multihomomorphism complexes and common-neighbor witnesses
=========================================================

Hom(G, H) assigns each vertex of G a nonempty set of H-vertices so that
every G-edge induces a complete bipartite connection.  Ordered by
pointwise inclusion it becomes a poset; its order complex is the space
we take homology of.
"""

from homcx import (
    build_g_kx,
    common_neighbor_witness,
    complete_graph,
    core_fixture,
    enumerate_hom,
    fold_reduce,
    greedy_collapse,
    hom_order_complex,
    homology,
    looped_edge_graph,
    render_label,
)

# Hom(K_2, K_3) is the classic warm-up: twelve elements in a circle.
P = enumerate_hom(complete_graph(2), complete_graph(3))
print("Hom(K_2, K_3):", len(P.elements), "elements")
OC = hom_order_complex(P)
print("order complex f-vector:", OC.f_vector(), "homology:", homology(OC).betti)
print()

# The same for the containment graph of the hollow triangle.
X = core_fixture("boundary_delta2")
G = build_g_kx(X, 1)
P = enumerate_hom(complete_graph(2), G)
print("Hom(K_2, containment graph of the hollow triangle):", len(P.elements), "elements")
core, _ = greedy_collapse(hom_order_complex(P))
print("homology:", homology(core).betti, " (the space itself has", homology(X).betti, ")")
print()

# Every element admits a common neighbor of all its image sets, found
# constructively; the trace shows the fused-simplex chain.  An element
# keeps its images as bit masks over the target's vertices; printing it
# decodes them to the simplices they stand for.
eta = P.elements[40]
print("an element:", eta)
tr = common_neighbor_witness(eta, G)
print("  fused chain:", " -> ".join(render_label(t) for t in tr.tau_chain))
print("  witness:", render_label(tr.witness))
print()

# A looped edge folds down to its looped endpoint, so its Hom complex
# into any reflexive graph matches the single-vertex one.
T = looped_edge_graph()
core_graph, steps = fold_reduce(T)
print("looped edge folds to:", core_graph.vertices, "via", [(s.removed, s.witness) for s in steps])
P = enumerate_hom(T, G)
core, _ = greedy_collapse(hom_order_complex(P))
print("Hom(looped edge, containment graph) homology:", homology(core).betti)
