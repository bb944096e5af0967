"""
Collapse certificates you can replay
====================================

Two flavors of collapse.  The greedy one removes free pairs until none
remain and is how homology computations stay small.  The staged one
walks the nested neighborhood filtration K_1 > K_2 > ... of the
containment graph, certifying each stage; every certificate replays from
scratch by plain set arithmetic.
"""

from homcx import (
    SimplicialComplex,
    core_fixture,
    greedy_collapse,
    kl_filtration,
    render_label,
    replay_certificate,
    verify_kl_collapse_sequence,
)


def show(simplex):
    return "{" + ", ".join(render_label(v) for v in sorted(simplex, key=lambda s: (len(s), sorted(s)))) + "}"


# --- greedy: a solid tetrahedron goes all the way down to a vertex
X = SimplicialComplex.from_facets([[1, 2, 3, 4]])
core, cert = greedy_collapse(X)
print("solid tetrahedron:", len(X), "simplices ->", len(core))
print("steps taken:", len(cert.steps), "| replays cleanly:", replay_certificate(cert))
print()

# --- staged: the filtration of the hollow triangle's containment graph
X = core_fixture("boundary_delta2")
F = kl_filtration(X)
print("filtration order:", ", ".join(render_label(s) for s in F.order))
print("p =", F.p, " q =", F.q, " stages =", F.p - F.q)
for i, K in enumerate(F.complexes):
    print(f"  K_{i + 1}: {len(K)} simplices, f-vector {K.f_vector()}")
print()

# A step is a pair of vertex bitmasks of the start complex; its view
# decodes them back to simplices.
cert = verify_kl_collapse_sequence(F)
label = cert.start.masks.label
for i, stage in enumerate(cert.stages):
    print(f"stage {i + 1}:")
    for step in stage:
        print("  free face", show(label(step.tau)), "under facet", show(label(step.sigma)))
print()
print("certificate replays cleanly:", replay_certificate(cert))

# The same machinery runs on every fixture, including the projective
# plane, whose filtration needs 25 stages.
F = kl_filtration(core_fixture("rp2"))
cert = verify_kl_collapse_sequence(F)
print("projective plane: ", len(cert.stages), "stages,", len(cert.steps), "collapses,",
      "replay ok:", replay_certificate(cert))
