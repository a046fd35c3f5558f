"""Planar isomorphism testing by pointed homomorphism counts.

Two graphs are compared through the counts of pointed connected
planar patterns up to a depth.  Isomorphic graphs are always
indistinguishable; distinguishable pairs come with a reproducible
witness pattern.
"""

from qgs import quantiso
from qgs.graphs import FiniteGraph, cycle_graph, path_graph

# an isomorphic pair: C5 and a relabeling of it
c5 = cycle_graph(5)
perm = [3, 0, 4, 1, 2]
h = FiniteGraph(5, [(perm[u], perm[v]) for (u, v) in c5.undirected_edges()])
v = quantiso.planar_iso_test(c5, h, depth=5)
print("C5 vs relabeled C5:", v.status)
print("  class bijection:", v.bijection)

# a distinguished pair: C4 vs P4 (degrees already differ)
v = quantiso.planar_iso_test(cycle_graph(4), path_graph(4), depth=5)
print("\nC4 vs P4:", v.status)
w = v.witness
print("  witness pattern:", w["pattern"], "based at", w["basepoint"])
print("  counts: %d on class %s of C4, %d on class %s of P4"
      % (w["count1"], w["orbit1"], w["count2"], w["orbit2"]))
# the counts are reproducible from the homomorphism rows, independently
# of the signature tensors
print("  reproduced:",
      quantiso.pointed_hom_count(w["pattern"], w["basepoint"],
                                 cycle_graph(4), w["orbit1"][0]),
      quantiso.pointed_hom_count(w["pattern"], w["basepoint"],
                                 path_graph(4), w["orbit2"][0]))
