"""Bi-labeled graphs and homomorphism matrices.

A bi-labeled graph is a finite graph with ordered input and output
label tuples.  Its homomorphism matrix over a target graph counts the
homomorphisms pinning the labels, and the matrix assignment turns the
diagrammatic operations (composition, tensor, transpose, reversal)
into the matching matrix operations.
"""

from qgs import bilabeled as B, hommat as H
from qgs.graphs import FiniteGraph, cycle_graph
from qgs.quantiso import SIGNATURE_BUDGET_BYTES

c4 = cycle_graph(4)

# a path with both endpoints labeled: x = (0,), y = (2,)
path = B.BiLabeled(FiniteGraph(3, [(0, 1), (1, 2)]), (0,), (2,))
hm = H.hom_matrix(path, c4, SIGNATURE_BUDGET_BYTES)
print("path of length 2 over C4:")
for (i, j), v in sorted(hm.entries.items()):
    print("  T[%s, %s] = %d" % (i, j, v))

# composing two such paths gives a path of length 4, and the matrix
# of the composite is the matrix product
double = B.compose(path, path)
hm2 = H.hom_matrix(double, c4, SIGNATURE_BUDGET_BYTES)
print("\ncomposite (length-4 path) entry T[(0,),(0,)]:",
      hm2.entry((0,), (2,)))

# the adjacency gadget: one edge, both vertices labeled
adj = B.adjacency_gadget()
print("\nadjacency matrix of C4 via the one-edge gadget:")
ha = H.hom_matrix(adj, c4, SIGNATURE_BUDGET_BYTES)
for i in range(4):
    print(" ", [ha.entry((i,), (j,)) for j in range(4)])
