"""Independent oracles for the benchmark's correctness checks.

Nothing here imports qgs.  Every expected value is computed from
networkx or from a closed formula, so a fault in the program cannot
hide in the oracle that checks it.  Graphs are given as a vertex count
``n`` (vertices 0..n-1) and a list of undirected edges.
"""

from fractions import Fraction
from math import comb

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher


def adjacency(n, edges):
    """Neighbour sets of a simple undirected graph."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def automorphisms(n, edges):
    """Every automorphism as a tuple p, where p[v] is the image of v.

    Enumerated by networkx's VF2 matcher, not by qgs's backtracking."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return [tuple(m[v] for v in range(n))
            for m in GraphMatcher(g, g).isomorphisms_iter()]


def vertex_orbits(n, auts):
    """The orbit partition of the vertices, as a set of frozensets."""
    return {frozenset(p[v] for p in auts) for v in range(n)}


def burnside_count(n, auts, k):
    """Number of orbits of the group on V^k, by Burnside's lemma.

    A tuple is fixed by p exactly when each of its k coordinates is a
    fixed point of p, so the count is the mean of fix(p)^k."""
    total = sum(sum(1 for v in range(n) if p[v] == v) ** k for p in auts)
    if total % len(auts):
        raise ArithmeticError("Burnside sum is not divisible by |G|")
    return total // len(auts)


def catalan(k):
    """C_k, the number of noncrossing partitions of k points."""
    return comb(2 * k, k) // (k + 1)


def fuss_catalan(k):
    """C(3k, k) / (2k + 1): noncrossing partitions of 2k points into
    blocks of even size."""
    return comb(3 * k, k) // (2 * k + 1)


def tree_closed_walks(r, length):
    """Closed walks of the given length from the root of the r-regular
    tree, by recursion on the distance from the root."""
    at = {0: 1}
    for _ in range(length):
        nxt = {}
        for d, c in at.items():
            if d == 0:
                nxt[1] = nxt.get(1, 0) + r * c
            else:
                nxt[d - 1] = nxt.get(d - 1, 0) + c
                nxt[d + 1] = nxt.get(d + 1, 0) + (r - 1) * c
        at = nxt
    return at.get(0, 0)


def reduces_to_identity(word):
    """True when a word in involutions (a a = 1 for every letter) is the
    identity of their free product: adjacent equal letters cancel."""
    stack = []
    for letter in word:
        if stack and stack[-1] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return not stack


def pointed_hom_count(pattern_n, pattern_edges, base, adj, image):
    """Homomorphisms from the pattern to the graph sending base to image.

    Plain backtracking over the pattern vertices in breadth-first order
    from the basepoint; adj is the target's list of neighbour sets."""
    padj = adjacency(pattern_n, pattern_edges)
    order, seen = [base], {base}
    for v in order:
        for w in sorted(padj[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    if len(order) != pattern_n:
        raise ValueError("pattern must be connected")
    phi = {base: image}

    def extend(idx):
        if idx == len(order):
            return 1
        v = order[idx]
        placed = [phi[w] for w in padj[v] if w in phi]
        cands = set.intersection(*(adj[x] for x in placed))
        total = 0
        for c in cands:
            phi[v] = c
            total += extend(idx + 1)
        phi.pop(v, None)
        return total

    return extend(1)


def classical_haar(auts, i, j, e):
    """phi_e(u_{i1 j1} ... u_{in jn}) on the classical automorphism group.

    The Haar integral of the word is the share of automorphisms with
    p(j_k) = i_k for every k; dividing by the integral of u_ee, which is
    |Stab(e)| / |Aut|, normalises the functional so that phi_e(u_ee) = 1.
    """
    hits = sum(1 for p in auts if all(p[b] == a for a, b in zip(i, j)))
    stab = sum(1 for p in auts if p[e] == e)
    return Fraction(hits, stab)


def grandparent_parent(key):
    """Tree parent of a grandparent-graph vertex written '(k|w)'.

    k counts steps up the spine from the base vertex and w is a descent
    word below spine vertex k, so the parent drops the last letter of w,
    or moves one step up the spine when w is empty."""
    k, w = key[1:-1].split("|")
    if w:
        return "(%s|%s)" % (k, w[:-1])
    return "(%d|)" % (int(k) + 1)
