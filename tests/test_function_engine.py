"""Tests for the function engine on finite graphs.

On a finite graph the engine reads its bases off the coherent closure of
its seeds: the indicators of the pair atoms and of the diagonal atoms.
These tests compare the atoms with a reference refinement over dicts of
seeds counted by `hom_matrix`, and their span with a reference closure
of the seeds over `RatSpan`, both kept here as oracles; they freeze the
atom counts of the benchmark and test graphs and the orbits of a
60-vertex graph, and check that everything the engine and its minimal
projections report moves with a relabeling of the vertices."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import qgs.morspace as ms
from qgs.bilabeled import BiLabeled
from qgs.graphs import FiniteGraph
from qgs.hommat import hom_matrix
from qgs.quantiso import SIGNATURE_BUDGET_BYTES, planar_patterns
from qgs.ratmat import RatSpan


def engine(g):
    return ms.FunctionEngine(ms.Scene.finite(g))


def ranks(fe):
    return len(fe.f0_items), len(fe.f1_items)


def seeds(g):
    """The engine's seeds as (vertex functions, pair functions): the
    diagonal, and the pinned count of every planar pattern on at most
    GADGET_VERTICES vertices at every pair of pins, with its diagonal
    as a vertex function where the pins coincide."""
    f0, f1 = [], [{(u, u): 1 for u in range(g.vertex_count)}]
    for pat in planar_patterns(ms.GADGET_VERTICES):
        for x1, x2 in itertools.product(range(pat.vertex_count), repeat=2):
            hm = hom_matrix(BiLabeled(pat, (x1, x2), (x1, x2)), g,
                            SIGNATURE_BUDGET_BYTES)
            fn = {i: c for (i, _j), c in hm.entries.items()}
            f1.append(fn)
            if x1 == x2:
                f0.append({u: c for (u, v), c in fn.items() if u == v})
    return f0, f1


def reference_atoms(g):
    """The pair atoms of the coherent closure of the seeds, each a list
    of pairs, in the order of their least pairs, by 2-dimensional
    Weisfeiler-Leman refinement over dicts: each pair starts coloured by
    its values under every seed and is refined by
    c'(u, v) = (c(u, v), c(v, u), multiset of (c(u, w), c(w, v))),
    until the number of colours stops growing."""
    verts = range(g.vertex_count)
    pairs = list(itertools.product(verts, repeat=2))
    f1 = seeds(g)[1]
    colour = {p: tuple(fn.get(p, 0) for fn in f1) for p in pairs}
    count = len(set(colour.values()))
    while True:
        ids = {}
        c = {p: ids.setdefault(k, len(ids)) for p, k in colour.items()}
        colour = {(u, v): (c[u, v], c[v, u],
                           tuple(sorted((c[u, w], c[w, v]) for w in verts)))
                  for (u, v) in pairs}
        grown = len(set(colour.values()))
        if grown == count:
            break
        count = grown
    atoms = {}
    for p in pairs:
        atoms.setdefault(colour[p], []).append(p)
    return list(atoms.values())


def reference_closure(g):
    """Bases (f0, f1) of the spans generated from the seeds by pointwise
    product, swap, diagonal restriction, left and right scaling by a
    vertex function, row and column sums and convolution, run until a
    round adds nothing.  Every operation is applied to every pair of
    items of which at least one is new."""
    spans = (RatSpan(), RatSpan())
    items = ([], [])

    def offer(arity, fns):
        new = [fn for fn in fns if spans[arity].add(fn)]
        items[arity].extend(new)
        return new

    f0_seeds, f1_seeds = seeds(g)
    new0, new1 = offer(0, f0_seeds), offer(1, f1_seeds)
    while new0 or new1:
        f0, f1 = items
        c0, c1 = [], []
        for a in new1:
            for b in f1:
                c1 += [ms._pw_mul(a, b), ms.mat_mul(a, b), ms.mat_mul(b, a)]
            c1.append({(v, u): c for (u, v), c in a.items()})
            c0.append(ms._diagonal(a))
            rows, cols = {}, {}
            for (u, v), c in a.items():
                rows[u] = rows.get(u, 0) + c
                cols[v] = cols.get(v, 0) + c
            c0 += [rows, cols]
        for f, a in itertools.chain(itertools.product(new0, f1),
                                    itertools.product(f0, new1)):
            c1.append({(u, v): f[u] * c for (u, v), c in a.items()
                       if u in f})
            c1.append({(u, v): c * f[v] for (u, v), c in a.items()
                       if v in f})
        for f in new0:
            c0 += [ms._pw_mul(f, b) for b in f0]
        new0, new1 = offer(0, c0), offer(1, c1)
    return items


def constant_on(fn, atoms):
    """Whether fn lies in the span of the indicators of the disjoint
    atoms that cover its support."""
    return all(len({fn.get(k, 0) for k in atom}) == 1 for atom in atoms)


def check_atoms(fe, g):
    """The engine's items are the indicators of a partition of the pairs
    (f1) and of the vertices (f0), the latter being the diagonal atoms;
    returns both partitions."""
    n = g.vertex_count
    pair_atoms = [sorted(fn) for fn, _r, _p in fe.f1_items]
    assert all(set(fn.values()) == {1} for fn, _r, _p in fe.f1_items)
    assert sorted(p for a in pair_atoms for p in a) == sorted(
        itertools.product(range(n), repeat=2))
    vertex_atoms = [sorted(fn) for fn, _p in fe.f0_items]
    assert all(set(fn.values()) == {1} for fn, _p in fe.f0_items)
    assert vertex_atoms == [[u for u, _v in a] for a in pair_atoms
                            if a[0][0] == a[0][1]]
    assert sorted(v for a in vertex_atoms for v in a) == list(range(n))
    # one deterministic order: by least pair
    assert pair_atoms == sorted(pair_atoms)
    return vertex_atoms, pair_atoms


def circulant(n, steps):
    return FiniteGraph(n, sorted({tuple(sorted((i, (i + s) % n)))
                                  for i in range(n) for s in steps}))


def truncated_tetrahedron():
    verts = [(a, b) for a in range(4) for b in range(4) if a != b]
    index = {v: k for k, v in enumerate(verts)}
    edges = set()
    for (a, b) in verts:
        for c in range(4):
            if c not in (a, b):
                edges.add(tuple(sorted((index[a, b], index[a, c]))))
        edges.add(tuple(sorted((index[a, b], index[b, a]))))
    return FiniteGraph(12, sorted(edges))


def petersen():
    return FiniteGraph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)])


# the benchmark's `orbits` graphs (8 vertices last) and `dims` graphs,
# copied here so that the frozen counts below stay tied to them
ORBITS_GRAPHS = [
    FiniteGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]),
    FiniteGraph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 4),
                    (4, 5)]),
    FiniteGraph(7, [(0, 1), (0, 2), (0, 6), (1, 3), (1, 4), (1, 5),
                    (2, 4), (2, 5), (2, 6)]),
    FiniteGraph(8, [(0, 1), (0, 7), (1, 2), (1, 7), (2, 3), (2, 6),
                    (2, 7), (3, 6), (4, 5), (5, 6), (5, 7), (6, 7)]),
]
DIMS_GRAPHS = [
    FiniteGraph(5, [(0, 2), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4),
                    (3, 4)]),
    FiniteGraph(6, [(0, 2), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4),
                    (2, 5), (3, 5)]),
    FiniteGraph(7, [(0, 1), (0, 4), (0, 6), (1, 4), (1, 5), (2, 4),
                    (2, 5), (3, 5), (4, 5), (4, 6)]),
    FiniteGraph(8, [(0, 3), (0, 6), (1, 3), (1, 4), (1, 5), (2, 4),
                    (2, 6), (4, 6), (4, 7), (5, 6), (6, 7)]),
]

# (diagonal atoms, pair atoms) of the coherent closure of the seeds: the
# bound on any generated (f0, f1) rank, and the ranks of the reference
# closure on these connected graphs
FROZEN_ATOM_COUNTS = [
    (ORBITS_GRAPHS[0], (4, 17)), (ORBITS_GRAPHS[1], (6, 36)),
    (ORBITS_GRAPHS[2], (6, 37)), (ORBITS_GRAPHS[3], (8, 64)),
    (DIMS_GRAPHS[0], (3, 10)), (DIMS_GRAPHS[1], (4, 18)),
    (DIMS_GRAPHS[2], (7, 49)), (DIMS_GRAPHS[3], (7, 50)),
    (circulant(11, (1,)), (1, 6)), (circulant(12, (1, 5)), (1, 5)),
    (truncated_tetrahedron(), (1, 7)), (petersen(), (1, 3)),
    (FiniteGraph(12, sorted(nx.frucht_graph().edges())), (12, 144)),
]


@pytest.mark.parametrize("g, bound", FROZEN_ATOM_COUNTS)
def test_frozen_bounds_are_the_final_ranks(g, bound):
    fe = engine(g)
    vertex_atoms, pair_atoms = check_atoms(fe, g)
    assert (len(vertex_atoms), len(pair_atoms)) == bound
    assert ranks(fe) == bound
    assert fe.stable and fe.rounds == 0


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return FiniteGraph(n, [e for e, keep in zip(pairs, mask) if keep])


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_atom_span_is_the_reference_closure(g):
    fe = engine(g)
    vertex_atoms, pair_atoms = check_atoms(fe, g)
    ref0, ref1 = reference_closure(g)
    # the atoms span a space closed under every operation of the
    # reference, which contains its seeds
    assert all(constant_on(fn, [set(a) for a in vertex_atoms])
               for fn in ref0)
    assert all(constant_on(fn, [set(a) for a in pair_atoms])
               for fn in ref1)
    if g.is_connected():
        assert ranks(fe) == (len(ref0), len(ref1))


@st.composite
def loopy_graphs(draw):
    """Graphs on 0..10 vertices with loops; isolated vertices and
    several components are common."""
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return FiniteGraph(n, [e for e, keep in zip(pairs, mask) if keep])


@settings(max_examples=30, deadline=None)
@given(loopy_graphs())
def test_atoms_are_the_reference_refinement(g):
    assert ms._coherent_atoms(g) == reference_atoms(g)


# C60 with three diameters 30 apart in steps of 10: its automorphism
# group is dihedral of order 12, and no vertex count here is small
# enough for a dense q^4 pattern tensor to be cheap
C60_CHORDS = FiniteGraph(60, [(i, (i + 1) % 60) for i in range(60)]
                         + [(i, i + 30) for i in (0, 10, 20)])
C60_CHORDS_ORBITS = [
    [0, 10, 20, 30, 40, 50],
    [1, 9, 11, 19, 21, 29, 31, 39, 41, 49, 51, 59],
    [2, 8, 12, 18, 22, 28, 32, 38, 42, 48, 52, 58],
    [3, 7, 13, 17, 23, 27, 33, 37, 43, 47, 53, 57],
    [4, 6, 14, 16, 24, 26, 34, 36, 44, 46, 54, 56],
    [5, 15, 25, 35, 45, 55],
]


def test_orbits_of_a_60_vertex_graph_frozen():
    orb = ms.quantum_orbits(C60_CHORDS, "all")
    assert sorted(map(sorted, orb.classes)) == C60_CHORDS_ORBITS
    assert orb.exactness == "exact"


def test_disconnected_bound_exceeds_the_rank():
    # on P3 + K3 the atoms span J, the hom matrix of two labels without
    # an edge between them, which no operation of the reference closure
    # reaches from the connected patterns: the closure has rank (3, 7)
    # inside the (3, 11) atoms
    g = FiniteGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    fe = engine(g)
    _vertex_atoms, pair_atoms = check_atoms(fe, g)
    assert ranks(fe) == (3, 11)
    span = RatSpan()
    for fn in fe.f1_basis():
        span.add(fn)
    j = {(u, v): 1 for u in range(6) for v in range(6)}
    assert span.contains(j)
    ref0, ref1 = reference_closure(g)
    assert (len(ref0), len(ref1)) == (3, 7)
    assert all(span.contains(fn) for fn in ref1)
    ref = RatSpan()
    for fn in ref1:
        ref.add(fn)
    assert not ref.contains(j)
    # the vertex orbits are those of the components' automorphisms
    assert sorted(map(sorted, ms.quantum_orbits(g).classes)) == \
        [[0, 2], [1], [3, 4, 5]]


def relabel(g, perm):
    return FiniteGraph(g.vertex_count, [(perm[u], perm[v]) for (u, v)
                                        in g.undirected_edges()])


@settings(max_examples=20, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_engine_reports_move_with_a_relabeling(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    h = relabel(g, perm)
    fe, moved = engine(g), engine(h)
    assert ranks(moved) == ranks(fe)

    def orbits(graph):
        return {frozenset(c) for c in ms.quantum_orbits(graph).classes}

    assert orbits(h) == {frozenset(perm[v] for v in c) for c in orbits(g)}
    assert {frozenset(a) for a in moved.pair_atoms()} == {
        frozenset((perm[u], perm[v]) for (u, v) in a)
        for a in fe.pair_atoms()}


@settings(max_examples=20, deadline=None)
@given(graphs(), st.randoms(use_true_random=False),
       st.sampled_from(["planar", "all"]))
def test_minimal_projections_move_with_a_relabeling(g, rng, category):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    h = relabel(g, perm)

    def projections(graph, moved):
        """Each projection at arities 0 and 1 as (block as two vertex
        lists, d_left, d_right, exact, support), in the labels of g."""
        back = {perm[v]: v for v in range(g.vertex_count)} if moved \
            else {v: v for v in range(g.vertex_count)}
        classes = ms.quantum_orbits(graph, category).classes
        out = []
        for arity in (0, 1):
            basis = ms.generate_mor(graph, arity, arity, category=category)
            for p in ms.minimal_projections(basis):
                block = tuple(sorted(back[v] for v in classes[b])
                              for b in p.block)
                support = sorted(tuple(back[v] for v in i)
                                 for (i, _j) in p.matrix)
                out.append((arity, block, p.d_left, p.d_right, p.exact,
                            support))
        return sorted(out)

    assert projections(h, True) == projections(g, False)


def test_finite_orbits_are_exact_in_one_round(monkeypatch):
    # the round cap bounds the window closure only: a finite engine reads
    # its atoms off in no round at all
    monkeypatch.setattr(ms, "FUNCTION_ROUNDS", 1)
    monkeypatch.setattr(ms, "_function_engines", {})
    orb = ms.quantum_orbits(ORBITS_GRAPHS[3])
    assert orb.exactness == "exact"
    assert orb.matches_classical
    assert ms.function_engine(ORBITS_GRAPHS[3]).rounds == 0


def test_finite_engine_builds_no_ratspan(monkeypatch):
    def refuse():
        raise AssertionError("RatSpan built on a finite scene")

    monkeypatch.setattr(ms, "RatSpan", refuse)
    assert ranks(engine(ORBITS_GRAPHS[0])) == (4, 17)
