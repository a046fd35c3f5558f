"""Tests for the function engine's stopping rule on finite graphs.

The engine stops its closure once the ranks of its spans reach the
coherent-closure bound of the seeds.  These tests compare it with the
same engine run without the bound, freeze the bounds of the benchmark
and test graphs, and check that everything it reports moves with a
relabeling of the vertices."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import qgs.morspace as ms
from qgs.graphs import FiniteGraph


class UnboundedEngine(ms.FunctionEngine):
    """The function engine with its stopping rule switched off."""

    def _coherent_bound(self):
        return None


def engine(g, cls=ms.FunctionEngine):
    return cls(ms.Scene.finite(g))


def ranks(fe):
    return len(fe.f0_items), len(fe.f1_items)


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
# copied here so that the frozen bounds below stay tied to them
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

# (f0 rank, f1 rank) of the closure run without the stopping rule
FROZEN_BOUNDS = [
    (ORBITS_GRAPHS[0], (4, 17)), (ORBITS_GRAPHS[1], (6, 36)),
    (ORBITS_GRAPHS[2], (6, 37)), (ORBITS_GRAPHS[3], (8, 64)),
    (DIMS_GRAPHS[0], (3, 10)), (DIMS_GRAPHS[1], (4, 18)),
    (DIMS_GRAPHS[2], (7, 49)), (DIMS_GRAPHS[3], (7, 50)),
    (circulant(11, (1,)), (1, 6)), (circulant(12, (1, 5)), (1, 5)),
    (truncated_tetrahedron(), (1, 7)), (petersen(), (1, 3)),
    (FiniteGraph(12, sorted(nx.frucht_graph().edges())), (12, 144)),
]


@pytest.mark.parametrize("g, bound", FROZEN_BOUNDS)
def test_frozen_bounds_are_the_final_ranks(g, bound):
    fe = engine(g)
    assert fe.bound == bound
    assert ranks(fe) == bound
    assert fe.stable


@st.composite
def graphs(draw):
    n = draw(st.integers(4, 7))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return FiniteGraph(n, [e for e, keep in zip(pairs, mask) if keep])


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_bound_stops_without_changing_the_items(g):
    fe = engine(g)
    ref = engine(g, UnboundedEngine)
    assert ref.bound is None
    assert fe.f0_items == ref.f0_items
    assert fe.f1_items == ref.f1_items
    assert fe.stable and ref.stable
    assert fe.rounds <= ref.rounds
    assert fe.bound[0] >= ranks(fe)[0] and fe.bound[1] >= ranks(fe)[1]
    if g.is_connected():
        assert fe.bound == ranks(fe)


def test_disconnected_bound_exceeds_the_rank():
    # on P3 + K3 the refined colour classes span more than the closure
    g = FiniteGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    fe = engine(g)
    assert fe.bound == (3, 11)
    assert ranks(fe) == (3, 7)
    assert fe.f1_items == engine(g, UnboundedEngine).f1_items


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
    assert moved.bound == fe.bound
    assert ranks(moved) == ranks(fe)

    def orbits(graph):
        return {frozenset(c) for c in ms.quantum_orbits(graph).classes}

    assert orbits(h) == {frozenset(perm[v] for v in c) for c in orbits(g)}
    assert {frozenset(a) for a in moved.pair_atoms()} == {
        frozenset((perm[u], perm[v]) for (u, v) in a)
        for a in fe.pair_atoms()}


@pytest.mark.parametrize("bounded, exactness",
                         [(False, "round-bounded(1)"), (True, "exact")])
def test_orbits_exact_only_for_a_complete_closure(monkeypatch, bounded,
                                                  exactness):
    # one round does not close the 8-vertex graph, but its ranks reach
    # the bound within that round
    monkeypatch.setattr(ms, "FUNCTION_ROUNDS", 1)
    monkeypatch.setattr(ms, "_function_engines", {})
    if not bounded:
        monkeypatch.setattr(ms.FunctionEngine, "_coherent_bound",
                            UnboundedEngine._coherent_bound)
    orb = ms.quantum_orbits(ORBITS_GRAPHS[3])
    assert orb.exactness == exactness
    assert orb.matches_classical
