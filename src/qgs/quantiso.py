"""Quantum-isomorphism testing for finite graphs.

Two connected finite graphs are compared through homomorphism counts
from connected planar patterns with a marked basepoint.  Vertices are
refined into classes by their full vector of pointed counts; the graphs
are indistinguishable at a given depth when there is a bijection of
classes matching every count vector, and distinguished when some pointed
pattern separates them, in which case a reproducible witness is
returned.  Every count is read off the rows of `hommat.hom_rows`, one
enumeration per pattern, under SIGNATURE_BUDGET_BYTES.

A bounded-depth relation check compares the rational linear relations
satisfied by the homomorphism matrices of a canonical pattern family on
both graphs, and user-supplied magic-unitary data can be validated
against the defining projection, summation and intertwining relations.
"""

import itertools

import numpy as np
import networkx as nx
from networkx.generators.atlas import _generate_graphs

from .graphs import FiniteGraph, ValidationError, classical_aut
from .bilabeled import BiLabeled
from .hommat import hom_matrix, hom_rows
from .ratmat import RatSpan

ATLAS_LIMIT = 7

_pattern_cache = {}
_pointed_cache = {}


def planar_patterns(depth):
    """Connected planar graphs on 1..depth vertices, one per class."""
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if depth > ATLAS_LIMIT:
        raise ValidationError(
            "pattern enumeration is tabulated up to %d vertices"
            % ATLAS_LIMIT)
    if depth not in _pattern_cache:
        out = []
        # the atlas is ordered by vertex count, so reading stops after
        # the last graph on `depth` vertices
        for g in itertools.takewhile(lambda h: h.number_of_nodes() <= depth,
                                     _generate_graphs()):
            n = g.number_of_nodes()
            if n < 1:
                continue
            if n > 1 and not nx.is_connected(g):
                continue
            if not nx.check_planarity(g)[0]:
                continue
            out.append(FiniteGraph(n, [tuple(e) for e in g.edges()]))
        _pattern_cache[depth] = out
    return _pattern_cache[depth]


def pointed_patterns(depth):
    """(pattern, basepoint) pairs, one basepoint per symmetry class."""
    if depth not in _pointed_cache:
        out = []
        for g in planar_patterns(depth):
            _perms, orbits = classical_aut(g)
            for orb in orbits:
                out.append((g, min(orb)))
        _pointed_cache[depth] = out
    return _pointed_cache[depth]


# Bytes one join step of `hommat.hom_rows` may take for the counts here
# and in the finite function engine; a step over it raises
# BudgetExceeded before it allocates.
SIGNATURE_BUDGET_BYTES = 1 << 29


def pointed_hom_count(pattern, x, target, i):
    """Count of homomorphisms of the pattern into the target mapping the
    basepoint x to the vertex i, read off hom_rows(pattern, target).
    Raises BudgetExceeded as hom_rows does."""
    rows = hom_rows(pattern, target, SIGNATURE_BUDGET_BYTES)
    return int(np.count_nonzero(rows[:, x] == i))


def count_signatures(g, depth):
    """Vector of pointed planar homomorphism counts for every vertex.

    Coordinate k of each vector is the count of pointed_patterns(depth)[k],
    a bincount of the basepoint's column of hom_rows(pattern, g).  Raises
    BudgetExceeded, before the step's allocation, when a join step of
    hom_rows would take more than SIGNATURE_BUDGET_BYTES."""
    q = g.vertex_count
    columns = []
    last = None
    for pattern, base in pointed_patterns(depth):
        if pattern is not last:     # consecutive entries share a pattern
            rows = None     # so the last rows are freed before the join
            rows = hom_rows(pattern, g, SIGNATURE_BUDGET_BYTES)
            last = pattern
        columns.append(np.bincount(rows[:, base], minlength=q).tolist())
    return {v: tuple(sig) for v, sig in enumerate(zip(*columns))}


def _classes(signatures):
    """Vertex classes with a common count vector, keyed by the vector."""
    out = {}
    for v, sig in signatures.items():
        out.setdefault(sig, []).append(v)
    return {sig: sorted(vs) for sig, vs in out.items()}


class IsoVerdict:
    def __init__(self, status, depth, bijection=None, witness=None,
                 classes=None):
        self.status = status
        self.depth = depth
        self.bijection = bijection
        self.witness = witness
        self.classes = classes

    @property
    def indistinguishable(self):
        return self.status == "indistinguishable_up_to_depth"


def _witness_for(sig, partner, depth, orbit1, orbit2, swap):
    k = next(i for i in range(len(sig)) if sig[i] != partner[i])
    pattern, base = pointed_patterns(depth)[k]
    # the caller passes orbits already attached to their own graphs; only
    # the counts need reordering when sig came from the second graph
    c1, c2 = sig[k], partner[k]
    if swap:
        c1, c2 = c2, c1
    return {
        "pattern": pattern,
        "basepoint": base,
        "pattern_index": k,
        "orbit1": orbit1,
        "orbit2": orbit2,
        "count1": c1,
        "count2": c2,
    }


def planar_iso_test(g1, g2, depth=6):
    """Compare pointed planar homomorphism counts up to the depth.

    Returns a verdict carrying either a bijection of count classes or a
    reproducible separating witness (pattern, basepoint, class pair).
    When both graphs have the same count vectors but some class differs
    in size, the witness is that class pair: its pattern and basepoint
    are None and its counts are the two class sizes."""
    for g in (g1, g2):
        if g.vertex_count == 0:
            raise ValidationError("graphs must have a vertex")
        if not g.is_connected():
            raise ValidationError("graphs must be connected")
    cls1 = _classes(count_signatures(g1, depth))
    cls2 = _classes(count_signatures(g2, depth))
    if set(cls1) == set(cls2):
        # a magic unitary is block diagonal on the classes of equal
        # pointed counts, so paired classes must have equal sizes
        for sig in sorted(cls1):
            if len(cls1[sig]) != len(cls2[sig]):
                witness = {"pattern": None, "basepoint": None,
                           "pattern_index": None,
                           "orbit1": cls1[sig], "orbit2": cls2[sig],
                           "count1": len(cls1[sig]),
                           "count2": len(cls2[sig])}
                return IsoVerdict("distinguished", depth, witness=witness,
                                  classes=(cls1, cls2))
        bijection = [(cls1[sig], cls2[sig]) for sig in sorted(cls1)]
        return IsoVerdict("indistinguishable_up_to_depth", depth,
                          bijection=bijection, classes=(cls1, cls2))
    only1 = set(cls1) - set(cls2)
    only2 = set(cls2) - set(cls1)
    sig = min(only1 | only2)
    swap = sig not in cls1
    other = cls2 if not swap else cls1
    # partner: the class of the other graph diverging as late as possible

    def prefix(t):
        k = 0
        while k < len(sig) and sig[k] == t[k]:
            k += 1
        return k
    partner = max(sorted(other), key=prefix)
    orbit1 = cls1[sig] if not swap else cls1[partner]
    orbit2 = cls2[partner] if not swap else cls2[sig]
    witness = _witness_for(sig, partner, depth, orbit1, orbit2, swap)
    return IsoVerdict("distinguished", depth, witness=witness,
                      classes=(cls1, cls2))


# ---------------------------------------------------------------------------
# bounded-depth relation comparison


def _labelled_patterns(max_vertices, arity):
    """Every labelling at a square arity of the planar patterns on at
    most max_vertices vertices."""
    out = []
    for g in planar_patterns(max_vertices):
        verts = range(g.vertex_count)
        for x in itertools.product(verts, repeat=arity):
            for y in itertools.product(verts, repeat=arity):
                out.append(BiLabeled(g, x, y))
    return out


def _relation_data(patterns, g):
    rows = []
    for blg in patterns:
        hm = hom_matrix(blg, g, SIGNATURE_BUDGET_BYTES)
        rows.append(hm.entries)
    return rows


# (arity, largest pattern size) of the relation check
PSI_BOUNDS = ((1, 4), (2, 3))


def check_correspondence_psi(g1, g2, depth=6):
    """Bounded shadow of the relation-preserving correspondence.

    For each arity n with its pattern-size bound in PSI_BOUNDS, the
    rational linear relations among the homomorphism matrices of the
    canonical pattern family must coincide on both graphs (equal ranks
    of each side and of the interleaved matrix), and the pattern Gram
    matrices must agree."""
    verdict = planar_iso_test(g1, g2, depth)
    report = {"verdict": verdict, "arities": {}, "passed": True}
    if not verdict.indistinguishable:
        report["passed"] = False
        report["reason"] = "distinguished at the class stage"
        return report
    for arity, max_vertices in PSI_BOUNDS:
        patterns = _labelled_patterns(max_vertices, arity)
        rows1 = _relation_data(patterns, g1)
        rows2 = _relation_data(patterns, g2)
        span1, span2, joint = RatSpan(), RatSpan(), RatSpan()
        for r1, r2 in zip(rows1, rows2):
            span1.add(r1)
            span2.add(r2)
            merged = {(0,) + k: v for k, v in r1.items()}
            merged.update({(1,) + k: v for k, v in r2.items()})
            joint.add(merged)
        relations_match = (span1.rank == span2.rank == joint.rank)

        def gram(rows):
            m = len(rows)
            out = np.zeros((m, m), dtype=object)
            for a in range(m):
                for b in range(a, m):
                    s = 0
                    ra, rb = rows[a], rows[b]
                    if len(rb) < len(ra):
                        ra, rb = rb, ra
                    for key, val in ra.items():
                        s += val * rb.get(key, 0)
                    out[a, b] = out[b, a] = s
            return out
        gram_match = bool(np.array_equal(gram(rows1), gram(rows2)))
        entry = {
            "rank1": span1.rank,
            "rank2": span2.rank,
            "joint_rank": joint.rank,
            "relations_match": relations_match,
            "gram_match": gram_match,
            "patterns": len(patterns),
        }
        report["arities"][arity] = entry
        if not (relations_match and gram_match):
            report["passed"] = False
            report["reason"] = "relation mismatch at arity %d" % arity
    return report


# ---------------------------------------------------------------------------
# magic unitary validation


def magic_unitary_verify(data, g1, g2, tol=1e-9):
    """Validate a numeric magic unitary intertwining two graphs.

    data maps vertex pairs (i, j) with i in g1, j in g2 to symmetric
    projection matrices on a common finite-dimensional space.  Checks
    idempotence, self-adjointness, row and column sums equal to the
    identity, orthogonality along rows and columns, and the adjacency
    intertwining relation."""
    n1, n2 = g1.vertex_count, g2.vertex_count
    if set(data) != {(i, j) for i in range(n1) for j in range(n2)}:
        raise ValidationError("data must cover the full vertex grid")
    mats = {k: np.asarray(v, dtype=float) for k, v in data.items()}
    dims = {m.shape for m in mats.values()}
    if len(dims) != 1:
        raise ValidationError("projection dimensions do not match")
    shape = dims.pop()
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError("projections must be square matrices")
    d = shape[0]
    if d == 0:
        raise ValidationError("the Hilbert space must be nonzero")
    eye = np.eye(d)
    violations = []

    def check(name, lhs, rhs):
        err = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
        if err > tol:
            violations.append({"relation": name, "residual": err})

    for (i, j), m in mats.items():
        check("symmetry v[%d,%d]" % (i, j), m, m.T)
        check("idempotent v[%d,%d]" % (i, j), m @ m, m)
    for i in range(n1):
        check("row sum %d" % i,
              sum(mats[(i, j)] for j in range(n2)), eye)
    for j in range(n2):
        check("column sum %d" % j,
              sum(mats[(i, j)] for i in range(n1)), eye)
    for i in range(n1):
        for j in range(n2):
            for j2 in range(j + 1, n2):
                check("row orthogonality v[%d,%d]v[%d,%d]" % (i, j, i, j2),
                      mats[(i, j)] @ mats[(i, j2)], np.zeros((d, d)))
    for i in range(n1):
        for j in range(n2):
            lhs = sum(mats[(k, j)] for k in g1.neighbors(i))
            rhs = sum(mats[(i, l)] for l in g2.neighbors(j))
            check("intertwining (%d,%d)" % (i, j), lhs, rhs)
    return {"valid": not violations, "violations": violations,
            "dimension": d, "tolerance": tol}
