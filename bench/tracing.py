"""Per-module spans around the public layers of qgs.

The tracer replaces selected functions and methods of the qgs modules
with wrappers that time each call and record counts at the same
boundary.  It edits only the imported module objects of the benchmark's
own process; the sources under src/ are not touched.  Spans nest: a
span's self time is its duration minus the durations of the spans it
encloses.  Figures are aggregated per operation in memory and written
out when the run ends.
"""

import importlib
import time

# (module, attribute path, span name, reported fields), in the order of
# the per-layer metrics in BENCHMARK.json.  "calls" and "self_s" are kept
# for every span; "accepted", "rounds" and "items" are read after the
# call returns, by the functions in COUNTERS.
SPANS = [
    ("quantiso", "count_signatures", "quantiso.count_signatures",
     ("calls", "self_s")),
    ("quantiso", "pointed_patterns", "quantiso.pointed_patterns",
     ("self_s",)),
    ("graphs", "classical_aut", "graphs.classical_aut", ("calls", "self_s")),
    ("hommat", "hom_matrix", "hommat.hom_matrix", ("calls", "self_s")),
    ("hommat", "hom_matrix_windowed", "hommat.hom_matrix_windowed",
     ("calls", "self_s")),
    ("ratmat", "RatSpan.add", "ratmat.RatSpan.add",
     ("calls", "accepted", "self_s")),
    ("morspace", "FunctionEngine.__init__", "morspace.FunctionEngine.init",
     ("self_s", "rounds")),
    ("morspace", "MorEngine.__init__", "morspace.MorEngine.init",
     ("self_s", "rounds", "items")),
    ("morspace", "minimal_projections", "morspace.minimal_projections",
     ("self_s",)),
    ("morspace", "mu_assignment", "morspace.mu_assignment", ("self_s",)),
    ("morspace", "ColumnLadder.__init__", "morspace.ColumnLadder.init",
     ("self_s", "rounds")),
    ("morspace", "SpanModP.add", "morspace.SpanModP.add",
     ("calls", "accepted", "self_s")),
    ("algebra", "HaarSystem.__init__", "algebra.HaarSystem.init",
     ("self_s",)),
    ("algebra", "HaarSystem.phi_e", "algebra.HaarSystem.phi_e",
     ("calls", "self_s")),
    ("algebra", "HaarSystem.left_invariance_residual",
     "algebra.HaarSystem.left_invariance_residual", ("calls", "self_s")),
    ("algebra", "delta_checks", "algebra.delta_checks", ("self_s",)),
    ("quantization", "fiber_span_rank", "quantization.fiber_span_rank",
     ("self_s",)),
    ("quantization", "relation_vectors", "quantization.relation_vectors",
     ("self_s",)),
    ("bilabeled", "compose", "bilabeled.compose", ("calls", "self_s")),
    ("bilabeled", "relative_tensor", "bilabeled.relative_tensor",
     ("calls", "self_s")),
    ("cli", "main", "cli.main", ("self_s",)),
]


def _rounds(obj, _result):
    return obj.rounds


def _items(obj, _result):
    return sum(len(v) for v in obj.items.values())


def _accepted(_obj, result):
    return 1 if result else 0


COUNTERS = {"rounds": _rounds, "items": _items, "accepted": _accepted}


class Tracer:
    """Span aggregation for one process.

    Spans are recorded only while `enabled` is set, so the benchmark's
    own checks never count towards a layer.  Each operation gets its own
    bucket: span name -> {"calls", "self_s", extra counters}."""

    def __init__(self):
        self.enabled = False
        self.ops = []
        self._bucket = None
        self._stack = []

    def begin(self, label, round_index):
        self._bucket = {}
        self.ops.append({"op": label, "round": round_index,
                         "spans": self._bucket})
        self.enabled = True

    def end(self):
        self.enabled = False
        self._stack = []

    def _wrap(self, fn, name, fields):
        tracer = self
        extra = [(f, COUNTERS[f]) for f in fields if f in COUNTERS]
        keys = ("calls", "self_s") + tuple(f for f, _read in extra)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                rec = tracer._bucket.get(name)
                if rec is None:
                    rec = tracer._bucket[name] = dict.fromkeys(keys, 0)
                rec["calls"] += 1
                rec["self_s"] += dur - frame[0]
            for key, read in extra:
                rec[key] += read(args[0] if args else None, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every span target in every qgs module that binds it.  A
        target that is gone raises AttributeError, so a renamed layer
        stops the run instead of reading 0."""
        modules = {name: importlib.import_module("qgs." + name)
                   for name in ("cli", "graphs", "bilabeled", "hommat",
                                "ratmat", "morspace", "algebra",
                                "quantiso", "quantization")}
        for mod_name, path, name, fields in SPANS:
            owner = modules[mod_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapped = self._wrap(original, name, fields)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapped)
                continue
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def totals(self, keep):
        """Sum of every span over the operations for which keep(op) holds."""
        out = {}
        for op in self.ops:
            if not keep(op):
                continue
            for name, rec in op["spans"].items():
                acc = out.setdefault(name, {})
                for key, val in rec.items():
                    acc[key] = acc.get(key, 0) + val
        return out
