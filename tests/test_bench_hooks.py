"""The benchmark under bench/ binds qgs names directly: its tracer wraps
the functions and methods listed in tracing.SPANS, and its cache reset
empties the engine caches by name.  These tests resolve every one of
those names and read the counters the tracer reads off the engines, so
that a rename fails here rather than in a benchmark run.
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_span_target_resolves():
    for mod_name, path, name, _fields in tracing.SPANS:
        owner = importlib.import_module("qgs." + mod_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_reset_caches_runs():
    workloads.reset_caches()


def test_engine_counters_read_their_spans():
    # the tracer reads "rounds" and "items" off each engine after its
    # __init__ returns; build each engine once on K3 and read every
    # counter that its span lists
    from qgs import morspace
    from qgs.graphs import complete_graph
    g = complete_graph(3)
    built = {
        "FunctionEngine.__init__":
            morspace.FunctionEngine(morspace.Scene.finite(g)),
        "MorEngine.__init__": morspace.MorEngine(g),
        "ColumnLadder.__init__": morspace.ColumnLadder(g, max_level=3),
    }
    read = set()
    for mod_name, path, name, fields in tracing.SPANS:
        if mod_name != "morspace" or path not in built:
            continue
        for field in fields:
            if field in tracing.COUNTERS:
                value = tracing.COUNTERS[field](built[path], None)
                assert isinstance(value, int) and value >= 0, (name, field)
                read.add((path, field))
    assert read == {("FunctionEngine.__init__", "rounds"),
                    ("MorEngine.__init__", "rounds"),
                    ("MorEngine.__init__", "items"),
                    ("ColumnLadder.__init__", "rounds")}
