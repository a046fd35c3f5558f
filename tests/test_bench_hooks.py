"""The benchmark under bench/ binds qgs names directly: its tracer wraps
the functions and methods listed in tracing.SPANS, and its cache reset
empties the engine caches by name.  These tests resolve every one of
those names, so that a rename fails here rather than in a benchmark run.
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
