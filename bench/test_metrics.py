"""BENCHMARK.json must name exactly the metrics that bench/run.py prints.

    python3 -m pytest bench/test_metrics.py
"""

import json
import os

from tracing import SPANS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_per_layer_metrics_match_the_spans():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    listed = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    emitted = [("%s.%s" % (name, field), "s" if field == "self_s"
                else "count")
               for _module, _path, name, fields in SPANS
               for field in fields]
    assert listed == emitted
