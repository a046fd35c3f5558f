"""Smoke tests: the example scripts under demos/ run to completion.

Each demo runs in its own process with src/ on PYTHONPATH, so no
installed copy of qgs is needed.  07_cli_tour.sh is left out because it
needs the `qgs` console script installed.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_hom_matrices.py", "02_orbits_and_dimensions.py",
         "03_grandparent_graph.py", "04_haar_functionals.py",
         "05_planar_isomorphism.py", "06_group_quantization.py"]


def run_demo(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (src if not env.get("PYTHONPATH")
                         else src + os.pathsep + env["PYTHONPATH"])
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    if name == "06_group_quantization.py":
        assert ("fiber span rank at (2, 2): 3 (examined 104 members)"
                in proc.stdout.splitlines())
    if name == "04_haar_functionals.py":
        # phi_e(x* x) >= 0 up to rounding, on both graphs of the demo
        worst = [float(line.rsplit(":", 1)[1]) for line in
                 proc.stdout.splitlines() if "min phi_e(x* x)" in line]
        assert len(worst) == 2
        assert all(w > -1e-9 for w in worst)
