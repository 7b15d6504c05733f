"""The quick demos run to completion against the library as it is."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 05 runs the full suite battery, which the suite tests already cover
DEMOS = ("01_orlicz_functions.py", "02_growth_classification.py",
         "03_luxemburg_norms.py", "04_witness_families.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
