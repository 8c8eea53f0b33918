"""Smoke tests for the experiment scripts: each runs as a subprocess on a tiny grid."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args], check=True,
                          env=env, timeout=60, capture_output=True, text=True)


def test_calibrate_xi_script_smoke():
    out = _run_script("calibrate_xi.py", "--samples", "20000", "--seeds", "2")
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("N = 20000, seeds = 2")
    assert len(lines) == 2 + 5  # two header lines, one line per candidate xi


def test_run_end_to_end_script_smoke():
    out = _run_script("run_end_to_end.py", "--n", "20", "--k", "2", "--zeta", "0.5",
                      "--sizes", "10000", "--seeds", "1")
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("run_id,n,k,N1,N2,Nhi,seed,tran_dist")
    assert len(lines) <= 2  # one row per run that succeeded
    assert "# N=10000: median transport" in out.stderr
