"""The benchmark runs end to end against the library and its checks hold.

A short traced run per workload exercises everything the benchmark relies
on: set-up that reaches into `Ls3dConv`'s branches, the patched module
functions, the saved forward state of the LS3D and plain convs that the
work counts unpack, and the independent correctness checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["denoise-infer", "train-ls3d", "train-plain"])
def test_traced_run_is_correct(tmp_path, workload):
    # A traced run writes its spans under perfbench/out/, so it runs on a
    # copy and leaves the checkout as it was.
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    if workload == "train-ls3d":
        # The branch conv is traced only while it runs through the patched
        # ls3d.conv3d_forward/conv3d_backward: 537.48 MMAC per step at seed 1.
        mmac = result["metrics"]["ls3d.branch_conv.mmac"]["value"]
        assert mmac == pytest.approx(537.48, abs=0.01)
