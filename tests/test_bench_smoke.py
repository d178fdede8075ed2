"""A short benchmark run still passes its own correctness checks.

perfbench/ builds procedures and bindings through the public API, so a
change to those types that breaks the benchmark fails here, not only when
the benchmark is run.  The run happens in a copy of src/, perfbench/ and
the Annex-1 fixture, so it writes nothing into the checkout.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_lab_session_run_is_correct(tmp_path):
    pytest.importorskip("numpy", reason="perfbench needs the bench extra (numpy)")
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    (tmp_path / "tests" / "data").mkdir(parents=True)
    shutil.copy(ROOT / "tests" / "data" / "annex1.lvm", tmp_path / "tests" / "data")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab_session",
         "--seed", "1", "--seconds", "0.5"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr or done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
