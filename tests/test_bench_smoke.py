"""A short benchmark run still passes its own correctness checks.

perfbench/ builds procedures and bindings through the public API, so a
change to those types that breaks the benchmark fails here, not only when
the benchmark is run.  The export_read run also checks what the read path
gives back: CSV and XML exports of stored records and the time constants
fitted to them.  Each run happens in a copy of src/, perfbench/ and
the Annex-1 fixture, so it writes nothing into the checkout.  The
ingest_bulk run checks the write path: the stored 5000 x 8 records read
back equal to the generated samples, one series row per point.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_is_correct(workload, tmp_path):
    pytest.importorskip("numpy", reason="perfbench needs the bench extra (numpy)")
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    (tmp_path / "tests" / "data").mkdir(parents=True)
    shutil.copy(ROOT / "tests" / "data" / "annex1.lvm", tmp_path / "tests" / "data")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr or done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_lab_session_run_is_correct(tmp_path):
    _run_is_correct("lab_session", tmp_path)


def test_export_read_run_is_correct(tmp_path):
    """Reads, CSV/XML exports and tau checks of preloaded records."""
    _run_is_correct("export_read", tmp_path)


def test_ingest_bulk_run_is_correct(tmp_path):
    """Bulk imports, then verify_counts and verify_records on what was stored."""
    _run_is_correct("ingest_bulk", tmp_path)
