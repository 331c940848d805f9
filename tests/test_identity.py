"""``tools/identity.py``: runs of one tree give equal records, and a
comparison names the first record that differs."""

import json
import subprocess
import sys

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "identity.py"
CASES = ["table1-cpbvi-cap12", "exact-0"]


def _tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def _records(path) -> None:
    done = _tool(*(arg for case in CASES for arg in ("--case", case)), "--out", str(path))
    assert done.returncode == 0, done.stderr


def test_two_processes_write_equal_records(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _records(a)
    _records(b)
    records = [json.loads(line) for line in a.read_text().splitlines()]
    assert [r["case"] for r in records] == CASES
    assert all(len(r["digest"]) == 64 and r["planned"] for r in records)
    done = _tool("--compare", str(a), str(b))
    assert (done.returncode, done.stdout) == (0, "2 records equal\n")

    lines = b.read_text().splitlines()
    lines[1] = lines[1].replace(records[1]["digest"], "0" * 64)
    b.write_text("\n".join(lines) + "\n")
    done = _tool("--compare", str(a), str(b))
    assert done.returncode == 1 and done.stdout.startswith("record 1 differs")
