"""tools/pairs.py, the one before/after comparison: its usage errors, and
one CLI pair of this checkout against itself."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PAIRS = ROOT / "tools" / "pairs.py"


def _pairs(*argv):
    """The finished `tools/pairs.py argv` run, under -W error, so that a
    warning the tool itself raises (a child left unreaped) fails it."""
    return subprocess.run([sys.executable, "-W", "error", str(PAIRS), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    [str(ROOT)],
    [str(ROOT), "--workload", "identities", "--", "nc", "count", "--k", "3", "--n", "6"],
    [str(ROOT), "--"],
])
def test_pairs_wants_a_workload_or_a_command(argv):
    proc = _pairs(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: pairs.py")
    assert "give either --workload W or a grascat command line after --" in proc.stderr
    assert proc.stdout == ""


def test_pairs_rejects_no_pairs():
    proc = _pairs(str(ROOT), "--pairs", "0", "--", "nc", "count", "--k", "3", "--n", "6")
    assert proc.returncode == 2
    assert "--pairs must be at least 1" in proc.stderr


def test_one_cli_pair_of_the_checkout_against_itself():
    proc = _pairs(str(ROOT), "--pairs", "1", "--", "nc", "count", "--k", "3", "--n", "6")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    runs = [line for line in lines if line.startswith("pair 1 ")]
    assert [line.split()[2] for line in runs] == ["parent", "change"]
    assert all('"wall_s": ' in line and '"peak_mb": ' in line for line in runs)
    digests = {line.split("sha256 ")[1] for line in runs}
    assert len(digests) == 1 and len(digests.pop()) == 64
    # one pair is too few to claim a gain: the claim column reads "-"
    assert lines[2].split() == ["metric", "parent", "q1", "/", "median", "/", "q3", "change",
                                "q1", "/", "median", "/", "q3", "wins", "claim"]
    table = [line.split() for line in lines[3:5]]
    assert [row[0] for row in table] == ["wall_s", "peak_mb"]
    assert all(row[-2] in ("0/1", "1/1") and row[-1] == "-" for row in table)
    assert lines[5:] == ["stdout identical across every run: True"]
