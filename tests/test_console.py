"""Pins of the CI workflow's Console-script step that need a process of
their own: `python -m su3braid` runs in a child, and its exit status, its
output and its peak RSS are compared with the same digests, messages and
bounds as there.

The child is spawned by a small launcher, as CI spawns it, because a
child's `ru_maxrss` starts from the RSS of the process it was forked from:
forked from the test process, which holds sympy and numpy, it would read
that process's size instead of its own."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from su3braid import cli

LAUNCHER = """
import os, sys
pid = os.spawnv(os.P_NOWAIT, sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""

CAP_ERROR = "error: closure exceeded cap=4096; generators may not span a finite group\n"
C648_SHA256 = "58c55d0f0d774a7dccd6cdeda2520124ee63dba0a91d036274946434d235ebb9"
C2592_SHA256 = "080d0f28f6cffbf200caf1ec628c82abb1df1cd4de58d992e70ac7b2e7998008"


def _console(tmp_path, *argv, python_options=()):
    """Exit status, stdout, stderr and peak RSS in KB of `python -m su3braid
    argv`, run in tmp_path."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    usage = tmp_path / "wait4.txt"
    launcher = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(usage),
         sys.executable, *python_options, "-m", "su3braid", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert launcher.returncode == 0, launcher.stderr
    code, peak_kb = map(int, usage.read_text().split())
    return code, launcher.stdout, launcher.stderr, peak_kb


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_capped_closure_at_the_largest_working_order(tmp_path):
    # the largest peak of any accepted argument but the order-4050 export
    # (about 30 MB); about 20 MB since the closure keys products by entry ids
    code, out, err, peak_kb = _console(
        tmp_path, "group", "--from", "familyD", "1021", "1", "1", "4084", "1", "1"
    )
    assert (code, out, err) == (2, "", CAP_ERROR)
    assert peak_kb < 40 * 1024, f"the capped closure peaked at {peak_kb} KB"


def test_order_2592_cayley_export(tmp_path):
    code, out, err, peak_kb = _console(
        tmp_path, "group", "--from", "familyD", "36", "1", "1", "2", "1", "1",
        "--emit-cayley", "c2592.csv",
    )
    assert (code, err) == (0, ""), err
    assert out == "order: 2592\ncayley table written to c2592.csv\n"
    assert _sha256(tmp_path / "c2592.csv") == C2592_SHA256
    assert peak_kb < 40 * 1024, f"the export peaked at {peak_kb} KB"


def test_order_648_cayley_export_in_dev_mode(tmp_path):
    # under -X dev -W error a warning on the export path (a leaked file,
    # say) is an error
    code, out, err, _ = _console(
        tmp_path, "group", "--from", "familyD", "18", "1", "1", "2", "1", "1",
        "--emit-cayley", "cdev.csv", python_options=("-X", "dev", "-W", "error"),
    )
    assert (code, err) == (0, ""), err
    assert out == "order: 648\ncayley table written to cdev.csv\n"
    assert _sha256(tmp_path / "cdev.csv") == C648_SHA256
