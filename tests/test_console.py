"""The process-level pins of the command line: `python -m su3braid` runs in
a child, and its exit status, its output, its peak RSS and its wall time
are compared with fixed digests, messages and bounds.  These tests own
those pins; CI only smoke-tests the installed `su3braid` script, the one
thing a run from `src` cannot see.

`_console` spawns every such child, here and in `test_cli`.  It starts a
small launcher, which spawns the child, because a child's `ru_maxrss`
starts from the RSS of the process it was forked from: forked from the
test process, which holds sympy and numpy, it would read that process's
size instead of its own."""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from test_verify import VERIFY_STDOUT_SHA256

from su3braid import cli
from su3braid.verify import VerificationReport

# the launcher reaps the child even when the test side kills the process
# group on a timeout: SIGTERM reaches both, and the launcher's handler turns
# it into SIGKILL for the child and waits for it, so no orphan is left to
# an init that may not reap it
LAUNCHER = """
import os, signal, sys
pid = os.spawnv(os.P_NOWAIT, sys.argv[2], sys.argv[2:])
signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""

DEV_MODE = ("-X", "dev", "-W", "error")
CAP_ERROR = "error: closure exceeded cap=4096; generators may not span a finite group\n"
C648_SHA256 = "58c55d0f0d774a7dccd6cdeda2520124ee63dba0a91d036274946434d235ebb9"
C2592_SHA256 = "080d0f28f6cffbf200caf1ec628c82abb1df1cd4de58d992e70ac7b2e7998008"
FAMILY_648 = ("group", "--from", "familyD", "18", "1", "1", "2", "1", "1")


def _console(cwd, *argv, python_options=(), timeout=60,
             stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Exit status, stdout, stderr and peak RSS in KB of `python -m su3braid
    argv`, run in cwd; stdout and stderr are text when they are pipes, else
    None.  A child still running after `timeout` seconds is killed with its
    launcher, and `subprocess.TimeoutExpired` is raised: the timeout is the
    pin's time bound, or else a guard against a hang."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    usage = Path(cwd) / "wait4.txt"
    with subprocess.Popen(
        # -S: the launcher needs no site packages, and starts in half the time
        [sys.executable, "-S", "-c", LAUNCHER, str(usage),
         sys.executable, *python_options, "-m", "su3braid", *argv],
        cwd=cwd, env=env, stdout=stdout, stderr=stderr, text=True,
        start_new_session=True,
    ) as launcher:
        try:
            out, err = launcher.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGTERM)
            raise
    assert launcher.returncode == 0, err
    code, peak_kb = map(int, usage.read_text().split())
    return code, out, err, peak_kb


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_capped_closure_at_the_largest_working_order(tmp_path):
    # the largest peak of any accepted argument but the order-4050 export
    # (about 30 MB); about 20 MB since the closure keys products by entry ids
    code, out, err, peak_kb = _console(
        tmp_path, "group", "--from", "familyD", "1021", "1", "1", "4084", "1", "1",
        timeout=15,
    )
    assert (code, out, err) == (2, "", CAP_ERROR)
    assert peak_kb < 40 * 1024, f"the capped closure peaked at {peak_kb} KB"


def test_order_2592_cayley_export(tmp_path):
    code, out, err, peak_kb = _console(
        tmp_path, "group", "--from", "familyD", "36", "1", "1", "2", "1", "1",
        "--emit-cayley", "c2592.csv", timeout=30,
    )
    assert (code, err) == (0, ""), err
    assert out == "order: 2592\ncayley table written to c2592.csv\n"
    assert _sha256(tmp_path / "c2592.csv") == C2592_SHA256
    assert peak_kb < 40 * 1024, f"the export peaked at {peak_kb} KB"


def test_order_648_cayley_export_in_dev_mode(tmp_path):
    # under -X dev -W error a warning on the export path (a leaked file,
    # say) is an error
    code, out, err, _ = _console(
        tmp_path, *FAMILY_648, "--emit-cayley", "cdev.csv", python_options=DEV_MODE,
    )
    assert (code, err) == (0, ""), err
    assert out == "order: 648\ncayley table written to cdev.csv\n"
    assert _sha256(tmp_path / "cdev.csv") == C648_SHA256


def test_verify_in_dev_mode(tmp_path):
    # under -X dev -W error a warning on the verify path is an error
    code, out, err, _ = _console(
        tmp_path, "verify", "--json", "vdev.json", python_options=DEV_MODE,
    )
    assert (code, err) == (0, ""), err
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256
    assert VerificationReport.from_json((tmp_path / "vdev.json").read_text()).overall


def test_order_648_cayley_export_to_dev_stdout_on_a_file(tmp_path):
    # /dev/stdout is then the file itself, and the table comes out between
    # the "order:" line and the "written to" line
    path = tmp_path / "s.txt"
    with open(path, "w") as fh:
        code, _, err, _ = _console(
            tmp_path, *FAMILY_648, "--emit-cayley", "/dev/stdout", stdout=fh,
        )
    assert (code, err) == (0, ""), err
    first, *table, last = path.read_text().splitlines(keepends=True)
    assert (first, last) == ("order: 648\n", "cayley table written to /dev/stdout\n")
    assert hashlib.sha256("".join(table).encode()).hexdigest() == C648_SHA256


# their output is pinned in process by test_cli; here only the exit status
# and the time a cold process takes
@pytest.mark.parametrize("argv, expected", [
    # the largest rep basis under MAX_R (dim 8), refused at its first square root
    (["rep", "--r", "16", "--charge", "7"], 2),
    (["query", "sixj", "8", "6", "8", "8", "6", "8", "--r", "13"], 0),
], ids=["rep-r16-charge7", "sixj-r13"])
def test_largest_recoupling_runs_within_10_s(tmp_path, argv, expected):
    code, _, err, _ = _console(tmp_path, *argv, timeout=10)
    assert code == expected, err


def test_timed_out_console_leaves_no_process(tmp_path, monkeypatch):
    """On a timeout the whole process group goes, the child too: killing
    only the launcher left `python -m su3braid` running.  The child here
    blocks until killed, opening a FIFO that nothing reads."""
    launched = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            launched.append(self.pid)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    os.mkfifo(tmp_path / "fifo")
    with pytest.raises(subprocess.TimeoutExpired):
        _console(tmp_path, "group", "--from", "familyC", "1", "0", "0",
                 "--emit-cayley", "fifo", timeout=0.2)
    (pgid,) = launched
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)
