"""su3braid benchmark: cold-process wall time, memory and set-up time per
workload, or per-layer numbers from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout that holds `src/su3braid`.  Every repetition is a
fresh interpreter, because the scalar memos and caches are process-global
and a real command-line user pays the cold cost on every run.

--trace 0 repeats the workload until S seconds have passed (at least once)
and reports the median repetition.  --trace 1 runs the workload twice more,
once with layer spans and once with operation counters, and reports the
per-layer metrics.  Every output of every repetition goes through the
workload's oracle, and every run also checks that the oracle rejects a
corrupted copy of a good output.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"
SETUP_REPS = 5
# a run must end within 180 s; stop children that would overrun it
RUN_BUDGET_S = 170.0


class Child:
    """Runs one cold child process and records its wall time and peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        # fixed hashing makes the traced operation counts repeat exactly
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, argv: list[str], log_dir: Path) -> tuple[int, float, float, str]:
        """Exit code, wall seconds, peak RSS in MB, stdout text."""
        log_dir.mkdir(parents=True, exist_ok=True)
        out_path = log_dir / "stdout.txt"
        with open(out_path, "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


def _print_checks(label: str, checks: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in checks if not ok]
    print(f"{label}: {len(checks) - len(failed)}/{len(checks)} checks passed")
    for name in failed[:10]:
        print(f"  FAILED {name}")


def self_test(workload, rep: Path, scratch: Path) -> tuple[str, bool]:
    """The oracle must reject a corrupted copy of a good output."""
    shutil.copytree(rep, scratch)
    workload.corrupt(scratch)
    checks = workload.check(scratch, 0, (scratch / "stdout.txt").read_text(encoding="utf-8"))
    rejected = not all(ok for _, ok in checks)
    print(f"self-test: oracle {'rejects' if rejected else 'ACCEPTS'} a corrupted output "
          f"({workload.corrupt.__doc__.strip()})")
    return "oracle rejects a corrupted output", rejected


def timed_run(workload, seconds: int, tmp: Path, child: Child) -> tuple[dict, list]:
    py = sys.executable
    checks: list[tuple[str, bool]] = []

    child.run([py, "-c", "import su3braid"], tmp / "warmup")  # writes the bytecode cache
    setup = []
    for i in range(SETUP_REPS):
        code, wall, _, _ = child.run([py, "-c", "import su3braid"], tmp / f"setup{i}")
        checks.append(("import su3braid", code == 0))
        setup.append(wall)

    if workload.job == "cli":
        command = [py, "-m", "su3braid"]
    else:
        command = [py, str(JOB), workload.job]
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        rep = tmp / f"rep{len(reps)}"
        reps.append((rep, *child.run(command + workload.args(rep), rep)))

    # The oracles load numpy and sympy only now: a child's ru_maxrss includes
    # the spawning process's resident size, which must stay below the child's.
    good_rep = None
    for i, (rep, code, wall, peak, stdout) in enumerate(reps):
        rep_checks = workload.check(rep, code, stdout)
        _print_checks(f"rep {i}: {wall:.3f} s, {peak:.1f} MB", rep_checks)
        checks += rep_checks
        if good_rep is None and all(ok for _, ok in rep_checks):
            good_rep = rep
    if good_rep is not None:
        checks.append(self_test(workload, good_rep, tmp / "selftest"))
    walls = [r[2] for r in reps]
    rss = [r[3] for r in reps]

    failed = sum(not ok for _, ok in checks)
    print(f"fail_frac = {failed / len(checks):.6f} ({failed} of {len(checks)} checks), "
          f"{len(walls)} repetitions")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return metrics, checks


SELF_TIMES = {
    "matgroup.cayley_table_s": ["matgroup.cayley_table"],
    "matgroup.close_s": ["matgroup.close"],
    "matgroup.element_records_s": ["matgroup.element_records"],
    "matgroup.find_isomorphism_s": ["matgroup.find_isomorphism"],
    "matgroup.conjugacy_classes_s": ["matgroup.conjugacy_classes"],
    "matgroup.decompose_s": ["matgroup.decompose"],
    "matgroup.element_order_s": ["matgroup.element_order"],
    "matgroup.is_normal_s": ["matgroup.is_normal"],
    "matgroup.semidirect_verify_s": ["matgroup.semidirect_verify"],
    "matgroup.subgroup_s": ["matgroup.subgroup"],
    "recoupling.sixj_s": ["recoupling.sixj"],
    "recoupling.tet_s": ["recoupling.tet"],
    "recoupling.theta_s": ["recoupling.theta"],
    "braidrep.paper_generators_s": ["braidrep.paper_generators"],
    "su3families.generators_s": ["su3families.c_generators", "su3families.d_generators"],
    "cli.run_theorem1_verification_s": ["cli.run_theorem1_verification"],
    "cli.export_group_s": ["cli.export_group"],
}


def traced_run(workload, tmp: Path, child: Child, name: str) -> tuple[dict, list]:
    py = sys.executable
    checks: list[tuple[str, bool]] = []
    traces, walls = {}, {}
    for mode in ("spans", "counts"):
        rep = tmp / mode
        code, wall, _, stdout = child.run(
            [py, str(JOB), "--trace", mode, "--trace-out", str(rep / "trace.json"),
             workload.job, *workload.args(rep)], rep)
        rep_checks = workload.check(rep, code, stdout)
        _print_checks(f"{mode} pass: {wall:.3f} s", rep_checks)
        checks += rep_checks
        walls[mode] = wall
        try:
            traces[mode] = json.loads((rep / "trace.json").read_text(encoding="ascii"))
        except (OSError, ValueError):
            checks.append((f"{mode} trace written", False))
            traces[mode] = {}

    spans = traces["spans"].get("spans", {})
    counts = traces["counts"].get("counts", {})
    memo = traces["spans"].get("memo", {})
    values = {metric: sum(spans.get(s, {}).get("self_s", 0.0) for s in names)
              for metric, names in SELF_TIMES.items()}
    values["matgroup.cayley_entries"] = traces["spans"].get("cayley_entries", 0)
    values["matgroup.close_elements"] = traces["spans"].get("close_elements", 0)
    values.update({k: counts.get(k, 0) for k in (
        "cyclo.mul_calls", "cyclo.add_calls", "cyclo.eq_calls", "cyclo.inv_calls",
        "matrix.mul_calls", "matrix.key_bytes_calls")})
    values.update(memo)
    mul_calls = values["cyclo.mul_calls"]
    values["cyclo.mul_hit_ratio"] = (
        1.0 - values.get("cyclo.mul_memo_entries", 0) / mul_calls if mul_calls else 0.0)
    values["trace.spans_pass_s"] = walls["spans"]
    values["trace.count_pass_s"] = walls["counts"]

    # keep the span records for inspection once the run's scratch is gone
    if "records" in traces["spans"]:
        (ROOT / ".bench_tmp" / f"spans-{name}.json").write_text(
            json.dumps(traces["spans"]), encoding="ascii")
    print("self time by span (s):")
    for span, agg in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {span:36s} {agg['self_s']:10.4f}  calls={agg['calls']}")
    print(f"count pass / spans pass wall: {walls['counts'] / walls['spans']:.3f}")

    units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("ratio") else "count")
             for k in values}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "su3braid" / "__init__.py").is_file():
        print(f"error: no su3braid sources under {SRC}; run from a su3braid checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]()
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(args.seed, tmp)
        child = Child(deadline)
        if args.trace:
            metrics, checks = traced_run(workload, tmp, child, args.workload)
        else:
            metrics, checks = timed_run(workload, args.seconds, tmp, child)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(not ok for _, ok in checks)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
