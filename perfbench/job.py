"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/job.py [--trace spans|counts --trace-out PATH] JOB ARGS...

JOB is one of

* ``cli ARGV...``: the su3braid command line, exactly as ``python3 -m
  su3braid ARGV...`` runs it (untraced runs call that directly; this form
  exists so that tracing can be installed first);
* ``families INPUT OUTPUT``: close each C/D family parameter set in INPUT
  and export its element records;
* ``recoupling INPUT OUTPUT``: evaluate each theta/tet/6j query in INPUT.

INPUT and OUTPUT are JSON files; the job receives only the generated inputs.
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys

import tracing


def run_cli(argv: list[str]) -> int:
    sys.argv = ["su3braid", *argv]
    try:
        runpy.run_module("su3braid", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def run_families(inp: str, out: str) -> int:
    from su3braid import matgroup, su3families

    results = []
    with open(inp, encoding="ascii") as fh:
        items = json.load(fh)
    for item in items:
        p = item["params"]
        if item["family"] == "C":
            gens = su3families.c_generators(su3families.CParams(*p))
            names = ["E", "F"]
        else:
            c = su3families.CParams(*p[:3])
            gens = su3families.d_generators(su3families.DParams(c, *p[3:]))
            names = ["E", "F", "D"]
        group = matgroup.close(gens, cap=item["cap"])
        records = matgroup.element_records(group, names)
        results.append({
            "order": len(group),
            "elements": [[r["key"], r["matrix"]["float_rows"]] for r in records],
        })
    with open(out, "w", encoding="ascii") as fh:
        json.dump(results, fh)
    return 0


def run_recoupling(inp: str, out: str) -> int:
    from su3braid import recoupling

    theories = {}
    results = []
    with open(inp, encoding="ascii") as fh:
        queries = json.load(fh)
    for kind, r, labels in queries:
        if r not in theories:
            theories[r] = recoupling.theory(r)
        results.append(getattr(recoupling, kind)(theories[r], *labels).to_dict())
    with open(out, "w", encoding="ascii") as fh:
        json.dump(results, fh)
    return 0


JOBS = {"families": run_families, "recoupling": run_recoupling}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", choices=["spans", "counts"])
    parser.add_argument("--trace-out")
    parser.add_argument("job", choices=["cli", *JOBS])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        modules = tracing.package_modules()
        recorder = tracing.Spans() if args.trace == "spans" else tracing.Counts()
        recorder.install(modules)
    if args.job == "cli":
        code = run_cli(args.args)
    else:
        code = JOBS[args.job](*args.args)
    if recorder is not None:
        trace = {"memo": tracing.memo_sizes(modules)}
        if isinstance(recorder, tracing.Spans):
            trace.update(spans=recorder.summary(), records=recorder.records,
                         close_elements=recorder.close_elements,
                         cayley_entries=recorder.cayley_entries)
        else:
            trace["counts"] = recorder.values()
        with open(args.trace_out, "w", encoding="ascii") as fh:
            json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
