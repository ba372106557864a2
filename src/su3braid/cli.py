"""Command-line front end: argument parsing, the subcommands, group
export and recoupling queries.

`verify` runs the checklist of `su3braid.verify` and prints one line per
check.  Exit status: 0 success, 1 verify FAIL, 2 bad input (clean message
on stderr, never a traceback); a `--cap` too small for the braid image's
closure is bad input.

Each subcommand imports the layers it uses when it runs: `group --from
familyD ...` and `family` load neither the verifier, the braid
representation nor the recoupling layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import matgroup as mg
from .cyclo import Cyclo, root_of_unity
from .matrix import UnitaryMatrix
from .su3families import CParams, DParams, c_generators, d_generators

if TYPE_CHECKING:
    from .recoupling import TheoryParams

# ---------------------------------------------------------------------------
# data export


def export_group(target: mg.FiniteMatrixGroup, what: str, path: str,
                 names: Optional[Sequence[str]] = None) -> None:
    """Write deterministic group data: `elements` as JSON records or
    `cayley` as a CSV index grid.

    Everything that can fail runs before PATH is opened: the renderer call
    builds and guards the Cayley table, or renders every word, so a failure
    there (such as a `CayleyTableError`) leaves no file.  The text is then
    streamed into PATH one record or row at a time and never held whole,
    by `_write_text`: in place, or through `sys.stdout` when PATH is the
    file standard output writes to."""
    if what == "elements":
        pieces = mg.elements_json(target, names)
    elif what == "cayley":
        pieces = mg.cayley_csv_lines(target)
    else:
        raise ValueError(f"unknown export kind {what!r}")
    _write_text(path, pieces)


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the text pieces to PATH, opened for writing in place, so a
    symlink or a device is written through and an existing file keeps its
    mode.  A PATH that is the file standard output writes to (such as
    /dev/stdout) is written through `sys.stdout` instead: opened a second
    time, a regular file would be truncated and written from offset 0,
    under and over the lines printed around the export."""
    try:
        same = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such PATH, or no stdout descriptor
        same = False
    if same:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(pieces)


# ---------------------------------------------------------------------------
# scalar queries


# a query evaluates its net in Q(A), A of order 4r / gcd(r - 1, 4r) (at
# most 64 for r <= 16), and embeds the one result into the working order
# lcm(4r, 72); `rep` multiplies at the working order.  So the cost grows
# with the label range 0..r-2 and with the order of A.  Measured on a 2-vCPU
# Xeon VM, Python 3.11.7, cold processes, 5 runs: `query sixj 8 6 8 8 6 8
# --r 13` (A of order 13, working order 936) takes 0.13-0.14 s and 16 MB,
# and `query sixj 10 7 7 12 7 9 --r 16` (order 64, working order 576)
# 0.12-0.15 s, most of it interpreter start and imports.  Above the bound,
# through the library in a cold process, sixj 10 10 10 10 10 10 takes
# 0.09 s at r = 17, and sixj 20 20 20 20 20 20 at r = 50 0.12-0.17 s.
# The largest `rep` basis, dim 8 at r = 16 with --charge 7, is refused at
# its first square root in 0.08-0.11 s cold (same VM, 12 runs).
MAX_R = 16

# query kind -> (number of labels, the `recoupling` evaluator taking the
# theory and the labels)
_QUERIES = {
    "theta": (3, "theta"),
    "tet": (6, "tet"),
    "sixj": (6, "sixj"),
    "rvalue": (3, "r_value"),
    "qint": (1, "quantum_int"),
    "delta": (1, "delta_n"),
}


# the largest cyclotomic working order: lcm(n, d, 4) for a family,
# lcm(2*DEN, lcm(4r, 72)) for `rep --phase NUM/DEN`.  Q(zeta_N) keeps only
# O(phi(N)) integers per order, so the cost is in the values; the
# worst case at the bound (2-vCPU Xeon VM, Python 3.11, cold, 3 runs) is
# `family D 1021 1 1 1021 1 1`, order 4084: 0.18 s, 20 MB.
MAX_WORKING_ORDER = 4096


# the largest `group --cap`, and its default; it also bounds the Cayley
# export, which certifies the table on the closure's record and then writes
# it row by row, holding only the rows still waiting for their tree
# children.  Measured on a 2-vCPU Xeon VM, Python 3.11.7, cold processes
# (3 runs each), peak RSS from `wait4`: both exports of an order-2592 group
# (`familyD 36 1 1 2 1 1`) take 0.20 s and 23 MB, and of order 4050
# (`familyD 45 1 1 2 1 1`, the largest D(n,1,1;2,1,1) under the cap)
# 0.37-0.41 s and 30 MB.  Closure time grows with the elements closed and
# with the working order.  Worst case at the bound: `group --from familyD
# 1021 1 1 4084 1 1`, working order 4084, reaches the cap in 0.41-0.44 s
# and 20 MB; it took 69 MB when the closure keyed each product by its key
# text, about 12.5 KB at that order, and 119 MB when it also multiplied by
# the inverse generators.
MAX_GROUP_CAP = 4096


def _require_order(order: int, what: str) -> None:
    if order > MAX_WORKING_ORDER:
        raise ValueError(f"{what} selects cyclotomic order {order}, above {MAX_WORKING_ORDER}")


def _theory(r: int) -> TheoryParams:
    if r > MAX_R:
        raise ValueError(f"--r must be at most {MAX_R}")
    from .recoupling import theory

    return theory(r)


def query(kind: str, args: Sequence[int], r: int = 6) -> Cyclo:
    t = _theory(r)
    if kind not in _QUERIES:
        raise ValueError(f"unknown query kind {kind!r}")
    arity, name = _QUERIES[kind]
    if len(args) != arity:
        raise ValueError(f"{kind} takes {arity} labels, got {len(args)}")
    from . import recoupling

    return getattr(recoupling, name)(t, *args)


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3braid",
        description="exact braid-group image verification for the order-162 SU(3) subgroup",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification checklist")
    p_verify.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p_verify.add_argument("--cap", type=int, default=2000, help="group closure cap")

    p_rep = sub.add_parser("rep", help="build braid generator matrices")
    p_rep.add_argument("--r", type=int, default=6)
    p_rep.add_argument("--charge", type=int, default=2)
    p_rep.add_argument(
        "--phase",
        metavar="NUM/DEN",
        help="phase e^(i*pi*NUM/DEN) applied to land in SU(dim)",
    )

    p_query = sub.add_parser("query", help="print one recoupling quantity")
    p_query.add_argument("kind", choices=list(_QUERIES))
    p_query.add_argument("args", type=int, nargs="+")
    p_query.add_argument("--r", type=int, default=6)

    p_group = sub.add_parser("group", help="close a group and export its data")
    p_group.add_argument(
        "--from",
        dest="source",
        nargs="+",
        required=True,
        metavar="SPEC",
        help="paper | familyC n a b | familyD n a b d r s",
    )
    p_group.add_argument("--emit-elements", metavar="PATH")
    p_group.add_argument("--emit-cayley", metavar="PATH")
    p_group.add_argument(
        "--cap", type=int, default=MAX_GROUP_CAP,
        help=f"group closure cap, 1 to {MAX_GROUP_CAP}",
    )

    p_family = sub.add_parser("family", help="print family generator matrices")
    p_family.add_argument("series", choices=["C", "D"])
    p_family.add_argument("params", type=int, nargs="+")

    return parser


def _integer(text: str, option: str) -> int:
    """TEXT as an int; a bad value is refused naming its option."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{option} takes integers, got {text!r}") from None


def _parse_phase(text: str, theory_order: int) -> Cyclo:
    num, slash, den = text.partition("/")
    p, q = _integer(num, "--phase"), _integer(den, "--phase") if slash else 1
    if q < 1:
        raise ValueError("--phase denominator must be positive")
    _require_order(math.lcm(2 * q, theory_order), "--phase")
    # e^(i*pi*p/q) = zeta_{2q}^p
    return root_of_unity(2 * q, p)


def _family_generators(series: str, params: Sequence[int]) -> tuple[list[UnitaryMatrix], list[str]]:
    """Generators and their names for C(n,a,b) or D(n,a,b;d,r,s)."""
    if series == "C":
        if len(params) != 3:
            raise ValueError("familyC needs n a b")
        p = CParams(*params)
        _require_order(p.order, "familyC")
        return c_generators(p), ["E", "F"]
    if len(params) != 6:
        raise ValueError("familyD needs n a b d r s")
    n, a, b, d, r, s = params
    p = DParams(CParams(n, a, b), d, r, s)
    _require_order(p.order, "familyD")
    return d_generators(p), ["E", "F", "D"]


def _group_from_spec(spec: Sequence[str], cap: int) -> tuple[mg.FiniteMatrixGroup, list[str]]:
    kind = spec[0]
    if kind == "paper":
        if len(spec) != 1:
            raise ValueError("--from paper takes no parameters")
        from .braidrep import paper_generators

        g1, g2 = paper_generators()
        return mg.close([g1, g2], cap=cap), ["g1", "g2"]
    if kind not in ("familyC", "familyD"):
        raise ValueError(f"unknown group source {kind!r}")
    params = [_integer(v, f"--from {kind}") for v in spec[1:]]
    gens, names = _family_generators(kind[-1], params)
    return mg.close(gens, cap=cap), names


def _run_verify(args: argparse.Namespace) -> int:
    if args.cap < 1:
        raise ValueError("--cap must be positive")
    from .verify import run_theorem1_verification

    report = run_theorem1_verification(cap=args.cap)
    for check in report.checks:
        mark = "ok" if check.passed else "FAIL"
        print(f"[{mark:>4}] {check.id}: {check.description}")
    for key, value in report.info.items():
        print(f"[info] {key} = {value}")
    print(f"overall: {'PASS' if report.overall else 'FAIL'}")
    if args.json is not None:
        _write_text(args.json, [report.to_json() + "\n"])
    # when every failure is the closure passing --cap, the cap is at fault,
    # not the checklist: bad input, not a verify FAIL.  The checks read one
    # closure under one cap, so they share its message
    prefix = f"{mg.GroupTooLargeError.__name__}: "
    errors = {c.witness["error"] for c in report.checks if not c.passed}
    if errors and all(error.startswith(prefix) for error in errors):
        raise mg.GroupTooLargeError(errors.pop().removeprefix(prefix))
    return 0 if report.overall else 1


def _run_rep(args: argparse.Namespace) -> int:
    t = _theory(args.r)
    # refuse a bad phase before the basis and generator work
    phase = _parse_phase(args.phase, t.order) if args.phase is not None else None
    from .braidrep import fusion_basis, sigma_mid, sigma_odd, su3_normalize

    basis = fusion_basis(t, args.charge)
    odd = sigma_odd(basis)
    mid = sigma_mid(basis)
    if phase is not None:
        odd = su3_normalize(odd, phase)
        mid = su3_normalize(mid, phase)
    print(json.dumps({
        "labels": list(basis.labels),
        "sigma_odd": odd.to_dict(),
        "sigma_mid": mid.to_dict(),
    }, indent=2))
    return 0


def _run_query(args: argparse.Namespace) -> int:
    value = query(args.kind, args.args, r=args.r)
    print(json.dumps(value.to_dict(), indent=2))
    return 0


def _run_group(args: argparse.Namespace) -> int:
    if not 1 <= args.cap <= MAX_GROUP_CAP:
        raise ValueError(f"--cap must be between 1 and {MAX_GROUP_CAP}")
    group, names = _group_from_spec(args.source, args.cap)
    print(f"order: {group.order}")
    if args.emit_elements is not None:
        export_group(group, "elements", args.emit_elements, names)
        print(f"elements written to {args.emit_elements}")
    if args.emit_cayley is not None:
        export_group(group, "cayley", args.emit_cayley)
        print(f"cayley table written to {args.emit_cayley}")
    return 0


def _run_family(args: argparse.Namespace) -> int:
    gens, names = _family_generators(args.series, args.params)
    print(json.dumps(
        {name: m.to_dict() for name, m in zip(names, gens)}, indent=2
    ))
    return 0


_COMMANDS = {
    "verify": _run_verify,
    "rep": _run_rep,
    "query": _run_query,
    "group": _run_group,
    "family": _run_family,
}
# what bad parameters raise: invalid or unsupported values, a closure past
# its cap, an unwritable output path
_BAD_INPUT = (ValueError, ArithmeticError, OSError, mg.GroupTooLargeError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Exit status: 0 success, 1 verify FAIL, 2 bad input (clean message
    on stderr, never a traceback)."""
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a pipe closed early fails here, not at exit
        return code
    except _BAD_INPUT as exc:  # surfaced as a clean message, not a traceback
        # the error line, then what stdout still buffers; a stream that is a
        # closed pipe goes to devnull, as Python's SIGPIPE note advises, so
        # that the flush at exit cannot raise again
        for stream, text in ((sys.stderr, f"error: {exc}\n"), (sys.stdout, "")):
            try:
                stream.write(text)
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
