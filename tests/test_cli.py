import contextlib
import hashlib
import io
import json
import os
import time
import tracemalloc

import group_oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_console import C648_SHA256, _console

from su3braid import cli, cyclo, verify
from su3braid import matgroup as mg
from su3braid import recoupling as rc
from su3braid.cli import export_group, main, query
from su3braid.cyclo import sqrt3
from su3braid.matrix import UnitaryMatrix
from su3braid.verify import CHECK_IDS, VerificationReport, run_theorem1_verification


def test_report_overall_and_ids(verification_report):
    assert verification_report.overall
    assert tuple(c.id for c in verification_report.checks) == CHECK_IDS
    assert verification_report.info == {"braid_image_conjugate_to_family_in_SU3": True}


def test_report_json_round_trip(verification_report):
    text = verification_report.to_json()
    parsed = VerificationReport.from_json(text)
    assert parsed.to_json() == text
    assert parsed.overall == verification_report.overall
    assert [c.id for c in parsed.checks] == [c.id for c in verification_report.checks]


# the last two checks and the info entry of a report written before
# GRP-ISO-D91211 became a conjugacy: its witness held two key prefixes of
# generator images, and its info entry compared the matrix sets
OLD_REPORT = """{
  "overall": true,
  "checks": [
    {
      "id": "GRP-D-FAMILY-ORDER",
      "description": "the three family generators of D(9,1,1;2,1,1) span a group of order 162",
      "passed": true,
      "witness": {
        "order": 162
      }
    },
    {
      "id": "GRP-ISO-D91211",
      "description": "an isomorphism onto D(9,1,1;2,1,1) exists and verifies on the full Cayley table",
      "passed": true,
      "witness": {
        "generator_images": [
          "3|36:0,0,-1,0,0,0,0,0,1,0,0,0/1;1:0/1;1:...",
          "3|1:0/1;1:0/1;36:0,0,-1,0,0,0,0,0,1,0,0,..."
        ]
      }
    }
  ],
  "info": {
    "braid_image_equals_family_matrix_set": false
  }
}"""


def test_report_from_json_reads_an_older_report():
    report = VerificationReport.from_json(OLD_REPORT)
    assert report.overall
    assert [c.id for c in report.checks] == ["GRP-D-FAMILY-ORDER", "GRP-ISO-D91211"]
    assert report.by_id("GRP-ISO-D91211").witness["generator_images"][0].startswith("3|36:")
    assert report.info == {"braid_image_equals_family_matrix_set": False}
    assert report.to_json() == OLD_REPORT
    # overall is read from the checks, not from the stored field
    data = json.loads(OLD_REPORT)
    data["checks"][1]["passed"] = False
    assert not VerificationReport.from_json(json.dumps(data)).overall


def test_corrupted_generator_fails_braid_check(paper_matrices):
    g1, g2 = paper_matrices
    report = run_theorem1_verification(generators=(g1, g2 * g2))
    assert not report.overall
    assert not report.by_id("REP-BRAID").passed
    assert not report.by_id("REP-G2").passed
    # ids and their order stay stable on failing runs
    assert tuple(c.id for c in report.checks) == CHECK_IDS


CLOSURE_CHECKS = ("GRP-ORDER-162", "GRP-SEMIDIRECT", "GRP-D-FAMILY-ORDER")


def test_missing_prerequisites_fail_each_dependent_check():
    report = run_theorem1_verification(cap=100)
    assert tuple(c.id for c in report.checks) == CHECK_IDS
    for check in report.checks:
        # every row, the structural ones and the conjugacy included, is a
        # word identity that needs no closure; the three checks that read
        # the braid image's order each close it and fail with its own error
        if check.id in CLOSURE_CHECKS:
            assert not check.passed, check.id
            assert check.witness == {"error": "GroupTooLargeError: closure exceeded cap=100; "
                                              "generators may not span a finite group"}, check.id
        else:
            assert check.passed, check.id
    assert report.info == {"braid_image_conjugate_to_family_in_SU3": True}


def test_cli_verify_cap_below_the_closure_exits_2(tmp_path, capsys):
    """A cap that only the closure passes is bad input, not a verify FAIL:
    the check lines and the report come out as before, then one error line."""
    path = tmp_path / "report.json"
    assert main(["verify", "--cap", "161", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: closure exceeded cap=161; generators may not span a finite group\n"
    assert [line for line in captured.out.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] GRP-ORDER-162: the two generators span a group of order 162",
        "[FAIL] GRP-SEMIDIRECT: all four semidirect-product certificates hold and the 162 "
        "factorizations are distinct",
        "[FAIL] GRP-D-FAMILY-ORDER: the three family generators of D(9,1,1;2,1,1) span a group "
        "of order 162",
    ]
    assert captured.out.endswith("overall: FAIL\n")
    report = VerificationReport.from_json(path.read_text())
    assert {c.id for c in report.checks if not c.passed} == set(CLOSURE_CHECKS)


def test_cli_verify_other_failures_keep_exit_1(monkeypatch, capsys):
    """A failing check that is not the closure's cap keeps verify's FAIL
    exit, with or without a capped closure beside it."""
    monkeypatch.setitem(verify.IDENTITIES, "REP-BRAID", [("G1 G2 G1", False, "G2 G1 G2")])
    for argv in (["verify"], ["verify", "--cap", "161"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "[FAIL] REP-BRAID: braid relation G1 G2 G1 = G2 G1 G2" in captured.out


# -- the output pins of the command line, computed in process ---------------
# Each digest is of the exact part of an output (orders and coefficients),
# floats left out, printed one value after another, its final newline
# included.  test_console bounds the time of the slowest runs.


def _printed_sha256(*values, sep=" "):
    out = io.StringIO()
    print(*values, sep=sep, file=out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _exact(value):
    """A `Cyclo.to_dict` value as "order:coeffs"."""
    return f"{value['order']}:{','.join(value['coeffs'])}"


def test_sixj_r13_digest(capsys):
    assert main(["query", "sixj", "8", "6", "8", "8", "6", "8", "--r", "13"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert _printed_sha256(d["order"], ",".join(d["coeffs"])) == (
        "a4d74a6274c7e6086e546b0c1f9f2858b6eb3af341d0132492dfbf4c70871270"
    )


@pytest.mark.parametrize("argv, digest", [
    ([], "037740093e748ed0e1758dd0c71be253a2f693c4f76e6f108190514ba30c67b6"),
    (["--r", "4", "--charge", "1"], "945fd237faaf2c12547cceac179ce2d6349a509b3c290a821e9b3d00cb41e3a2"),
], ids=["default", "r4-charge1"])
def test_rep_digest(capsys, argv, digest):
    assert main(["rep", *argv]) == 0
    d = json.loads(capsys.readouterr().out)
    entries = (_exact(v) for k in ("sigma_odd", "sigma_mid") for row in d[k]["rows"] for v in row)
    assert _printed_sha256(d["labels"], *entries) == digest


def test_order_648_export_digests(tmp_path, capsys):
    elements, cayley = tmp_path / "e.json", tmp_path / "c.csv"
    assert main(["group", "--from", "familyD", "18", "1", "1", "2", "1", "1",
                 "--emit-elements", str(elements), "--emit-cayley", str(cayley)]) == 0
    assert capsys.readouterr().out.startswith("order: 648\n")
    assert hashlib.sha256(cayley.read_bytes()).hexdigest() == C648_SHA256
    records = (
        " ".join([str(r["index"]), r["key"], r["word"],
                  *(_exact(v) for row in r["matrix"]["rows"] for v in row)])
        for r in json.loads(elements.read_text())
    )
    assert _printed_sha256(*records, sep="\n") == (
        "1436c69009cc92445b90b71a59babca3456087d4bed26c7bb2fa825939e43501"
    )


def test_query_values():
    assert query("tet", [2, 2, 4, 2, 2, 2]) == -1 / sqrt3(72)
    assert query("delta", [2]) == 2
    assert query("rvalue", [0, 2, 2]).conj().to_complex().real == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        query("delta", [1, 2])
    with pytest.raises(ValueError):
        query("nonsense", [1])


def test_cli_query(capsys):
    assert main(["query", "delta", "2", "--r", "6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coeffs"] == ["2"]
    assert main(["query", "theta", "2", "2", "1", "--r", "6"]) == 2
    assert "error" in capsys.readouterr().err
    # [n] is periodic in n (period 12 at the default r = 6), so a huge label
    # costs no more than a small one
    start = time.perf_counter()
    assert main(["query", "qint", "1000000000000"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out) == query("qint", [10**12 % 12]).to_dict()


def test_cli_rep(capsys):
    assert main(["rep", "--r", "6", "--charge", "2", "--phase", "1/9"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["labels"] == [0, 2, 4]
    assert data["sigma_odd"]["dim"] == 3
    # phase-normalized: determinant 1 means the product of diagonal approx is ~1
    first = data["sigma_odd"]["rows"][0][0]["approx"]
    assert abs(complex(first[0], first[1])) == pytest.approx(1.0)


def test_cli_family(capsys):
    assert main(["family", "D", "9", "1", "1", "2", "1", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"E", "F", "D"}
    assert main(["family", "C", "9", "1"]) == 2


def test_cli_family_bad_input_exits_2(capsys):
    assert main(["family", "C", "0", "0", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_group_bad_input_exits_2(capsys):
    assert main(["group", "--from", "familyC", "9", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: familyC needs n a b")
    assert main(["group", "--from", "paper", "--cap", "10"]) == 2
    assert "cap=10" in capsys.readouterr().err


def test_cli_group_cap_bound_exits_2(capsys):
    for cap in (str(cli.MAX_GROUP_CAP + 1), "0", "-3"):
        assert main(["group", "--from", "paper", "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --cap must be between 1 and {cli.MAX_GROUP_CAP}\n"
        assert captured.out == ""  # refused before the closure
    args = cli._build_parser().parse_args(["group", "--from", "paper"])
    assert args.cap == cli.MAX_GROUP_CAP


def test_cli_rep_bad_input_exits_2(capsys):
    assert main(["rep", "--r", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    for phase in ("1/0", "1/-3"):
        assert main(["rep", "--phase", phase]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --phase denominator must be positive\n"
        assert captured.out == ""
    # the largest basis under MAX_R (dim 8), refused at the first square root
    assert main(["rep", "--r", "16", "--charge", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: no known exact square root for loop value"
        " 1 + z576^36 + z576^60 + -1*z576^156\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("argv, err", [
    (["rep", "--phase", "abc"], "error: --phase takes integers, got 'abc'\n"),
    (["rep", "--phase", "1/x"], "error: --phase takes integers, got 'x'\n"),
    (["rep", "--phase", "1.5"], "error: --phase takes integers, got '1.5'\n"),
    (["rep", "--phase", "1/"], "error: --phase takes integers, got ''\n"),
    (["group", "--from", "familyC", "9", "a", "1"],
     "error: --from familyC takes integers, got 'a'\n"),
    (["group", "--from", "familyD", "9", "1", "1", "2", "1", "s"],
     "error: --from familyD takes integers, got 's'\n"),
    (["group", "--from", "familyE", "x"], "error: unknown group source 'familyE'\n"),
], ids=[
    "phase-word", "phase-denominator", "phase-decimal", "phase-empty-denominator", "familyC",
    "familyD", "unknown-source",
])
def test_cli_non_integer_value_names_its_option(argv, err, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [
    ["verify", "--json", ""],
    ["group", "--from", "paper", "--emit-elements", ""],
    ["group", "--from", "paper", "--emit-cayley", ""],
    ["rep", "--phase", ""],
])
def test_cli_empty_option_value_exits_2(argv, capsys):
    # an empty value is a value: refused, not read as the option left out
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "''" in captured.err
    if argv[0] == "rep":
        assert captured.out == ""  # refused before the basis work


def test_cli_paths_invert_only_at_small_orders(monkeypatch):
    """`Cyclo.inv` multiplies dense phi(N)-vectors, slow at large prime
    orders (order 1021 takes seconds); verify, the largest queries and the
    largest rep basis under MAX_R invert only at orders up to 72.  The
    recoupling caches are cleared first, so each run makes its own
    inversions."""
    orders = []
    inv = cyclo.Cyclo.inv

    def counting_inv(self):
        orders.append(self.order)
        return inv(self)

    monkeypatch.setattr(cyclo.Cyclo, "inv", counting_inv)
    runs = {
        "verify": lambda: run_theorem1_verification().overall,
        "sixj r=13": lambda: main(["query", "sixj", "8", "6", "8", "8", "6", "8", "--r", "13"]) == 0,
        "tet r=16": lambda: main(["query", "tet", "2", "2", "4", "2", "2", "2", "--r", "16"]) == 0,
        "rep r=16": lambda: main(["rep", "--r", "16", "--charge", "7"]) == 2,
    }
    for name, run in runs.items():
        for cached in (rc.quantum_fact, rc.inv_quantum_fact, rc._qa_theory):
            cached.cache_clear()
        orders.clear()
        assert run(), name
        assert orders and max(orders) <= 72, (name, sorted(set(orders)))


def test_cli_cayley_export_order_limit(tmp_path, capsys):
    # --cap is the one bound on an export: a larger group is refused before
    # any table is built
    path = tmp_path / "cayley.csv"
    assert main(["group", "--from", "paper", "--cap", "100", "--emit-cayley", str(path)]) == 2
    captured = capsys.readouterr()
    assert "cap=100" in captured.err
    assert captured.out == ""
    assert not path.exists()


def test_cli_group_exports(tmp_path, capsys):
    elements = tmp_path / "elements.json"
    cayley = tmp_path / "cayley.csv"
    code = main([
        "group", "--from", "familyD", "9", "1", "1", "2", "1", "1",
        "--emit-elements", str(elements),
        "--emit-cayley", str(cayley),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "order: 162" in out
    records = json.loads(elements.read_text())
    assert len(records) == 162
    assert records[0]["word"] == "e"
    assert all(set(r) == {"index", "key", "word", "matrix"} for r in records)
    rows = cayley.read_text().strip().split("\n")
    assert len(rows) == 162
    assert rows[0].split(",")[0] == "0"


def test_exports_are_deterministic(tmp_path, family_group):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    export_group(family_group, "elements", str(first), ["E", "F", "D"])
    export_group(family_group, "elements", str(second), ["E", "F", "D"])
    assert first.read_bytes() == second.read_bytes()
    c1 = tmp_path / "a.csv"
    c2 = tmp_path / "b.csv"
    export_group(family_group, "cayley", str(c1))
    export_group(family_group, "cayley", str(c2))
    assert c1.read_bytes() == c2.read_bytes()


def test_trivial_group_cayley_export(tmp_path):
    trivial = mg.close([UnitaryMatrix.identity(1)])
    path = tmp_path / "trivial.csv"
    export_group(trivial, "cayley", str(path))
    assert path.read_text() == "0\n"
    with pytest.raises(ValueError):
        export_group(trivial, "everything", str(path))


# the Cayley export is integers only, so its digest holds on every platform;
# elements.json carries libm-derived floats and is compared with its
# reference encoding in test_matgroup instead
@pytest.mark.parametrize("spec, digest", [
    (["paper"], "29ee4b63721a93a469c31d04afb59d92ad36cb00fbd2efdb29e289cd3d689eed"),
    (["familyD", "9", "1", "1", "2", "1", "1"],
     "17f3cc3ceff7277f8de54d904aae512e527e08c53c6971b27a78892f7e8a76b8"),
])
def test_cayley_export_digest(tmp_path, capsys, spec, digest):
    path = tmp_path / "cayley.csv"
    assert main(["group", "--from", *spec, "--emit-cayley", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_failed_export_leaves_no_file(tmp_path, monkeypatch):
    def reject(group):
        raise mg.CayleyTableError("rejected")

    monkeypatch.setattr(mg, "_certify", reject)
    group = mg.close([UnitaryMatrix.diagonal([-1, -1, 1])])  # its table is not built yet
    path = tmp_path / "cayley.csv"
    with pytest.raises(mg.CayleyTableError):
        export_group(group, "cayley", str(path))
    assert not path.exists()
    with pytest.raises(IndexError):  # no name for the generator
        export_group(group, "elements", str(path), names=[])
    assert not path.exists()


# the share of its text an export may hold at its peak: the elements export
# holds one record's text at a time; the Cayley export holds one line and
# the rows still waiting for their tree children (at most 111 of the 648,
# about a third of the text), where the whole table would take twice the
# text
_EXPORT_SHARE = {"cayley": 1 / 2, "elements": 1 / 8}


@pytest.mark.parametrize("what", ["cayley", "elements"])
def test_export_streams_its_text(tmp_path, family_648, monkeypatch, what):
    # the export neither reads a table the oracles cached for the group nor
    # fills one on the group
    monkeypatch.delitem(group_oracles._TABLES, family_648, raising=False)
    held = dict(vars(family_648))
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        export_group(family_648, what, str(path), ["E", "F", "D"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size * _EXPORT_SHARE[what]
    assert family_648 not in group_oracles._TABLES
    assert vars(family_648).keys() == held.keys()
    assert all(vars(family_648)[k] is v for k, v in held.items())


def test_export_writes_through_a_symlink(tmp_path, family_group):
    target = tmp_path / "target.csv"
    target.write_text("stale\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    export_group(family_group, "cayley", str(link))
    assert link.is_symlink()
    assert target.read_text() == "".join(mg.cayley_csv_lines(family_group))


C3_TO_DEV_STDOUT = ["group", "--from", "familyC", "1", "0", "0", "--emit-cayley", "/dev/stdout"]


def test_cayley_export_to_dev_stdout(tmp_path):
    code, out, err, _ = _console(tmp_path, *C3_TO_DEV_STDOUT)  # fd 1 is a pipe
    assert code == 0, err
    assert "0,1,2\n1,2,0\n2,0,1\n" in out


def test_dev_stdout_with_stdout_on_a_file(tmp_path):
    # /dev/stdout is then the file itself: opened again, it was truncated and
    # written from offset 0, and the printed lines overwrote part of the table
    out = tmp_path / "out.txt"
    with open(out, "w") as fh:
        code, _, err, _ = _console(tmp_path, *C3_TO_DEV_STDOUT, stdout=fh)
    assert code == 0, err
    assert out.read_text() == (
        "order: 3\n0,1,2\n1,2,0\n2,0,1\ncayley table written to /dev/stdout\n"
    )
    with open(out, "w") as fh:
        code, _, err, _ = _console(tmp_path, "verify", "--json", "/dev/stdout", stdout=fh)
    assert code == 0, err
    lines, _, report = out.read_text().partition("overall: PASS\n")
    assert len(lines.splitlines()) == len(CHECK_IDS) + 1  # the checks and the info line
    assert VerificationReport.from_json(report).overall


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_on_stdout_and_stderr_exits_2(tmp_path, monkeypatch, unbuffered):
    # the error line went to the same closed pipe, and that write raised
    # again, so the exit status was 1, the verify-FAIL code (or 120 from the
    # flush at exit when stdout is buffered)
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, *_ = _console(tmp_path, "query", "sixj", "2", "2", "2", "2", "2", "2",
                            stdout=write_end, stderr=write_end)
    finally:
        os.close(write_end)
    assert code == 2


def test_paper_group_export_has_162_records(tmp_path, paper_group):
    path = tmp_path / "paper.json"
    export_group(paper_group, "elements", str(path))
    records = json.loads(path.read_text())
    assert len(records) == 162
    words = {r["word"] for r in records}
    assert "e" in words and len(words) == 162


def test_cli_verify_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "--json", str(path)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in captured
    report = VerificationReport.from_json(path.read_text())
    assert report.overall
    assert tuple(c.id for c in report.checks) == CHECK_IDS
    assert report.info == {"braid_image_conjugate_to_family_in_SU3": True}


def test_cli_verify_unwritable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert main(["verify", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert "overall: PASS" in captured.out
    assert captured.err.startswith("error: ")
    assert not path.exists()


def test_cli_r_bound_exits_2(capsys):
    too_large = str(cli.MAX_R + 1)
    assert main(["query", "delta", "1", "--r", too_large]) == 2
    assert capsys.readouterr().err.startswith(f"error: --r must be at most {cli.MAX_R}")
    assert main(["rep", "--r", too_large, "--charge", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: --r must be at most")
    assert main(["query", "delta", "1", "--r", str(cli.MAX_R)]) == 0


@pytest.mark.parametrize(
    "argv, order",
    [
        # just above the bound, so a missing check fails fast instead of hanging
        (["family", "C", "1031", "1", "1"], 4124),
        (["group", "--from", "familyC", "1031", "1", "1"], 4124),
        (["group", "--from", "familyD", "9", "1", "1", "1031", "1", "1"], 37116),
        (["rep", "--phase", "1/513"], 4104),
        (["family", "C", "10007", "1", "1"], 40028),
    ],
)
def test_cli_working_order_bound_exits_2(argv, order, capsys):
    assert order > cli.MAX_WORKING_ORDER
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f"order {order}, above" in captured.err
    assert captured.out == ""
    # refused before any table of that order was built
    assert order not in cyclo._CONTEXTS


def test_cli_verify_cap_below_1_exits_2(capsys):
    for cap in ("0", "-5"):
        assert main(["verify", "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --cap must be positive\n"
        assert captured.out == ""  # refused before the checklist runs


# -- the parser's grammar, drawn ---------------------------------------------
# Every argument vector the parser accepts exits 0, 1 or 2, soon and without
# a traceback.  The integers are boundary and negative values of a small
# range, or huge ones.  The family parameters stay at 5 or less, so that no
# draw closes a large group: at working order 60 or less, even a closure
# that passes the 4096 cap takes about 35 ms.

_HUGE = st.sampled_from([-(10**30), -(2**63), 2**63, 10**30])


def _ints(low, high):
    # one draw in eight is huge, so that a command with six parameters
    # still draws all six from the small range now and then
    small = st.integers(low, high)
    return st.sampled_from([small] * 7 + [_HUGE]).flatmap(lambda ints: ints)


_R = _ints(-1, cli.MAX_R + 1)
_LABEL = _ints(-1, cli.MAX_R)
_FAMILY = _ints(-1, 5)
# an empty value too: `--phase=` is a value, not the option left out
_PHASE = (st.tuples(_ints(-2, 9), _ints(-2, 9)).map("{0[0]}/{0[1]}".format)
          | _ints(-2, 9) | st.just(""))


@st.composite
def _argvs(draw):
    def values(strategy, arity, min_size=1):
        # as many as the command takes, or another count
        size = draw(st.just(arity) | st.integers(min_size, 7))
        argv.extend(str(draw(strategy)) for _ in range(size))

    def option(name, strategy):
        # NAME=VALUE, so that a value such as "-1/3" is not read as an option
        if draw(st.booleans()):
            argv.append(f"{name}={draw(strategy)}")

    argv = [draw(st.sampled_from(["verify", "rep", "query", "group", "family"]))]
    if argv[0] == "verify":
        option("--cap", _ints(-1, 200))
    elif argv[0] == "rep":
        option("--r", _R)
        option("--charge", _LABEL)
        option("--phase", _PHASE)
    elif argv[0] == "query":
        argv.append(draw(st.sampled_from(sorted(cli._QUERIES))))
        values(_LABEL, cli._QUERIES[argv[1]][0])
        option("--r", _R)
    elif argv[0] == "group":
        source = draw(st.sampled_from(["paper", "familyC", "familyD", "familyE"]))
        argv.extend(["--from", source])
        values(_FAMILY, {"familyC": 3, "familyD": 6}.get(source, 0), min_size=0)
        option("--cap", _ints(-1, 200) | st.sampled_from([cli.MAX_GROUP_CAP, cli.MAX_GROUP_CAP + 1]))
    else:
        argv.append(draw(st.sampled_from(["C", "D"])))
        values(_FAMILY, {"C": 3, "D": 6}[argv[1]])
    return argv


@given(_argvs())
def test_drawn_argv_exits_0_1_or_2_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2.0, argv
    err = err.getvalue()
    if code == 2:
        # one error line and nothing else
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
    else:
        assert err == "", argv
        # exit 1 is verify's FAIL and nothing else
        assert code == 0 or (code == 1 and argv[0] == "verify"
                             and out.getvalue().endswith("overall: FAIL\n")), (argv, code)
