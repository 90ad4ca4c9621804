"""End-to-end coverage of the command line: exit codes, JSON schemas,
benchmark reports, and solver configuration precedence."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

import kindmc.cli as cli_mod
import kindmc.engine as engine_mod
from kindmc.cli import RUN_RECORD_SCHEMA, main
from kindmc.engine import ComparisonRecord, Outcome, VerificationReport
from kindmc.errors import (
    ConfigError,
    DiscrepancyError,
    InternalError,
    ParseError,
    ProtocolError,
    SortError,
    ValidationError,
)
from kindmc.ir import ReplayVerdict

from systems import nested_not

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Exit codes


def test_verify_bug_exits_1(capsys):
    code, out, _ = _run(capsys, ["verify", "--family", "chain_bug", "--d", "5"])
    assert code == 1
    assert "bug found at k=4" in out
    assert "via target 3" in out


def test_verify_correct_exits_0(capsys):
    code, out, _ = _run(capsys, ["verify", str(BENCH_DIR / "saturating.kts")])
    assert code == 0
    assert "correct at k=2 (inductive condition, extended engine)" in out


def test_verify_bound_exhausted_exits_2(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--family", "chain_bug", "--d", "9", "--max-k", "2"]
    )
    assert code == 2
    assert "bound exhausted at k=2" in out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify"],
        ["frobnicate"],
        ["verify", "--family", "chain_bug", "--d", "0"],
        ["verify", "--family", "no_such_family", "--d", "3"],
        ["verify", "--family", "chain_bug"],
        ["verify", "--family", "accumulator", "--d", "4"],
        ["verify", "nonexistent.kts"],
        ["verify", "--family", "chain_bug", "--d", "3", "--solver", "bogus"],
        ["verify", "--family", "chain_bug", "--d", "3", "--max-k", "0"],
        ["verify", str(BENCH_DIR / "chain5.kts"), "--family", "chain_bug", "--d", "5"],
    ],
    ids=[
        "no-args",
        "no-system",
        "unknown-subcommand",
        "zero-depth",
        "unknown-family",
        "family-without-d",
        "missing-variant",
        "missing-file",
        "bad-solver-string",
        "zero-max-k",
        "file-and-family",
    ],
)
def test_usage_errors_exit_3(capsys, argv):
    code, _, _ = _run(capsys, argv)
    assert code == 3


def test_internal_error_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(
        engine_mod,
        "replay_trace",
        lambda sys, trace: ReplayVerdict(False, "rejected on purpose", 0),
    )
    code, _, err = _run(capsys, ["verify", "--family", "chain_bug", "--d", "3"])
    assert code == 5
    assert err == (
        "kindmc: internal error: witness failed replay at index 0: rejected on purpose\n"
    )


def test_unexpected_exception_exits_5(capsys, monkeypatch):
    # any exception the program does not expect must not exit 1 ("bug found")
    def boom(args, parser):
        raise RuntimeError("raised on purpose")

    monkeypatch.setattr(cli_mod, "_cmd_verify", boom)
    code, _, err = _run(capsys, ["verify", "--family", "chain_bug", "--d", "3"])
    assert code == 5
    assert err == "kindmc: internal error: RuntimeError: raised on purpose\n"


def _nested_and_system(tmp_path, depth: int) -> Path:
    """A system whose deepest s-expression is `depth` parentheses deep: the
    property is an `and` chain nested inside (system (prop ...))."""
    chain = depth - 2
    prop = "(and true " * (chain - 1) + "(= x #b000)" + ")" * (chain - 1)
    f = tmp_path / f"nested{depth}.kts"
    f.write_text(
        "(system (var x (bv 3)) (init (= x #b000)) (trans (= (next x) x))\n"
        f" (prop deep {prop}) (halt false))"
    )
    return f


def test_nesting_at_the_limit_gets_a_verdict(capsys, tmp_path):
    f = _nested_and_system(tmp_path, 200)
    code, out, _ = _run(capsys, ["verify", str(f)])
    assert code == 0
    assert "correct at k=2 (inductive condition" in out
    code, out, err = _run(capsys, ["compare", str(f), "--output", "json"])
    assert code == 0, err
    assert json.loads(out)["plain"]["outcome"] == "correct"


def test_nesting_past_the_limit_exits_3(capsys, tmp_path):
    f = _nested_and_system(tmp_path, 201)
    code, _, err = _run(capsys, ["verify", str(f)])
    assert code == 3
    # the 201st '(' opens on line 2, after " (prop deep " and 198 "(and true "
    col = len(" (prop deep ") + 198 * len("(and true ") + 1
    assert err == f"kindmc: error: 2:{col}: expression nested deeper than 200 levels\n"


def test_nesting_built_in_python_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "generate_benchmark", lambda spec: nested_not(3000))
    code, out, err = _run(capsys, ["verify", "--family", "chain_bug", "--d", "3"])
    assert (code, out) == (3, "")
    assert err == "kindmc: error: prop deep is nested deeper than 200 levels\n"


@pytest.mark.parametrize(
    "literal,width",
    [("#x" + "1" * 17, 68), ("#b" + "0" * 65, 65)],
    ids=["hex-17-digits", "bin-65-digits"],
)
def test_literal_wider_than_64_bits_exits_3(capsys, tmp_path, literal, width):
    f = tmp_path / "wide.kts"
    f.write_text(
        "(system (var x (bv 3))\n"
        f"  (init (= x {literal}))\n"
        "  (trans (= (next x) x)) (prop p true) (halt false))\n"
    )
    code, out, err = _run(capsys, ["verify", str(f)])
    assert (code, out) == (3, "")
    assert err == f"kindmc: error: 2:14: bit-vector width must be 1..64, got {width}\n"


def test_non_utf8_file_exits_3(capsys, tmp_path):
    f = tmp_path / "latin1.kts"
    # a Latin-1 byte after valid UTF-8; the two-byte character before it
    # counts as one column, as the reader counts it
    f.write_bytes(
        "(system (var x (bv 3)) ; café\n".encode()
        + b"  ; \xc3\xa9t\xe9\n"
        + b"  (init (= x 0)) (trans (= (next x) x)) (prop p true) (halt false))\n"
    )
    code, out, err = _run(capsys, ["verify", str(f)])
    assert (code, out) == (3, "")
    assert err == "kindmc: error: 2:7: invalid UTF-8 byte 0xe9\n"


_ERROR_EXITS = [
    (ParseError("bad token", 2, 7), 3, "kindmc: error: 2:7: bad token"),
    (SortError("bad sort"), 3, "kindmc: error: bad sort"),
    (ValidationError("bad system"), 3, "kindmc: error: bad system"),
    (ConfigError("bad option"), 3, "kindmc: error: bad option"),
    (ProtocolError("bad model"), 3, "kindmc: error: bad model"),
    (FileNotFoundError("no such file"), 3, "kindmc: error: no such file"),
    (DiscrepancyError("engines disagree"), 4, "kindmc: discrepancy: engines disagree"),
    (InternalError("broken invariant"), 5, "kindmc: internal error: broken invariant"),
    (RuntimeError("unexpected"), 5, "kindmc: internal error: RuntimeError: unexpected"),
]


@pytest.mark.parametrize(
    "exc,code,message", _ERROR_EXITS, ids=[type(e[0]).__name__ for e in _ERROR_EXITS]
)
def test_exit_code_per_error_class(capsys, monkeypatch, exc, code, message):
    # the exit-code table of the README: input-side errors 3, a contradiction
    # 4, a broken invariant or anything unexpected 5
    def boom(args, parser):
        raise exc

    monkeypatch.setattr(cli_mod, "_cmd_verify", boom)
    got, out, err = _run(capsys, ["verify", "--family", "chain_bug", "--d", "3"])
    assert (got, out) == (code, "")
    assert err == message + "\n"


def test_help_exits_0(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    assert "verify" in out and "bench" in out


def test_plain_engine_flag(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--family", "chain_bug", "--d", "5", "--engine", "plain"],
    )
    assert code == 1
    assert "bug found at k=6 (plain engine)" in out


# ---------------------------------------------------------------------------
# JSON output


def test_verify_json_record(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", str(BENCH_DIR / "chain5.kts"), "--output", "json"],
    )
    assert code == 1
    rec = json.loads(out)
    jsonschema.validate(rec, RUN_RECORD_SCHEMA)
    assert set(rec) == set(RUN_RECORD_SCHEMA["required"])
    assert rec["benchmark"] == "chain5"
    assert rec["mode"] == "extended"
    assert rec["outcome"] == "bug"
    assert rec["k"] == 4
    assert rec["witness_len"] == 6
    assert rec["targets_added"] == 3
    assert rec["proof_source"] is None


def test_verify_json_correct_record(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", str(BENCH_DIR / "saturating.kts"), "--output", "json"],
    )
    assert code == 0
    rec = json.loads(out)
    jsonschema.validate(rec, RUN_RECORD_SCHEMA)
    assert rec["outcome"] == "correct"
    assert rec["witness_len"] is None
    assert rec["proof_source"] == "inductive"


def test_compare_json(capsys):
    code, out, _ = _run(
        capsys,
        ["compare", "--family", "chain_bug", "--d", "5", "--output", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"benchmark", "plain", "extended", "k_delta", "time_ratio"}
    jsonschema.validate(obj["plain"], RUN_RECORD_SCHEMA)
    jsonschema.validate(obj["extended"], RUN_RECORD_SCHEMA)
    assert obj["plain"]["k"] == 6
    assert obj["extended"]["k"] == 4
    assert obj["k_delta"] == 2


def test_witness_printed_in_human_mode(capsys):
    code, out, _ = _run(capsys, ["verify", "--family", "chain_bug", "--d", "3"])
    assert code == 1
    assert "witness: 4 states, property below_limit" in out
    assert "  state 1: x=0" in out
    assert "  state 4: x=3" in out


# ---------------------------------------------------------------------------
# bench


def _scrub(obj):
    """Drop wall-clock fields so reports from different runs compare equal."""
    if isinstance(obj, dict):
        return {
            k: _scrub(v)
            for k, v in obj.items()
            if k not in ("time_ms", "timestamp", "time_ratio")
        }
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def test_bench_quick_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["bench", "--suite", "quick", "--out", str(out_file), "--output", "json"]
    )
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert json.loads(out) == obj
    assert set(obj) == {"suite", "timestamp", "records", "aggregates"}
    assert obj["suite"] == "quick"
    assert len(obj["records"]) == 6
    agg = obj["aggregates"]
    assert set(agg) == {"benchmarks", "bugs", "correct", "bound_exhausted", "mean_k_ratio"}
    assert agg["benchmarks"] == 6
    assert agg["bugs"] == 5
    assert agg["correct"] == 1
    assert agg["bound_exhausted"] == 0
    assert agg["mean_k_ratio"] == 1.71
    for rec in obj["records"]:
        jsonschema.validate(rec["plain"], RUN_RECORD_SCHEMA)
        jsonschema.validate(rec["extended"], RUN_RECORD_SCHEMA)
        assert rec["plain"]["outcome"] == rec["extended"]["outcome"]


def test_bench_jobs_agree(capsys, tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["bench", "--suite", "quick", "--jobs", "1", "--out", str(f1)]) == 0
    assert main(["bench", "--suite", "quick", "--jobs", "2", "--out", str(f2)]) == 0
    capsys.readouterr()
    r1 = _scrub(json.loads(f1.read_text()))
    r2 = _scrub(json.loads(f2.read_text()))
    assert r1 == r2


def test_bench_human_table(capsys):
    code, out, _ = _run(capsys, ["bench", "--suite", "quick"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| benchmark | outcome | k plain | k ext |")
    assert lines[1].startswith("|---")
    assert any("chain_bug_d4" in ln for ln in lines)
    assert any(ln.startswith("aggregates: ") for ln in lines)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_unsafe(capsys):
    code, out, _ = _run(
        capsys, ["oracle", str(BENCH_DIR / "chain5.kts"), "--output", "json"]
    )
    assert code == 1
    obj = json.loads(out)
    assert set(obj) == {"benchmark", "verdict", "explored", "depth", "witness_len"}
    assert obj["verdict"] == "unsafe"
    assert obj["explored"] == 6
    assert obj["witness_len"] == 6


def test_oracle_safe(capsys):
    code, out, _ = _run(capsys, ["oracle", str(BENCH_DIR / "saturating.kts")])
    assert code == 0
    assert "safe-within-explored-space" in out


def test_oracle_cap(capsys):
    code, _, err = _run(
        capsys, ["oracle", "--family", "const_check", "--d", "64", "--cap", "2"]
    )
    assert code == 3
    assert "state bits" in err


# ---------------------------------------------------------------------------
# Solver configuration precedence


def test_env_solver_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("KINDMC_SOLVER", "external:/nonexistent/smt-solver-xyz")
    code, _, err = _run(capsys, ["verify", "--family", "chain_bug", "--d", "3"])
    assert code == 3
    assert "not found" in err


@pytest.mark.parametrize("source", ["flag", "env"])
def test_unbalanced_quote_in_solver_command_exits_3(capsys, monkeypatch, source):
    argv = ["verify", "--family", "chain_bug", "--d", "3"]
    if source == "flag":
        argv += ["--solver", 'external:z3 "-in']
    else:
        monkeypatch.setenv("KINDMC_SOLVER", 'z3 "-in')
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert err == (
        "kindmc: error: cannot split solver command 'z3 \"-in':"
        " No closing quotation\n"
    )


def test_solver_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("KINDMC_SOLVER", "external:/nonexistent/smt-solver-xyz")
    code, _, _ = _run(
        capsys, ["verify", "--family", "chain_bug", "--d", "3", "--solver", "enum"]
    )
    assert code == 1


def test_verify_with_shim_solver(capsys, shim_cmd):
    code, out, _ = _run(
        capsys,
        [
            "verify", "--family", "chain_bug", "--d", "4",
            "--solver", f"external:{shim_cmd}", "--output", "json",
        ],
    )
    assert code == 1
    rec = json.loads(out)
    assert rec["outcome"] == "bug"
    assert rec["k"] == 3


# ---------------------------------------------------------------------------
# Discrepancies


def test_discrepancy_exits_4(capsys, monkeypatch):
    fake = ComparisonRecord(
        plain=VerificationReport(outcome=Outcome.CORRECT, k=1, mode="plain", wall_ms=1.0),
        extended=VerificationReport(outcome=Outcome.BUG_FOUND, k=1, mode="extended", wall_ms=1.0),
        k_delta=0,
        time_ratio=1.0,
    )

    def boom(sys_, cfg=None):
        raise DiscrepancyError("engines disagree on chain5", fake)

    monkeypatch.setattr(cli_mod, "compare", boom)
    code, _, err = _run(capsys, ["compare", "--family", "chain_bug", "--d", "5"])
    assert code == 4
    assert "discrepancy" in err
