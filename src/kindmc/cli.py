"""Command-line interface.

    kindmc verify  <file.kts | --family NAME --d N [--variant V]> [options]
    kindmc compare <system> [options]
    kindmc bench   [--suite standard|quick] [--out report.json] [--jobs N]
    kindmc oracle  <system> [--cap BITS]

Exit codes: 0 the system is correct (or the command simply succeeded),
1 a bug was found, 2 the iteration bound was exhausted, 3 a usage error or
bad input (any KindmcError but the two below, or an OSError), 4 the two
engines contradicted each other, 5 an internal error (a broken invariant or
any other unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .engine import (
    ComparisonRecord,
    EngineConfig,
    Outcome,
    TargetRecheck,
    VerificationReport,
    compare,
    run,
)
from .errors import ConfigError, DiscrepancyError, InternalError, KindmcError
from .frontend import BenchmarkSpec, generate_benchmark, parse_file
from .ir import Trace, TransitionSystem, _fmt_value
from .oracle import DEFAULT_STATE_BIT_CAP, OracleVerdict, bfs_check
from .solver import resolve_config

RUN_RECORD_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "benchmark",
        "mode",
        "outcome",
        "k",
        "witness_len",
        "time_ms",
        "solver_calls",
        "targets_added",
        "proof_source",
    ],
    "properties": {
        "benchmark": {"type": "string"},
        "mode": {"enum": ["plain", "extended"]},
        "outcome": {"enum": ["bug", "correct", "bound-exhausted"]},
        "k": {"type": "integer", "minimum": 1},
        "witness_len": {"type": ["integer", "null"], "minimum": 1},
        "time_ms": {"type": "number", "minimum": 0},
        "solver_calls": {"type": "integer", "minimum": 0},
        "targets_added": {"type": "integer", "minimum": 0},
        "proof_source": {"enum": ["forward", "inductive", None]},
    },
}


def run_record(report: VerificationReport, benchmark: str) -> dict:
    """The canonical single-run result object."""
    return {
        "benchmark": benchmark,
        "mode": report.mode,
        "outcome": report.outcome.value,
        "k": report.k,
        "witness_len": len(report.witness.states) if report.witness else None,
        "time_ms": round(report.wall_ms, 3),
        "solver_calls": report.solver_calls,
        "targets_added": len(report.targets),
        "proof_source": report.proof_source.value if report.proof_source else None,
    }


# ---------------------------------------------------------------------------
# Argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("system", nargs="?", default=None, help="path to a .kts file")
    p.add_argument("--family", default=None, help="generate a built-in benchmark family")
    p.add_argument("--d", type=int, default=None, help="depth parameter for --family")
    p.add_argument("--variant", default=None, help="family variant (accumulator: safe|buggy)")


def _add_engine_args(p: argparse.ArgumentParser, with_engine: bool = True) -> None:
    if with_engine:
        p.add_argument(
            "--engine", choices=["plain", "extended"], default="extended",
            help="plain induction or the target-extended engine (default)",
        )
    p.add_argument("--max-k", type=int, default=100, help="iteration bound (default 100)")
    p.add_argument(
        "--solver", default=None,
        help="enum (built-in, default) or external:<command>; the KINDMC_SOLVER"
        " environment variable supplies a default",
    )
    p.add_argument(
        "--target-recheck", choices=["same", "next"], default="same",
        help="check fresh targets immediately (same) or next iteration",
    )
    p.add_argument("--timeout-ms", type=int, default=0, help="per-call external solver timeout")
    p.add_argument(
        "--no-validate", action="store_true",
        help="skip replaying witnesses through the reference semantics",
    )


def _add_output_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=["human", "json"], default="human")


def build_parser() -> _Parser:
    parser = _Parser(prog="kindmc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    pv = sub.add_parser("verify", help="check one system")
    _add_system_args(pv)
    _add_engine_args(pv)
    _add_output_arg(pv)

    pc = sub.add_parser("compare", help="run both engines and cross-check")
    _add_system_args(pc)
    _add_engine_args(pc, with_engine=False)
    _add_output_arg(pc)

    pb = sub.add_parser("bench", help="run a benchmark suite with both engines")
    pb.add_argument("--suite", choices=["standard", "quick"], default="standard")
    pb.add_argument("--out", default=None, help="write the JSON report to this file")
    pb.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; records are computed in order in one thread",
    )
    _add_engine_args(pb, with_engine=False)
    _add_output_arg(pb)

    po = sub.add_parser("oracle", help="exhaustive breadth-first ground truth")
    _add_system_args(po)
    po.add_argument(
        "--cap", type=int, default=DEFAULT_STATE_BIT_CAP, help="state-bit cap (default %(default)s)"
    )
    _add_output_arg(po)

    return parser


def _load_system(args: argparse.Namespace, parser: _Parser) -> TransitionSystem:
    if args.system is not None and args.family is not None:
        parser.error("give either a system file or --family, not both")
    if args.system is not None:
        return parse_file(args.system)
    if args.family is not None:
        if args.d is None:
            raise ConfigError("--family needs --d")
        return generate_benchmark(BenchmarkSpec(args.family, args.d, args.variant or ""))
    parser.error("no system given: pass a .kts file or --family/--d")
    raise AssertionError("unreachable")


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        max_k=args.max_k,
        solver=resolve_config(args.solver, timeout_ms=args.timeout_ms),
        target_recheck=TargetRecheck.SAME_ITERATION
        if args.target_recheck == "same"
        else TargetRecheck.NEXT_ITERATION,
        validate=not args.no_validate,
    )


# ---------------------------------------------------------------------------
# Output helpers


def format_trace(trace: Trace) -> list[str]:
    lines = []
    for i, st in enumerate(trace.states):
        vals = " ".join(f"{n}={_fmt_value(st[n])}" for n in st.names())
        lines.append(f"  state {i + 1}: {vals}")
        if i < len(trace.inputs) and trace.inputs[i].names():
            ivals = " ".join(
                f"{n}={_fmt_value(trace.inputs[i][n])}" for n in trace.inputs[i].names()
            )
            lines.append(f"  input {i + 1}: {ivals}")
    return lines


def _print_report(report: VerificationReport, benchmark: str, output: str) -> None:
    if output == "json":
        print(json.dumps(run_record(report, benchmark), indent=2, sort_keys=True))
        return
    print(f"benchmark: {benchmark}")
    if report.outcome is Outcome.BUG_FOUND:
        head = f"outcome: bug found at k={report.k} ({report.mode} engine)"
        if report.matched_target_id is not None:
            head += f", via target {report.matched_target_id}"
        print(head)
        w = report.witness
        if w is not None:
            prop = f", property {w.violated_prop}" if w.violated_prop else ""
            print(f"witness: {len(w.states)} states{prop}")
            for line in format_trace(w):
                print(line)
    elif report.outcome is Outcome.CORRECT:
        src = report.proof_source.value if report.proof_source else "?"
        print(f"outcome: correct at k={report.k} ({src} condition, {report.mode} engine)")
    else:
        print(f"outcome: bound exhausted at k={report.k} ({report.mode} engine)")
    n = len(report.targets)
    print(
        f"stats: {report.solver_calls} solver calls,"
        f" {n} target{'' if n == 1 else 's'}, {report.wall_ms:.1f} ms"
    )
    for wmsg in report.warnings:
        print(f"warning: {wmsg}")


def _exit_for(outcome: Outcome) -> int:
    if outcome is Outcome.CORRECT:
        return 0
    if outcome is Outcome.BUG_FOUND:
        return 1
    return 2


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    sys_ = _load_system(args, parser)
    cfg = _engine_config(args)
    report = run(sys_, args.engine, cfg)
    _print_report(report, sys_.name, args.output)
    return _exit_for(report.outcome)


def _comparison_obj(rec: ComparisonRecord, benchmark: str) -> dict:
    return {
        "benchmark": benchmark,
        "plain": run_record(rec.plain, benchmark),
        "extended": run_record(rec.extended, benchmark),
        "k_delta": rec.k_delta,
        "time_ratio": round(rec.time_ratio, 3),
    }


def _cmd_compare(args: argparse.Namespace, parser: _Parser) -> int:
    sys_ = _load_system(args, parser)
    cfg = _engine_config(args)
    rec = compare(sys_, cfg)
    if args.output == "json":
        print(json.dumps(_comparison_obj(rec, sys_.name), indent=2, sort_keys=True))
    else:
        print(f"benchmark: {sys_.name}")
        for name, rep in (("plain", rec.plain), ("extended", rec.extended)):
            print(
                f"{name}: {rep.outcome.value} at k={rep.k},"
                f" {rep.solver_calls} solver calls, {rep.wall_ms:.1f} ms"
            )
        print(f"k delta: {rec.k_delta}  time ratio: {rec.time_ratio:.2f}")
    return 0


_SUITES: dict[str, tuple[BenchmarkSpec, ...]] = {
    "standard": (
        BenchmarkSpec("chain_bug", 4),
        BenchmarkSpec("chain_bug", 6),
        BenchmarkSpec("chain_bug", 9),
        BenchmarkSpec("chain_bug", 11),
        BenchmarkSpec("chain_bug", 20),
        BenchmarkSpec("diamond_parity", 9),
        BenchmarkSpec("diamond_parity", 25),
        BenchmarkSpec("const_check", 16),
        BenchmarkSpec("const_check", 64),
        BenchmarkSpec("accumulator", 4, "safe"),
        BenchmarkSpec("accumulator", 4, "buggy"),
    ),
    "quick": (
        BenchmarkSpec("chain_bug", 4),
        BenchmarkSpec("chain_bug", 6),
        BenchmarkSpec("diamond_parity", 9),
        BenchmarkSpec("const_check", 16),
        BenchmarkSpec("accumulator", 4, "safe"),
        BenchmarkSpec("accumulator", 4, "buggy"),
    ),
}


def _bench_one(spec: BenchmarkSpec, cfg: EngineConfig) -> dict:
    sys_ = generate_benchmark(spec)
    rec = compare(sys_, cfg)
    return _comparison_obj(rec, sys_.name)


def _bench_table(records: list[dict]) -> list[str]:
    header = (
        "| benchmark | outcome | k plain | k ext | k delta | witness | "
        "time plain (ms) | time ext (ms) |"
    )
    sep = "|---|---|---|---|---|---|---|---|"
    rows = [header, sep]
    for r in records:
        p, e = r["plain"], r["extended"]
        wit = e["witness_len"] if e["witness_len"] is not None else "-"
        rows.append(
            f"| {r['benchmark']} | {e['outcome']} | {p['k']} | {e['k']} |"
            f" {r['k_delta']} | {wit} | {p['time_ms']} | {e['time_ms']} |"
        )
    return rows


def _cmd_bench(args: argparse.Namespace, parser: _Parser) -> int:
    cfg = _engine_config(args)
    specs = _SUITES[args.suite]
    records = [_bench_one(s, cfg) for s in specs]
    bug_pairs = [
        r for r in records if r["plain"]["outcome"] == "bug" and r["extended"]["outcome"] == "bug"
    ]
    aggregates = {
        "benchmarks": len(records),
        "bugs": sum(1 for r in records if r["extended"]["outcome"] == "bug"),
        "correct": sum(1 for r in records if r["extended"]["outcome"] == "correct"),
        "bound_exhausted": sum(
            1 for r in records if r["extended"]["outcome"] == "bound-exhausted"
        ),
        "mean_k_ratio": round(
            sum(r["plain"]["k"] / r["extended"]["k"] for r in bug_pairs) / len(bug_pairs), 3
        )
        if bug_pairs
        else None,
    }
    obj = {
        "suite": args.suite,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "records": records,
        "aggregates": aggregates,
    }
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    if args.output == "json":
        print(text)
    else:
        for line in _bench_table(records):
            print(line)
        print()
        print(f"aggregates: {json.dumps(aggregates, sort_keys=True)}")
        if args.out:
            print(f"report written to {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace, parser: _Parser) -> int:
    sys_ = _load_system(args, parser)
    result = bfs_check(sys_, state_bit_cap=args.cap)
    if args.output == "json":
        obj = {
            "benchmark": sys_.name,
            "verdict": result.verdict.value,
            "explored": result.explored,
            "depth": result.depth,
            "witness_len": len(result.trace.states) if result.trace else None,
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"benchmark: {sys_.name}")
        print(f"verdict: {result.verdict.value}")
        print(f"explored: {result.explored} states, depth {result.depth}")
        if result.trace is not None:
            print(f"witness: {len(result.trace.states)} states,"
                  f" property {result.trace.violated_prop}")
            for line in format_trace(result.trace):
                print(line)
    return 1 if result.verdict is OracleVerdict.UNSAFE else 0


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 3
    try:
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "compare":
            return _cmd_compare(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        if args.command == "oracle":
            return _cmd_oracle(args, parser)
        parser.print_usage(sys.stderr)
        return 3
    except SystemExit as e:  # parser.error inside a subcommand
        return int(e.code or 0)
    except DiscrepancyError as e:
        print(f"kindmc: discrepancy: {e}", file=sys.stderr)
        return 4
    except InternalError as e:
        print(f"kindmc: internal error: {e}", file=sys.stderr)
        return 5
    except (KindmcError, OSError) as e:  # every other package error is about the input
        print(f"kindmc: error: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # exit 1 would claim a bug was found
        print(f"kindmc: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
