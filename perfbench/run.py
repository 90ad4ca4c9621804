"""The kindmc benchmark.

    python3 perfbench/run.py --workload deep_bug --seed 1 --seconds 30 --trace 0

Runs one workload (deep_bug, wide_proof or random_corpus) in this single
process, with no threads, from the root of a source checkout. Set-up
builds the workload's inputs from the seed; each timed pass then runs
`kindmc.engine.compare` (both engines) on every input, and every verdict
is checked against its known answer after the pass, outside the timers.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics (medians over passes). With --trace 1 it holds the
per-layer metrics of a traced run: traced and untraced passes alternate,
spans are recorded around calls into each layer and written to
perfbench/out/ when the run ends, and two untimed counting passes follow.
A wrong verdict, an exception or a count that does not repeat exits with
status 1; a checkout without the program exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# gone by; setup_s is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5
# Passes at least in an end-to-end run, so that each engine run's median
# time rests on several passes.
MIN_PASSES = 7
# Passes of each kind at least in a traced run.
MIN_TRACED_PASSES = 3
TAIL_BEYOND = 10
# p99 of random_corpus is set by its 20 slowest runs, which change with the
# seed by about a quarter; p90 rests on 200.
TAIL_LEVELS = (75.0, 90.0)
KINDS = ("base", "extended-base", "forward", "inductive", "target-recheck")

clock = time.perf_counter


def import_program() -> None:
    """Put the checkout's `src` and `tests` first on the path and make
    sure kindmc is imported from there, not from an installed copy.
    Everything that imports kindmc (`instances`, `tracer`) is imported
    inside functions, after this has run."""
    src, tests = ROOT / "src", ROOT / "tests"
    for p in (tests, src):
        sys.path.insert(0, str(p))
    import kindmc

    if not Path(kindmc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"kindmc imported from {kindmc.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# One pass


@dataclass
class Pass:
    wall_s: float
    plain_s: float
    extended_s: float
    verdict_ms: list[float]
    attempted: int
    failed: int
    counts: tuple  # (solver_calls, k_ratio, targets_added): must repeat
    engine: dict[str, int] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_pass(wl, answers, tracer) -> Pass:
    """Parse (where the input is text) and compare every case, timing
    each; check each verdict between the timed sections. `tracer` times
    each engine run from outside."""
    from instances import check_record
    from kindmc import engine, frontend

    gc.collect()
    tracer.spans.clear()
    wall = 0.0
    failed = calls = added = matched = iterations = 0
    ratios, all_ratios = [], []
    for case in wl.cases:
        tracer.run += 1
        t0 = clock()
        try:
            system = case.system
            if system is None:
                system = frontend.parse(case.text, case.name)
            rec = engine.compare(system, wl.config)
        except Exception as exc:  # a raised run is a failed run, not a crash
            wall += clock() - t0
            print(f"{case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 2
            continue
        wall += clock() - t0
        bad = check_record(system, rec, answers[case.name], case.answer is not None)
        if bad:
            print(f"{case.name}: {bad} engine run(s) disagree with the known answer",
                  file=sys.stderr)
        failed += bad
        calls += rec.plain.solver_calls + rec.extended.solver_calls
        added += len(rec.extended.targets)
        matched += rec.extended.matched_target_id is not None
        iterations += len(rec.plain.iterations) + len(rec.extended.iterations)
        ratio = rec.plain.k / rec.extended.k
        all_ratios.append(ratio)
        if rec.plain.outcome.value == "bug":
            ratios.append(ratio)

    spans = list(tracer.spans)
    roots = [s for s in spans if s.parent == -1 and s.name.startswith("engine.run_")]
    per_engine = defaultdict(float)
    for s in roots:
        per_engine[s.name] += s.end - s.start
    k_ratio = statistics.fmean(ratios or all_ratios or [0.0])
    return Pass(
        wall_s=wall,
        plain_s=per_engine["engine.run_plain"],
        extended_s=per_engine["engine.run_extended"],
        verdict_ms=[(s.end - s.start) * 1000.0 for s in roots],
        attempted=2 * len(wl.cases),
        failed=failed,
        counts=(calls, k_ratio, added),
        engine={
            "engine.iterations": iterations,
            "engine.targets_added": added,
            "engine.targets_matched": matched,
        },
        spans=spans,
    )


# ---------------------------------------------------------------------------
# Metrics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest of the TAIL_LEVELS percentiles with at least
    TAIL_BEYOND samples beyond it, or the lowest level when none has, by
    nearest rank: (value, percentile, sample count)."""
    xs = sorted(samples)
    n = len(xs)
    level = TAIL_LEVELS[0]
    for p in TAIL_LEVELS:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            level = p
    return xs[max(math.ceil(level / 100.0 * n), 1) - 1], level, n


def per_run_ms(passes: list[Pass]) -> list[float]:
    """Each engine run's median time over the passes. Every pass runs the
    same inputs in the same order, so position i is the same engine run
    in every pass."""
    return [statistics.median(ms) for ms in zip(*(p.verdict_ms for p in passes))]


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, list[str]]:
    med = lambda f: statistics.median(f(p) for p in passes)  # noqa: E731
    verdicts = per_run_ms(passes)
    t_val, t_pct, t_n = tail(verdicts)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (med(lambda p: p.wall_s), "s"),
        "plain_s": (med(lambda p: p.plain_s), "s"),
        "extended_s": (med(lambda p: p.extended_s), "s"),
        "ext_speedup": (med(lambda p: p.plain_s / p.extended_s), "ratio"),
        "verdict_ms_p50": (statistics.median(verdicts), "ms"),
        "verdict_ms_tail": (t_val, "ms"),
        "k_ratio": (passes[0].counts[1], "ratio"),
        "solver_calls": (passes[0].counts[0], "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"verdict_ms_tail is p{t_pct:g} of {t_n} engine runs per pass",
        f"passes {len(passes)}",
    ]
    return values, notes


def layer_times(spans) -> dict[str, float]:
    """Per-layer times and calls of one traced pass."""
    from tracer import self_times

    m: dict[str, float] = defaultdict(float)
    for s in spans:
        ms = (s.end - s.start) * 1000.0
        if s.name == "encoder.encode":
            m[f"encoder.encode_ms.{s.detail}"] += ms
            m[f"encoder.calls.{s.detail}"] += 1
        elif s.name == "solver.check":
            kind, status = s.detail.split()
            m[f"solver.solve_ms.{kind}"] += ms
            m[f"solver.calls.{kind}"] += 1
            m[f"solver.{status}.{kind}"] += 1
        elif s.name == "solver.eval_expr":
            if s.parent >= 0 and spans[s.parent].name == "solver.check":
                m["solver.recheck_ms"] += ms
        elif s.name == "concrete.executor_build":
            m["concrete.executor_builds"] += 1
            m["concrete.executor_build_ms"] += ms
        elif s.name == "concrete.initial_states":
            m["concrete.initial_states_ms"] += ms
        elif s.name == "frontend.parse":
            m["frontend.parse_ms"] += ms
            m["frontend.parse_calls"] += 1
        elif s.name in ("engine.decode", "engine.replay", "engine.stitch", "engine.halt_sink"):
            m[f"{s.name}_ms"] += ms
    for layer, sec in self_times(spans).items():
        m[f"{layer}.self_ms"] += sec * 1000.0
    return m


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = []
    for k in KINDS:
        names += [(f"encoder.encode_ms.{k}", "ms"), (f"encoder.calls.{k}", "count"),
                  (f"encoder.assertion_nodes.{k}", "count")]
    names += [("encoder.targets_encoded", "count"), ("encoder.self_ms", "ms")]
    for k in KINDS:
        names += [(f"solver.solve_ms.{k}", "ms"), (f"solver.calls.{k}", "count")]
        names += [(f"solver.{st}.{k}", "count") for st in ("sat", "unsat", "unknown")]
    names += [("solver.recheck_ms", "ms"), ("solver.self_ms", "ms")]
    names += [
        ("concrete.executor_builds", "count"),
        ("concrete.executor_build_ms", "ms"),
        ("concrete.initial_states_ms", "ms"),
        ("concrete.successors_calls", "count"),
        ("concrete.succ_distinct_states", "count"),
        ("concrete.succ_cache_hit_ratio", "ratio"),
        ("concrete.self_ms", "ms"),
        ("frontend.parse_ms", "ms"),
        ("frontend.parse_calls", "count"),
        ("frontend.self_ms", "ms"),
        ("engine.decode_ms", "ms"),
        ("engine.replay_ms", "ms"),
        ("engine.stitch_ms", "ms"),
        ("engine.halt_sink_ms", "ms"),
        ("engine.iterations", "count"),
        ("engine.targets_added", "count"),
        ("engine.targets_matched", "count"),
        ("engine.target_yield", "ratio"),
        ("engine.self_ms", "ms"),
        ("oracle.bfs_ms", "ms"),
        ("oracle.explored_states", "count"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return names


# ---------------------------------------------------------------------------
# Runs


class Failure(Exception):
    """A wrong verdict, an exception or a count that did not repeat."""

    def __init__(self, message: str, passes: list[Pass]) -> None:
        super().__init__(message)
        self.passes = passes


def measure(wl, answers, seconds: float, tracers, min_passes: int) -> list[list[Pass]]:
    """Run passes until `seconds` have gone by and each tracer has been
    active for at least `min_passes`; the tracers take turns, one pass each."""
    out: list[list[Pass]] = [[] for _ in tracers]
    start = clock()
    while clock() - start < seconds or len(out[-1]) < min_passes:
        for o, tr in zip(out, tracers):
            with tr:
                o.append(run_pass(wl, answers, tr))
    return out


def check_passes(passes: list[Pass]) -> None:
    failed = sum(p.failed for p in passes)
    if failed:
        raise Failure(f"{failed} engine run(s) failed", passes)
    if len({p.counts for p in passes}) != 1:
        counts = sorted({p.counts for p in passes})
        raise Failure(f"counts differ between passes: {counts}", passes)


def count_pass(wl, answers) -> dict[str, float]:
    """An untimed pass with the counting wrappers installed."""
    from tracer import Counter, Tracer

    tracer = Tracer(roots_only=True)
    with Counter() as counter, tracer:
        p = run_pass(wl, answers, tracer)
    check_passes([p])
    return {**counter.counts, **p.engine}


def known_answers(wl, oracle_facts: dict) -> dict:
    """Known answer per case: frozen for fixed instances, from the oracle
    for random systems (its time and explored states are summed into
    `oracle_facts`)."""
    from kindmc import frontend
    from instances import oracle_answer

    answers = {}
    for case in wl.cases:
        if case.answer is not None:
            answers[case.name] = case.answer
            continue
        facts = oracle_answer(frontend.parse(case.text, case.name), wl.config.max_k)
        answers[case.name] = facts.answer
        oracle_facts["oracle.bfs_ms"] += facts.bfs_ms
        oracle_facts["oracle.explored_states"] += facts.explored
    return answers


def write_spans(path: Path, passes: list[Pass]) -> None:
    """One JSON array per span: pass, name, start, end, parent, run, detail."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as f:
        for i, p in enumerate(passes):
            for s in p.spans:
                f.write(json.dumps([i, *s]) + "\n")


def traced_metrics(wl, answers, seconds: float, oracle_facts: dict, spans_path: Path):
    """Alternate untraced and traced passes, then run two counting passes
    whose counts must agree."""
    from tracer import Tracer

    untraced, traced = measure(
        wl, answers, seconds, [Tracer(roots_only=True), Tracer()], MIN_TRACED_PASSES
    )
    check_passes(untraced + traced)
    counts = count_pass(wl, answers)
    again = count_pass(wl, answers)
    if counts != again:
        diff = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
        raise Failure(f"counts differ between counting passes: {diff}", [])
    write_spans(spans_path, traced)

    per_pass = [layer_times(p.spans) for p in traced]
    values = dict(counts)
    values.update(oracle_facts)
    for name in {n for m in per_pass for n in m}:
        values[name] = statistics.median(m.get(name, 0.0) for m in per_pass)
    calls = values.get("concrete.successors_calls", 0)
    if calls:
        distinct = values["concrete.succ_distinct_states"]
        values["concrete.succ_cache_hit_ratio"] = 1.0 - distinct / calls
    added = values.get("engine.targets_added", 0)
    if added:
        values["engine.target_yield"] = values["engine.targets_matched"] / added
    u_wall = statistics.median(p.wall_s for p in untraced)
    t_wall = statistics.median(p.wall_s for p in traced)
    values["trace.untraced_wall_s"] = u_wall
    values["trace.traced_wall_s"] = t_wall
    values["trace.overhead_s"] = t_wall - u_wall
    values["trace.spans"] = statistics.median(len(p.spans) for p in traced)
    metrics = {}
    for name, unit in per_layer_names():
        v = values.get(name, 0)
        metrics[name] = (int(v) if unit == "count" else v, unit)
    notes = [
        f"tracing overhead {t_wall - u_wall:+.4f} s per pass"
        f" ({t_wall:.4f} s traced against {u_wall:.4f} s untraced,"
        f" {len(traced)} passes each)",
        f"spans written to {spans_path}",
    ]
    return metrics, notes, untraced + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_program()
        import instances
    except ImportError as exc:
        print(f"cannot load kindmc from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in instances.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {instances.WORKLOADS}",
              file=sys.stderr)
        return 2

    setup: list[float] = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
        gc.collect()
        t0 = clock()
        wl = instances.build(args.workload, args.seed)
        setup.append(clock() - t0)
    setup_s = statistics.median(setup)

    oracle_facts = {"oracle.bfs_ms": 0.0, "oracle.explored_states": 0}
    answers = known_answers(wl, oracle_facts)
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            metrics, notes, passes = traced_metrics(
                wl, answers, args.seconds, oracle_facts, spans_path
            )
        else:
            from tracer import Tracer

            (passes,) = measure(
                wl, answers, args.seconds, [Tracer(roots_only=True)], MIN_PASSES
            )
            check_passes(passes)
            metrics, notes = end_to_end(passes, setup_s)
        ok = True
    except Failure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        ok, metrics, notes, passes = False, {}, [], exc.passes

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes:
        print(line)
    attempted = sum(p.attempted for p in passes) or 1
    failed = sum(p.failed for p in passes)
    print(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted} engine runs)")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
