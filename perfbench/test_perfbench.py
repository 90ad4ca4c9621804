"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.import_program()

import instances  # noqa: E402
import tracer  # noqa: E402
from kindmc import concrete, engine, frontend  # noqa: E402
from kindmc.engine import EngineConfig  # noqa: E402

from systems import halt_sink, saturating  # noqa: E402


def _small_workload() -> instances.Workload:
    """A few quick systems with frozen answers, one of them as text."""
    cases = [
        instances.Case("chain_bug_d7", frontend.chain_bug(7),
                       answer=instances.Answer("bug", 8, 5, 8)),
        instances.Case("halt_sink", text=frontend.format_system(halt_sink()),
                       answer=instances.Answer("correct", 8, 8, proof="forward")),
        instances.Case("diamond_parity_d5", frontend.diamond_parity(5),
                       answer=instances.Answer("bug", 6, 4, 6)),
    ]
    return instances.Workload(cases, EngineConfig())


def _answers(wl) -> dict:
    return run.known_answers(wl, {"oracle.bfs_ms": 0.0, "oracle.explored_states": 0})


def _attributes() -> dict:
    owners = {owner for owner, *_ in tracer.LAYER_POINTS} | {concrete.SystemExecutor}
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def test_traced_run_restores_every_attribute(tmp_path):
    before = _attributes()
    wl = _small_workload()
    metrics, notes, passes = run.traced_metrics(
        wl, _answers(wl), 0.0, {}, tmp_path / "spans.jsonl.gz"
    )
    assert _attributes() == before
    assert metrics["encoder.calls.base"][0] > 0
    assert metrics["concrete.successors_calls"][0] > 0
    assert metrics["frontend.parse_calls"][0] == 1
    assert (tmp_path / "spans.jsonl.gz").exists()


def test_attributes_restored_when_a_pass_raises():
    before = _attributes()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert engine.run_plain is not before[(id(engine), "run_plain")]
            1 / 0
    with pytest.raises(ZeroDivisionError):
        with tracer.Counter():
            1 / 0
    assert _attributes() == before


@pytest.mark.parametrize("name", ["deep_bug", "wide_proof"])
def test_known_answer_table_matches(name):
    wl = instances.build(name, seed=3)
    assert {c.name for c in wl.cases} <= instances.KNOWN.keys()
    with tracer.Tracer(roots_only=True) as tr:
        p = run.run_pass(wl, _answers(wl), tr)
    assert p.attempted == 6
    assert p.failed == 0


def test_random_corpus_matches_the_oracle():
    wl = instances.build("random_corpus", seed=20260816)
    wl.cases = wl.cases[:150]
    with tracer.Tracer(roots_only=True) as tr:
        p = run.run_pass(wl, _answers(wl), tr)
    assert p.attempted == 300
    assert p.failed == 0


def test_a_wrong_answer_fails():
    wl = _small_workload()
    answers = _answers(wl)
    answers["chain_bug_d7"] = replace(answers["chain_bug_d7"], extended_k=4)
    answers["halt_sink"] = replace(answers["halt_sink"], proof="inductive")
    with tracer.Tracer(roots_only=True) as tr:
        p = run.run_pass(wl, answers, tr)
    assert p.failed == 3
    with pytest.raises(run.Failure):
        run.check_passes([p])


def test_safe_answer_matches_the_proof_depths():
    assert instances.safe_answer(saturating(), 10) == instances.Answer(
        "correct", 2, 2, proof="inductive"
    )
    assert instances.safe_answer(halt_sink(), 10) == instances.Answer(
        "correct", 8, 8, proof="forward"
    )
    assert instances.safe_answer(halt_sink(), 7).outcome == "bound-exhausted"


def test_self_times_sum_to_no_more_than_engine_wall_time():
    wl = _small_workload()
    with tracer.Tracer() as tr:
        p = run.run_pass(wl, _answers(wl), tr)
    selfs = tracer.self_times(p.spans)
    engine_wall = sum(
        s.end - s.start for s in p.spans if s.parent == -1 and s.name.startswith("engine.run_")
    )
    in_engine = sum(v for layer, v in selfs.items() if layer != "frontend")
    assert all(v >= -1e-9 for v in selfs.values())
    assert in_engine <= engine_wall + 1e-9
    assert in_engine + selfs["frontend"] <= p.wall_s


def test_counts_repeat_exactly():
    wl = _small_workload()
    answers = _answers(wl)
    first = run.count_pass(wl, answers)
    assert first == run.count_pass(wl, answers)
    assert first["encoder.assertion_nodes.extended-base"] > 0
    assert first["concrete.succ_distinct_states"] > 0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([5, 1, 4, 2, 6, 3]) == (5, 75.0, 6)
    assert run.tail(list(range(1, 100))) == (75, 75.0, 99)
    assert run.tail(list(range(1, 101))) == (90, 90.0, 100)
    assert run.tail(list(range(1, 2001))) == (1800, 90.0, 2000)


def test_exits_non_zero_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(bench, tmp_path / bench.name, ignore=ignore)
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "deep_bug",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
