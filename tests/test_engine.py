"""The induction engine: plain and target-extended modes.

The chain family walkthrough is frozen from hand simulation of the
iteration loop and double-checked here against trace replay, so any drift
in iteration order, target harvesting, or stitching shows up as a concrete
k or witness-length change.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

import kindmc.engine as engine_mod
import kindmc.solver as solver_mod
from kindmc import ir
from kindmc.encoder import Target, encode_inductive_step
from kindmc.engine import (
    ComparisonRecord,
    EngineConfig,
    Outcome,
    ProofSource,
    TargetRecheck,
    VerificationReport,
    compare,
    run,
    run_extended,
    run_plain,
    stitch,
)
from kindmc.errors import ConfigError, DiscrepancyError, InternalError
from kindmc.frontend import accumulator, chain_bug, const_check, diamond_parity, parse_file
from kindmc.ir import MAX_NESTING, State, Trace, TransitionSystem, replay_trace
from kindmc.solver import (
    Solver,
    SolverConfig,
    SolverStatus,
    SolverVerdict,
    decode_model,
    resolve_config,
)

from randsys import corpus
from systems import (
    deadlock_chain,
    halt_sink,
    identity_spurious,
    input_chain,
    moving_halt,
    nested_not,
    saturating,
)

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


# ---------------------------------------------------------------------------
# Stitching


def _st(x):
    return State({"x": x})


def _tr(*xs, violated=None):
    return Trace(tuple(_st(x) for x in xs), tuple(State({}) for _ in xs[1:]), violated)


def test_stitch_joins_at_shared_state():
    prefix = _tr(0, 1, 2)
    target = Target(_st(2), _tr(2, 3, 4, violated="p"), born_at_k=2, tid=1)
    out = stitch(prefix, target)
    assert [s["x"] for s in out.states] == [0, 1, 2, 3, 4]
    assert len(out.states) == 3 + 3 - 1
    assert len(out.inputs) == 4
    assert out.violated_prop == "p"


def test_stitch_rejects_junction_mismatch():
    prefix = _tr(0, 1)
    target = Target(_st(2), _tr(2, 3), born_at_k=1, tid=1)
    with pytest.raises(InternalError, match="junction"):
        stitch(prefix, target)


def test_run_rejects_unknown_mode():
    with pytest.raises(InternalError, match="mode"):
        run(chain_bug(2), "sideways")


# ---------------------------------------------------------------------------
# The chain family, step by step


def test_chain5_plain():
    rep = run_plain(chain_bug(5))
    assert rep.outcome is Outcome.BUG_FOUND
    assert rep.k == 6
    assert rep.mode == "plain"
    assert [s["x"] for s in rep.witness.states] == [0, 1, 2, 3, 4, 5]
    assert rep.witness.violated_prop == "below_limit"
    assert rep.proof_source is None
    assert rep.matched_target_id is None
    assert rep.targets == ()
    # iterations 1..5 run base+forward+inductive, iteration 6 stops at base
    assert len(rep.iterations) == 6
    assert rep.solver_calls == 16
    assert [c.check for c in rep.iterations[0].checks] == ["base", "forward", "inductive"]
    assert [c.check for c in rep.iterations[-1].checks] == ["base"]


def test_chain5_extended_meets_in_the_middle():
    rep = run_extended(chain_bug(5))
    assert rep.outcome is Outcome.BUG_FOUND
    assert rep.k == 4
    assert rep.mode == "extended"
    # the witness is identical to the plain one after stitching
    assert [s["x"] for s in rep.witness.states] == [0, 1, 2, 3, 4, 5]
    assert rep.witness.violated_prop == "below_limit"
    assert replay_trace(chain_bug(5), rep.witness)
    # one target per inductive counterexample, walking backwards from x=5
    assert [t.first_state["x"] for t in rep.targets] == [5, 4, 3]
    assert [t.born_at_k for t in rep.targets] == [1, 2, 3]
    assert [t.tid for t in rep.targets] == [1, 2, 3]
    assert [len(t.suffix.states) for t in rep.targets] == [1, 2, 3]
    assert rep.matched_target_id == 3
    # every suffix is itself a valid non-anchored execution
    for t in rep.targets:
        assert replay_trace(replace(chain_bug(5), init=ir.TRUE), t.suffix)
        assert t.suffix.violated_prop == "below_limit"
    # iterations 1..3 add one target each and recheck it; 4 hits at base
    assert [it.targets_added for it in rep.iterations] == [1, 1, 1, 0]
    assert rep.solver_calls == 13


def test_chain20_halving():
    plain = run_plain(chain_bug(20))
    ext = run_extended(chain_bug(20))
    assert plain.k == 21 and ext.k == 11
    assert len(ext.witness.states) == 21
    assert replay_trace(chain_bug(20), ext.witness)


def test_extended_witness_matches_decoded_prefix_plus_suffix():
    rep = run_extended(chain_bug(5))
    matched = next(t for t in rep.targets if t.tid == rep.matched_target_id)
    # prefix length k, suffix length 3, shared junction state
    assert len(rep.witness.states) == rep.k + len(matched.suffix.states) - 1
    junction = rep.witness.states[rep.k - 1]
    assert junction == matched.first_state


# ---------------------------------------------------------------------------
# Targets are made from their first state; suffixes are built on read


def _target_systems():
    fixed = [
        chain_bug(9),
        const_check(8),
        diamond_parity(9),
        diamond_parity(8),
        accumulator(4, "buggy"),
        accumulator(4, "safe"),
        saturating(),
        halt_sink(),
        identity_spurious(),
        moving_halt(),
        deadlock_chain(),
        input_chain(6),
    ]
    return fixed + corpus(seed=20261023, n=200, max_state_bits=8)


def test_a_read_suffix_is_the_decoded_inductive_model():
    solver, read = Solver(SolverConfig()), 0
    for sys in _target_systems():
        free = replace(sys, init=ir.TRUE)
        for mode in TargetRecheck:
            rep = run_extended(sys, EngineConfig(max_k=8, target_recheck=mode))
            for t in rep.targets:
                q = encode_inductive_step(sys, t.born_at_k)
                v = solver.check(q)
                assert v.status is SolverStatus.SAT
                assert t.suffix == decode_model(q, v.model).trace, (sys.name, t.tid)
                assert t.suffix.states[0] == t.first_state
                assert t.suffix.violated_prop is not None
                assert replay_trace(free, t.suffix), (sys.name, t.tid)
                read += 1
    assert read > 100


def test_an_extended_run_that_matches_no_target_builds_no_suffix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a suffix was built")

    unmatched = 0
    for sys in _target_systems():
        for mode in TargetRecheck:
            cfg = EngineConfig(max_k=8, target_recheck=mode)
            ref = run_extended(sys, cfg)
            if ref.matched_target_id is not None or not ref.targets:
                continue
            with monkeypatch.context() as m:
                m.setattr(solver_mod, "_exact_answer", refuse)
                rep = run_extended(sys, cfg)
                with pytest.raises(AssertionError, match="suffix was built"):
                    rep.targets[0].suffix
            assert (rep.outcome, rep.k, rep.warnings) == (ref.outcome, ref.k, ref.warnings)
            assert rep.targets == ref.targets
            unmatched += 1
    assert unmatched > 20


def test_hand_built_and_engine_built_targets_compare_and_hash_alike():
    for sys in (chain_bug(9), diamond_parity(8), accumulator(4, "safe")):
        made = run_extended(sys).targets
        hand = [
            Target(t.first_state, t.suffix, t.born_at_k, t.tid)
            for t in run_extended(sys).targets
        ]
        assert made and len(made) == len(hand)
        for m, h in zip(made, hand):
            assert hash(m) == hash(h) and m == h and h == m
            assert repr(m) == repr(h)
            assert m != Target(h.first_state, h.suffix, h.born_at_k, h.tid + 1)
            assert m != (m.first_state, m.suffix, m.born_at_k, m.tid)
        assert set(made) == set(hand)


# ---------------------------------------------------------------------------
# Proof paths


def test_saturating_counter_proves_inductively():
    for rep in (run_plain(saturating()), run_extended(saturating())):
        assert rep.outcome is Outcome.CORRECT
        assert rep.k == 2
        assert rep.proof_source is ProofSource.INDUCTIVE
        assert rep.witness is None


def test_halt_sink_proves_by_forward_condition():
    for rep in (run_plain(halt_sink()), run_extended(halt_sink())):
        assert rep.outcome is Outcome.CORRECT
        assert rep.k == 8
        assert rep.proof_source is ProofSource.FORWARD
        assert rep.warnings == ()


def test_forward_proof_warns_when_halt_is_not_a_sink():
    rep = run_plain(moving_halt())
    assert rep.outcome is Outcome.CORRECT
    assert rep.proof_source is ProofSource.FORWARD
    assert rep.k == 2
    assert any("halting" in w for w in rep.warnings)


def test_spurious_targets_never_match():
    plain = run_plain(identity_spurious())
    ext = run_extended(identity_spurious())
    assert plain.outcome is ext.outcome is Outcome.CORRECT
    assert plain.k == ext.k == 2
    assert ext.proof_source is ProofSource.INDUCTIVE
    assert len(ext.targets) == 1
    assert ext.targets[0].first_state == State({"x": 3})
    assert ext.matched_target_id is None


def test_bound_exhausted():
    rep = run_plain(chain_bug(9), EngineConfig(max_k=4))
    assert rep.outcome is Outcome.BOUND_EXHAUSTED
    assert rep.k == 4
    assert rep.witness is None


def test_solver_calls_count_every_check(monkeypatch):
    # one check record per Solver.check, whichever way the run ends: a bug
    # (plain, or via a target), either proof, or the bound
    checked = []
    original = engine_mod.Solver.check

    def counting(self, q):
        checked.append(q)
        return original(self, q)

    monkeypatch.setattr(engine_mod.Solver, "check", counting)
    runs = [(sys, None) for sys in (chain_bug(5), saturating(), halt_sink(), identity_spurious())]
    runs.append((chain_bug(9), EngineConfig(max_k=4)))
    for sys, cfg in runs:
        for engine in (run_plain, run_extended):
            checked.clear()
            rep = engine(sys, cfg)
            assert checked, sys.name
            assert rep.solver_calls == len(checked), sys.name
            assert rep.solver_calls == sum(len(it.checks) for it in rep.iterations)


@pytest.mark.parametrize("max_k", [0, -5])
def test_max_k_below_one_is_rejected(max_k):
    with pytest.raises(ConfigError, match="max_k must be at least 1"):
        EngineConfig(max_k=max_k)


# ---------------------------------------------------------------------------
# Violations on paths shorter than k


def test_deadlock_chain_bug_is_found_despite_missing_long_paths():
    plain = run_plain(deadlock_chain())
    assert plain.outcome is Outcome.BUG_FOUND
    assert plain.k == 3
    assert [s["x"] for s in plain.witness.states] == [0, 1, 2]

    ext = run_extended(deadlock_chain())
    assert ext.outcome is Outcome.BUG_FOUND
    assert ext.k == 2  # target x=1 harvested at k=2 and hit immediately
    assert [s["x"] for s in ext.witness.states] == [0, 1, 2]
    assert ext.matched_target_id == 2
    assert replay_trace(deadlock_chain(), ext.witness)


def test_input_witnesses_carry_inputs():
    sys = input_chain(4)
    rep = run_plain(sys)
    assert rep.outcome is Outcome.BUG_FOUND
    assert rep.k == 5
    assert [u["c"] for u in rep.witness.inputs] == [True] * 4
    assert replay_trace(sys, rep.witness)
    ext = run_extended(sys)
    assert ext.outcome is Outcome.BUG_FOUND
    assert ext.k == 3
    assert replay_trace(sys, ext.witness)


# ---------------------------------------------------------------------------
# Recheck policy ablation


def test_same_iteration_recheck_saves_one_iteration():
    same = run_extended(
        chain_bug(4), EngineConfig(target_recheck=TargetRecheck.SAME_ITERATION)
    )
    deferred = run_extended(
        chain_bug(4), EngineConfig(target_recheck=TargetRecheck.NEXT_ITERATION)
    )
    assert same.outcome is deferred.outcome is Outcome.BUG_FOUND
    assert same.k == 3
    assert deferred.k == 4
    assert len(same.witness.states) == len(deferred.witness.states) == 5
    # the deferred run never issues target-recheck calls
    checks = {c.check for it in deferred.iterations for c in it.checks}
    assert "target-recheck" not in checks
    checks = {c.check for it in same.iterations for c in it.checks}
    assert "target-recheck" in checks


# ---------------------------------------------------------------------------
# Inconclusive answers block proofs


class _ScriptedSolver:
    """Stand-in returning a fixed verdict sequence; records the query kinds."""

    script: list[SolverVerdict] = []
    seen: list[str] = []

    def __init__(self, cfg):
        self.cfg = cfg

    def check(self, q):
        type(self).seen.append(f"{q.kind.value}@{q.k}")
        return type(self).script.pop(0)


def _scripted(monkeypatch, verdicts):
    _ScriptedSolver.script = list(verdicts)
    _ScriptedSolver.seen = []
    monkeypatch.setattr(engine_mod, "Solver", _ScriptedSolver)


_UNSAT = SolverVerdict(SolverStatus.UNSAT)
_UNKNOWN = SolverVerdict(SolverStatus.UNKNOWN, diagnostic="scripted")


def test_unknown_forward_blocks_later_proofs(monkeypatch):
    # k=1: forward unknown taints the run; k=2: inductive closes but the
    # taint forces bound-exhausted instead of correct
    _scripted(
        monkeypatch,
        [
            _UNSAT, _UNKNOWN, _UNSAT,  # k=1: base, forward, inductive
            _UNSAT, SolverVerdict(SolverStatus.SAT, {}), _UNSAT,  # k=2
        ],
    )
    rep = run_plain(saturating(), EngineConfig(max_k=2))
    assert rep.outcome is Outcome.BOUND_EXHAUSTED
    assert any("forward condition inconclusive at k=1" in w for w in rep.warnings)
    assert any("blocks the proof" in w for w in rep.warnings)


def test_unknown_base_blocks_correct(monkeypatch):
    # the inductive step closes at k=1, but the base case answered unknown,
    # so the violation might simply be hiding below the current depth
    _scripted(monkeypatch, [_UNKNOWN, SolverVerdict(SolverStatus.SAT, {}), _UNSAT])
    rep = run_plain(saturating(), EngineConfig(max_k=1))
    assert rep.outcome is Outcome.BOUND_EXHAUSTED
    assert any("base case inconclusive at k=1" in w for w in rep.warnings)


def test_forward_unsat_short_circuits_inductive(monkeypatch):
    _scripted(monkeypatch, [_UNSAT, _UNSAT])
    rep = run_plain(saturating(), EngineConfig(max_k=3))
    assert rep.outcome is Outcome.CORRECT
    assert rep.proof_source is ProofSource.FORWARD
    assert _ScriptedSolver.seen == ["base@1", "forward@1"]


def test_always_unknown_external_solver_exhausts_bound():
    cfg = EngineConfig(
        max_k=2,
        solver=resolve_config("external:" + __import__("conftest").fake_solver("always_unknown")),
    )
    rep = run_plain(chain_bug(3), cfg)
    assert rep.outcome is Outcome.BOUND_EXHAUSTED
    assert any("base case inconclusive" in w for w in rep.warnings)
    assert any("forward condition inconclusive" in w for w in rep.warnings)


# ---------------------------------------------------------------------------
# Witness validation


def test_witness_validation_catches_bad_models(monkeypatch):
    # a scripted solver hands back a model whose decoded trace breaks the
    # transition relation; validation must refuse to report it
    from kindmc.encoder import encode_base_case

    sys = chain_bug(3)
    q = encode_base_case(sys, 1)
    bad_model = {"x@1": 3, "path@@1": True, "viol@@1": True}
    _scripted(monkeypatch, [SolverVerdict(SolverStatus.SAT, bad_model)])
    with pytest.raises(InternalError, match="replay"):
        run_plain(sys, EngineConfig(max_k=1))
    # with validation off the report passes through untouched
    _scripted(monkeypatch, [SolverVerdict(SolverStatus.SAT, bad_model)])
    rep = run_plain(sys, EngineConfig(max_k=1, validate=False))
    assert rep.outcome is Outcome.BUG_FOUND
    assert rep.witness.states[0] == State({"x": 3})


# ---------------------------------------------------------------------------
# Comparison


def test_compare_chain():
    rec = compare(chain_bug(5))
    assert rec.plain.k == 6 and rec.extended.k == 4
    assert rec.k_delta == 2
    assert rec.time_ratio > 0


def test_compare_correct_systems():
    rec = compare(saturating())
    assert rec.k_delta == 0
    assert rec.plain.outcome is rec.extended.outcome is Outcome.CORRECT


def _fake_report(outcome, mode, k=1):
    return VerificationReport(outcome=outcome, k=k, mode=mode, wall_ms=1.0)


def test_compare_raises_on_contradiction(monkeypatch):
    monkeypatch.setattr(
        engine_mod, "run_plain", lambda s, c=None: _fake_report(Outcome.CORRECT, "plain")
    )
    monkeypatch.setattr(
        engine_mod,
        "run_extended",
        lambda s, c=None: _fake_report(Outcome.BUG_FOUND, "extended"),
    )
    with pytest.raises(DiscrepancyError) as exc:
        compare(chain_bug(2))
    assert isinstance(exc.value.record, ComparisonRecord)


def test_compare_tolerates_bound_exhaustion(monkeypatch):
    monkeypatch.setattr(
        engine_mod,
        "run_plain",
        lambda s, c=None: _fake_report(Outcome.BOUND_EXHAUSTED, "plain"),
    )
    monkeypatch.setattr(
        engine_mod,
        "run_extended",
        lambda s, c=None: _fake_report(Outcome.BUG_FOUND, "extended", k=3),
    )
    rec = compare(chain_bug(2))
    assert rec.k_delta == -2


# ---------------------------------------------------------------------------
# Cross-family spot checks (frozen from independent runs of the search
# oracle: shortest counterexample lengths, hence the expected k values)


@pytest.mark.parametrize(
    "sys,plain_k,ext_k,wit_len",
    [
        (chain_bug(9), 10, 6, 10),
        (diamond_parity(9), 10, 6, 10),
        (accumulator(4, "buggy"), 5, 3, 5),
    ],
    ids=["chain9", "diamond9", "accumulator-buggy"],
)
def test_family_expectations(sys, plain_k, ext_k, wit_len):
    plain = run_plain(sys)
    ext = run_extended(sys)
    assert plain.outcome is ext.outcome is Outcome.BUG_FOUND
    assert plain.k == plain_k
    assert ext.k == ext_k
    assert len(plain.witness.states) == wit_len
    assert len(ext.witness.states) == wit_len
    assert replay_trace(sys, plain.witness)
    assert replay_trace(sys, ext.witness)


def test_safe_families_agree():
    for sys in (diamond_parity(8), accumulator(4, "safe")):
        plain = run_plain(sys)
        ext = run_extended(sys)
        assert plain.outcome is ext.outcome is Outcome.CORRECT
        assert plain.k == ext.k
        assert plain.proof_source is ext.proof_source


# ---------------------------------------------------------------------------
# Nesting built through the Python API


def test_nesting_at_the_bound_still_verifies():
    rec = compare(nested_not(MAX_NESTING))
    assert rec.plain.outcome is rec.extended.outcome is Outcome.CORRECT
    rec = compare(nested_not(MAX_NESTING - 1))
    assert rec.plain.outcome is rec.extended.outcome is Outcome.BUG_FOUND
    assert rec.plain.k == rec.extended.k == 1


# ---------------------------------------------------------------------------
# Systems are validated once, when they are built


@pytest.mark.parametrize(
    "name, proof", [("chain5.kts", None), ("halt_sink.kts", ProofSource.FORWARD)]
)
def test_parse_and_compare_validate_once(monkeypatch, name, proof):
    calls = []
    validate = TransitionSystem.validate

    def counting(self):
        calls.append(self.name)
        validate(self)

    monkeypatch.setattr(TransitionSystem, "validate", counting)
    rec = compare(parse_file(BENCH_DIR / name))
    assert len(calls) == 1
    assert rec.plain.proof_source is proof  # a forward proof runs the halt-sink lint
