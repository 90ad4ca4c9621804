"""The induction engine.

Each iteration k runs up to three checks, in order:

  base       a property violation is reachable within k steps  -> bug
  forward    some initial k-state path ends before halting;
             if none does, every behavior has been covered     -> correct
  inductive  k-1 good states can never step into a bad one;
             if they cannot, unreachable bad states aside,
             the properties hold everywhere                    -> correct

The extended engine additionally turns every inductive-step counterexample
into a target: the first state of the bad suffix. Later base cases may hit
a target instead of a full violation; the initial path to the target and
the stored suffix are then stitched into one witness of prefix + suffix - 1
states. A target born at iteration j carries a suffix of j states, and the
base case at iteration k reaches prefixes of up to k states. Both grow by
one state per iteration, so a bug whose shortest witness has d+1 states
surfaces around k = d/2 + 1 instead of the d + 1 a plain base case needs.

A base case reads only a target's first state. So with the enum backend
a target is made from that state alone, and its suffix is decoded from
the counterexample's checked path when it is first read: by the stitch of
a matched target, or by a reader of the report's targets.

Declaring a system correct requires the current iteration's base case to
be conclusively unsatisfiable and no forward or inductive check to have
ever been inconclusive; anything weaker ends in bound-exhausted with a
warning trail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .concrete import lint_halt_sink
from .encoder import (
    Query,
    Target,
    encode_base_case,
    encode_extended_base_case,
    encode_forward_condition,
    encode_inductive_step,
)
from .errors import ConfigError, DiscrepancyError, InternalError
from .ir import State, Trace, TransitionSystem, replay_trace, states_equal
from .solver import (
    DecodedModel,
    Solver,
    SolverConfig,
    SolverStatus,
    SolverVerdict,
    decode_model,
)


class Outcome(Enum):
    BUG_FOUND = "bug"
    CORRECT = "correct"
    BOUND_EXHAUSTED = "bound-exhausted"


class ProofSource(Enum):
    FORWARD = "forward"
    INDUCTIVE = "inductive"


class TargetRecheck(Enum):
    """When a fresh target is checked for reachability: immediately with a
    target-only base case, or organically at the next iteration."""

    SAME_ITERATION = "same"
    NEXT_ITERATION = "next"


@dataclass(frozen=True)
class EngineConfig:
    max_k: int = 100
    solver: SolverConfig = field(default_factory=SolverConfig)
    target_recheck: TargetRecheck = TargetRecheck.SAME_ITERATION
    validate: bool = True

    def __post_init__(self) -> None:
        if self.max_k < 1:
            raise ConfigError(f"max_k must be at least 1, got {self.max_k}")


@dataclass(frozen=True)
class CheckRecord:
    check: str  # base | forward | inductive | target-recheck
    k: int
    status: str  # sat | unsat | unknown
    time_ms: float


@dataclass(frozen=True)
class IterationStat:
    k: int
    checks: tuple[CheckRecord, ...]
    targets_added: int


@dataclass(frozen=True)
class VerificationReport:
    outcome: Outcome
    k: int
    mode: str  # plain | extended
    witness: Optional[Trace] = None
    proof_source: Optional[ProofSource] = None
    matched_target_id: Optional[int] = None
    iterations: tuple[IterationStat, ...] = ()
    targets: tuple[Target, ...] = ()
    solver_calls: int = 0
    warnings: tuple[str, ...] = ()
    wall_ms: float = 0.0


@dataclass(frozen=True)
class ComparisonRecord:
    plain: VerificationReport
    extended: VerificationReport
    k_delta: int  # plain.k - extended.k
    time_ratio: float  # plain.wall_ms / extended.wall_ms


def stitch(prefix: Trace, target: Target) -> Trace:
    """Join an initial path ending at a target's first state with the
    target's stored bad suffix. The junction state is shared, so the
    result has len(prefix) + len(suffix) - 1 states."""
    if not prefix.states:
        raise InternalError("cannot stitch an empty prefix")
    if not states_equal(prefix.states[-1], target.suffix.states[0]):
        raise InternalError(
            f"stitch junction mismatch: prefix ends at {prefix.states[-1]!r},"
            f" target {target.tid} starts at {target.suffix.states[0]!r}"
        )
    return Trace(
        prefix.states + target.suffix.states[1:],
        prefix.inputs + target.suffix.inputs,
        target.suffix.violated_prop,
    )


def _decoded(q: Query, v: SolverVerdict) -> DecodedModel:
    """A satisfiable answer: the one the enum backend read off its path and
    checked, when the verdict carries it, otherwise decoded from the model."""
    return v.decoded if v.decoded is not None else decode_model(q, v.model)


def _target(q: Query, v: SolverVerdict, k: int, tid: int) -> Target:
    """The target of a satisfiable inductive step. When the verdict carries
    its checked path, the target is made from the path's first state alone,
    and its suffix is decoded on the first read; otherwise the model is
    decoded now."""
    first = v.first_state
    if first is None:
        trace = _decoded(q, v).trace
        return Target(trace.states[0], trace, k, tid)
    return Target.on_read(first, lambda: v.decoded.trace, k, tid)


def run_plain(sys: TransitionSystem, cfg: Optional[EngineConfig] = None) -> VerificationReport:
    return _run(sys, cfg or EngineConfig(), extended=False)


def run_extended(sys: TransitionSystem, cfg: Optional[EngineConfig] = None) -> VerificationReport:
    return _run(sys, cfg or EngineConfig(), extended=True)


def run(sys: TransitionSystem, mode: str, cfg: Optional[EngineConfig] = None) -> VerificationReport:
    if mode == "plain":
        return run_plain(sys, cfg)
    if mode == "extended":
        return run_extended(sys, cfg)
    raise InternalError(f"unknown engine mode {mode!r}")


def _run(sys: TransitionSystem, cfg: EngineConfig, extended: bool) -> VerificationReport:
    t0 = time.perf_counter()
    solver = Solver(cfg.solver)
    mode = "extended" if extended else "plain"
    warnings: list[str] = []
    iterations: list[IterationStat] = []
    targets: list[Target] = []
    first_states: set[State] = set()
    unknown_in_proof = False

    def timed_check(q, label: str, checks: list[CheckRecord]):
        t = time.perf_counter()
        v = solver.check(q)
        checks.append(
            CheckRecord(label, q.k, v.status.value, (time.perf_counter() - t) * 1000.0)
        )
        return v

    def report(
        outcome: Outcome,
        k: int,
        witness: Optional[Trace] = None,
        proof: Optional[ProofSource] = None,
        matched: Optional[int] = None,
    ) -> VerificationReport:
        return VerificationReport(
            outcome=outcome,
            k=k,
            mode=mode,
            witness=witness,
            proof_source=proof,
            matched_target_id=matched,
            iterations=tuple(iterations),
            targets=tuple(targets),
            solver_calls=sum(len(it.checks) for it in iterations),
            warnings=tuple(warnings),
            wall_ms=(time.perf_counter() - t0) * 1000.0,
        )

    def bug_witness(dec: DecodedModel) -> tuple[Trace, Optional[int]]:
        if dec.matched_target is None:
            witness = dec.trace
        else:
            # tids are 1, 2, ... in the order targets are appended
            witness = stitch(dec.trace, targets[dec.matched_target - 1])
        if cfg.validate:
            verdict = replay_trace(sys, witness)
            if not verdict:
                raise InternalError(
                    f"witness failed replay at index {verdict.index}: {verdict.reason}"
                )
        return witness, dec.matched_target

    for k in range(1, cfg.max_k + 1):
        checks: list[CheckRecord] = []
        added = 0

        def finish_iter() -> None:
            iterations.append(IterationStat(k, tuple(checks), added))

        if extended:
            qb = encode_extended_base_case(sys, k, tuple(targets))
        else:
            qb = encode_base_case(sys, k)
        vb = timed_check(qb, qb.kind.value, checks)
        base_closed = vb.status is SolverStatus.UNSAT
        if vb.status is SolverStatus.SAT:
            witness, matched = bug_witness(_decoded(qb, vb))
            finish_iter()
            return report(Outcome.BUG_FOUND, k, witness=witness, matched=matched)
        if vb.status is SolverStatus.UNKNOWN:
            warnings.append(f"base case inconclusive at k={k}: {vb.diagnostic}")

        qf = encode_forward_condition(sys, k)
        vf = timed_check(qf, "forward", checks)
        if vf.status is SolverStatus.UNKNOWN:
            unknown_in_proof = True
            warnings.append(f"forward condition inconclusive at k={k}: {vf.diagnostic}")
        if vf.status is SolverStatus.UNSAT:
            if base_closed and not unknown_in_proof:
                _halt_sink_warning(sys, warnings)
                finish_iter()
                return report(Outcome.CORRECT, k, proof=ProofSource.FORWARD)
            warnings.append(
                f"forward condition closed at k={k}, but an inconclusive check"
                " blocks the proof"
            )
            finish_iter()
            continue

        qi = encode_inductive_step(sys, k)
        vi = timed_check(qi, "inductive", checks)
        if vi.status is SolverStatus.UNKNOWN:
            unknown_in_proof = True
            warnings.append(f"inductive step inconclusive at k={k}: {vi.diagnostic}")
        elif vi.status is SolverStatus.UNSAT:
            if base_closed and not unknown_in_proof:
                finish_iter()
                return report(Outcome.CORRECT, k, proof=ProofSource.INDUCTIVE)
            warnings.append(
                f"inductive step closed at k={k}, but an inconclusive check"
                " blocks the proof"
            )
        elif extended:
            t = _target(qi, vi, k, len(targets) + 1)
            if t.first_state not in first_states:
                first_states.add(t.first_state)
                targets.append(t)
                added = 1
                if cfg.target_recheck is TargetRecheck.SAME_ITERATION:
                    qr = encode_extended_base_case(
                        sys, k, (t,), include_violations=False
                    )
                    vr = timed_check(qr, "target-recheck", checks)
                    if vr.status is SolverStatus.SAT:
                        witness, matched = bug_witness(_decoded(qr, vr))
                        finish_iter()
                        return report(Outcome.BUG_FOUND, k, witness=witness, matched=matched)
                    if vr.status is SolverStatus.UNKNOWN:
                        warnings.append(
                            f"target recheck inconclusive at k={k}: {vr.diagnostic}"
                        )
        finish_iter()

    return report(Outcome.BOUND_EXHAUSTED, cfg.max_k)


def _halt_sink_warning(sys: TransitionSystem, warnings: list[str]) -> None:
    sink = lint_halt_sink(sys)
    if sink is False:
        warnings.append(
            "forward-condition proof, but some halting state has a successor"
            " other than itself; make sure halting really ends the run"
        )
    elif sink is None:
        warnings.append(
            "forward-condition proof; halt-sink check skipped, state space"
            " too large"
        )


def compare(sys: TransitionSystem, cfg: Optional[EngineConfig] = None) -> ComparisonRecord:
    """Run both engines and cross-check their answers. Raises
    DiscrepancyError when one finds a bug and the other proves the system
    correct; bound exhaustion on either side is inconclusive, not a
    conflict."""
    plain = run_plain(sys, cfg)
    extended = run_extended(sys, cfg)
    record = ComparisonRecord(
        plain=plain,
        extended=extended,
        k_delta=plain.k - extended.k,
        time_ratio=plain.wall_ms / max(extended.wall_ms, 1e-9),
    )
    conclusive = (Outcome.BUG_FOUND, Outcome.CORRECT)
    if (
        plain.outcome in conclusive
        and extended.outcome in conclusive
        and plain.outcome is not extended.outcome
    ):
        raise DiscrepancyError(
            f"engines disagree: plain says {plain.outcome.value} at k={plain.k},"
            f" extended says {extended.outcome.value} at k={extended.k}",
            record,
        )
    return record
