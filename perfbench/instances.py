"""Workload inputs and their known answers.

Every workload is a list of cases. A case is one system to verify, given
either as a built system or as `.kts` text that the timed pass parses.
Set-up (`build`) makes the cases from the seed; `check_record` compares
one `compare` result against the case's known answer and returns the
number of engine runs that were wrong.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import product
from typing import Optional

from kindmc import frontend, ir, oracle
from kindmc.concrete import SystemExecutor
from kindmc.engine import ComparisonRecord, EngineConfig, Outcome, VerificationReport
from kindmc.oracle import OracleVerdict

import randsys

WORKLOADS = ("deep_bug", "wide_proof", "random_corpus")

# Systems per random_corpus pass.
CORPUS_SIZE = 1000
# The acceptance gate's iteration bound for random systems. On every seed
# tried, the systems the engines decide were decided at k <= 4; a system
# k-induction cannot decide runs to the bound, so a small bound keeps it
# cheap.
CORPUS_MAX_K = 8

HALT_SINK_TEXT = """\
(system
  (var x (bv 8))
  (init (= x #x00))
  (trans (= (next x) (ite (= x #x28) x (bvadd x #x01))))
  (prop not_top (not (= x #xff)))
  (halt (= x #x28)))
"""


@dataclass(frozen=True)
class Answer:
    """The expected outcome of one case: k per engine, the number of
    states of the witness (see `check_record` for which engines it pins),
    and the proof source of a correct verdict."""

    outcome: str
    plain_k: int
    extended_k: int
    witness_len: Optional[int] = None
    proof: Optional[str] = None


# Known answers for the fixed instances, taken from the engine as it stood
# when the benchmark was added. The bug depths are the ones the families
# state (d+1 states, d+2 for const_check), and the k values match the
# ROADMAP baseline.
KNOWN = {
    "chain_bug_d60": Answer("bug", 61, 31, 61),
    "const_check_d64": Answer("bug", 66, 34, 66),
    "diamond_parity_d25": Answer("bug", 26, 14, 26),
    "diamond_parity_d24": Answer("correct", 26, 26, proof="inductive"),
    "accumulator_safe_d16": Answer("correct", 2, 2, proof="inductive"),
    "halt_sink_x40": Answer("correct", 41, 41, proof="forward"),
}


@dataclass
class Case:
    name: str
    system: Optional[ir.TransitionSystem] = None  # None: parse `text`
    text: str = ""
    answer: Optional[Answer] = None  # None: derived from the oracle


@dataclass
class Workload:
    cases: list[Case]
    config: EngineConfig


def build(name: str, seed: int) -> Workload:
    """Make a workload's inputs. deep_bug and wide_proof have fixed
    instances, and the seed only shuffles their order; random_corpus draws
    its systems from the seed."""
    rng = random.Random(seed)
    if name == "deep_bug":
        cases = [
            Case("chain_bug_d60", frontend.chain_bug(60)),
            Case("const_check_d64", frontend.const_check(64)),
            Case("diamond_parity_d25", frontend.diamond_parity(25)),
        ]
    elif name == "wide_proof":
        cases = [
            Case("diamond_parity_d24", frontend.diamond_parity(24)),
            Case("accumulator_safe_d16", frontend.accumulator(16, "safe")),
            Case("halt_sink_x40", text=HALT_SINK_TEXT),
        ]
    elif name == "random_corpus":
        systems = randsys.corpus(seed=seed, n=CORPUS_SIZE, max_state_bits=8)
        cases = [Case(s.name, text=frontend.format_system(s)) for s in systems]
        return Workload(cases, EngineConfig(max_k=CORPUS_MAX_K))
    else:
        raise ValueError(f"unknown workload {name!r}")
    for c in cases:
        c.answer = KNOWN[c.name]
    rng.shuffle(cases)
    return Workload(cases, EngineConfig())


# ---------------------------------------------------------------------------
# Known answers for random systems


def _states(sys: ir.TransitionSystem) -> list[tuple]:
    domains = [
        (False, True) if d.sort.is_bool else range(d.sort.num_values())
        for d in sys.state_vars
    ]
    return list(product(*domains))


def safe_answer(sys: ir.TransitionSystem, max_k: int) -> Answer:
    """Where plain k-induction stops on a system the oracle found safe.

    At each k the base case is unsatisfiable, so the engine stops at the
    first k whose forward condition (an initial k-state path ending in a
    non-halting state) or inductive step (k-1 good states stepping into a
    bad one) has no solution. Both are computed here over explicit state
    sets, independently of the encoder and solver. A system for which
    neither closes by max_k is one k-induction cannot prove within the
    bound, and its known answer is bound-exhausted.
    """
    ex = SystemExecutor(sys)
    states = _states(sys)
    good = {s for s in states if ex.violated_prop(s) is None}
    forward = set(ex.initial_states())
    inductive = set(good)  # last states of (k-1)-state good paths
    for k in range(1, max_k + 1):
        if not any(not ex.halt_fn(s) for s in forward):
            return Answer("correct", k, k, proof="forward")
        if k == 1:
            closed = len(good) == len(states)
        else:
            closed = not any(
                ns not in good for s in inductive for _, ns in ex.successors(s)
            )
        if closed:
            return Answer("correct", k, k, proof="inductive")
        if k > 1:
            inductive = {
                ns for s in inductive for _, ns in ex.successors(s) if ns in good
            }
        forward = {ns for s in forward for _, ns in ex.successors(s)}
    return Answer("bound-exhausted", max_k, max_k)


@dataclass(frozen=True)
class OracleFacts:
    answer: Answer
    bfs_ms: float
    explored: int


def oracle_answer(sys: ir.TransitionSystem, max_k: int) -> OracleFacts:
    """Known answer of a random system: the oracle's verdict and shortest
    bug depth, or `safe_answer` for a safe system. Only the oracle call
    itself is timed."""
    t0 = time.perf_counter()
    res = oracle.bfs_check(sys)
    ms = (time.perf_counter() - t0) * 1000.0
    if res.verdict is OracleVerdict.UNSAFE:
        depth = len(res.trace.states)
        if depth <= max_k:
            ans = Answer("bug", depth, depth, depth)
        else:
            ans = Answer("bound-exhausted", max_k, max_k)
    else:
        ans = safe_answer(sys, max_k)
    return OracleFacts(ans, ms, res.explored)


# ---------------------------------------------------------------------------
# Checking results


def _proof(rep: VerificationReport) -> Optional[str]:
    return rep.proof_source.value if rep.proof_source is not None else None


def _report_ok(
    sys: ir.TransitionSystem, rep: VerificationReport, ans: Answer, frozen: bool
) -> bool:
    if rep.outcome is Outcome.BUG_FOUND:
        if rep.witness is None or not ir.replay_trace(sys, rep.witness):
            return False
        if rep.mode == "extended" and not frozen and ans.outcome != "correct":
            # meeting a target can end the extended engine at any k up to
            # the plain engine's
            return rep.k <= ans.plain_k
    k = ans.plain_k if rep.mode == "plain" else ans.extended_k
    if (rep.outcome.value, rep.k, _proof(rep)) != (ans.outcome, k, ans.proof):
        return False
    return ans.witness_len is None or len(rep.witness.states) == ans.witness_len


def check_record(
    sys: ir.TransitionSystem, rec: ComparisonRecord, ans: Answer, frozen: bool
) -> int:
    """Number of the record's two engine runs that disagree with the known
    answer. Every witness is replayed. A frozen answer pins both engines'
    k and witness length. An oracle answer pins the plain engine's k and
    witness length to the shortest bug depth, and lets the extended engine
    find the bug at any k up to it, with a witness of any length."""
    return sum(not _report_ok(sys, rep, ans, frozen) for rep in (rec.plain, rec.extended))
