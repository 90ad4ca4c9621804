"""Every engine output, pinned by one SHA-256 per corpus.

Each report is written as canonical JSON, with states as name -> value
objects rather than their repr, so only a change in what the engines
answer moves a digest:

  - outcome, k, proof source and matched target id;
  - the witness;
  - every target: first state, suffix, born_at_k and tid;
  - the (check, k, status) sequence and the warnings.

The plain engine runs once per system, the extended engine once in each
TargetRecheck mode. A second digest pins the raw models of the five query
shapes (base, extended-base with a run's targets, target-recheck, forward,
inductive) at k = 1..4, as the enum backend hands them out on read.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

import pytest

from kindmc import frontend
from kindmc.encoder import (
    encode_base_case,
    encode_extended_base_case,
    encode_forward_condition,
    encode_inductive_step,
)
from kindmc.engine import EngineConfig, TargetRecheck, VerificationReport, run_extended, run_plain
from kindmc.ir import State, Trace
from kindmc.solver import Solver, SolverConfig

from randsys import corpus
from systems import (
    deadlock_chain,
    halt_sink,
    identity_spurious,
    input_chain,
    moving_halt,
    saturating,
)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# Seeds of the random corpora: reports at max_k 8, models on a smaller one.
REPORT_SEED = 20261021
MODEL_SEED = 20261022

DIGESTS = {
    "benchmarks": "03056a05f6087fe61042c7d7bb7701f2974f7df689554b2e346c0b77fecd27e5",
    "families": "37dcd09e085627bd019e0fcd69e0dc4026745054874defe44d8e37cf9175b20a",
    "random": "83513748a068ab14e25fbe085f80f3e94cc7bf6ec5414ae3df7278673057a9e4",
    "models": "db7d7eea202d8118502329717e9940c84d8b8df12912aa0b650cdd301a23d75d",
}


def _state(s: State) -> dict:
    return s.as_dict()


def _trace(t: Optional[Trace]) -> Optional[dict]:
    if t is None:
        return None
    return {
        "states": [_state(s) for s in t.states],
        "inputs": [_state(s) for s in t.inputs],
        "violated": t.violated_prop,
    }


def canonical(r: VerificationReport) -> dict:
    return {
        "mode": r.mode,
        "outcome": r.outcome.value,
        "k": r.k,
        "proof": r.proof_source.value if r.proof_source else None,
        "matched": r.matched_target_id,
        "witness": _trace(r.witness),
        "targets": [
            {
                "first": _state(t.first_state),
                "suffix": _trace(t.suffix),
                "born": t.born_at_k,
                "tid": t.tid,
            }
            for t in r.targets
        ],
        "checks": [[c.check, c.k, c.status] for it in r.iterations for c in it.checks],
        "warnings": list(r.warnings),
    }


def _update(h, obj) -> None:
    h.update(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())
    h.update(b"\n")


def report_digest(systems, max_k: Optional[int] = None) -> str:
    h = hashlib.sha256()
    for sys in systems:
        cfg = EngineConfig() if max_k is None else EngineConfig(max_k=max_k)
        _update(h, canonical(run_plain(sys, cfg)))
        for mode in TargetRecheck:
            mode_cfg = EngineConfig(max_k=cfg.max_k, target_recheck=mode)
            _update(h, canonical(run_extended(sys, mode_cfg)))
    return h.hexdigest()


def model_digest(systems) -> str:
    h = hashlib.sha256()
    solver = Solver(SolverConfig())
    for sys in systems:
        for mode in TargetRecheck:
            targets = run_extended(sys, EngineConfig(max_k=8, target_recheck=mode)).targets
            for k in range(1, 5):
                for q in (
                    encode_base_case(sys, k),
                    encode_extended_base_case(sys, k, targets),
                    encode_extended_base_case(sys, k, targets, include_violations=False),
                    encode_forward_condition(sys, k),
                    encode_inductive_step(sys, k),
                ):
                    v = solver.check(q)
                    _update(h, [q.kind.value, q.include_violations, k, v.status.value, v.model])
    return h.hexdigest()


def _benchmarks():
    return [frontend.parse_file(p) for p in sorted(BENCHMARKS.glob("*.kts"))]


def _families():
    out = []
    for d in (2, 3, 5, 8):
        out += [frontend.chain_bug(d), frontend.const_check(d), frontend.diamond_parity(d)]
    for d in (2, 4):
        out += [frontend.accumulator(d, "buggy"), frontend.accumulator(d, "safe")]
    return out + [
        saturating(),
        halt_sink(),
        identity_spurious(),
        moving_halt(),
        deadlock_chain(),
        input_chain(6),
    ]


CORPORA = {
    "benchmarks": lambda: report_digest(_benchmarks()),
    "families": lambda: report_digest(_families()),
    "random": lambda: report_digest(corpus(REPORT_SEED, 800), max_k=8),
    "models": lambda: model_digest(
        _benchmarks()[:3] + [frontend.chain_bug(5), frontend.diamond_parity(5)]
        + corpus(MODEL_SEED, 60)
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_engine_outputs_are_unchanged(name):
    assert CORPORA[name]() == DIGESTS[name]

