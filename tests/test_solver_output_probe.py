"""Robustness probe: seeded token mutations of external-solver output.

The real responses of `smt_micro_solver.py` to the five query shapes
(base, extended-base, target-recheck, forward, inductive) at k = 1..4 are
mutated: one to three tokens replaced, deleted, duplicated or swapped with
their neighbour, a bit of a literal flipped, or a line broken or joined.
Each mutant reaches `solver._check_external` through a patched
`subprocess.run`, so no process is spawned. Every answer must be UNSAT, a
SAT model that passes the re-check and decodes, or UNKNOWN with a
diagnostic; no exception may escape.
"""

from __future__ import annotations

import io
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

import kindmc.solver as solver_mod
import smt_micro_solver
from kindmc.encoder import (
    encode_base_case,
    encode_extended_base_case,
    encode_forward_condition,
    encode_inductive_step,
    serialize_smtlib,
)
from kindmc.engine import EngineConfig, run_extended
from kindmc.frontend import chain_bug
from kindmc.ir import eval_expr
from kindmc.solver import SolverStatus, decode_model, resolve_config

from systems import input_chain, saturating

TOKEN = re.compile(r"[()]|[^\s()]+")
# tokens a broken solver might print besides those of real answers
EXTRA = ("sat", "unsat", "unknown", "(error", "#x7", "#b", "(_ bv3 3)", "true", "false", "0")


def _micro(doc: str) -> str:
    """The micro solver's stdout for one document, run in this process."""
    out, stdin = io.StringIO(), sys.stdin
    try:
        sys.stdin = io.StringIO(doc)
        with redirect_stdout(out):
            smt_micro_solver.main()
    finally:
        sys.stdin = stdin
    return out.getvalue()


def real_answers() -> list:
    """(query, response) for every query shape at k = 1..4."""
    out = []
    for sys_ in (chain_bug(4), saturating(), input_chain(3)):
        targets = run_extended(sys_, EngineConfig(max_k=6)).targets
        for k in range(1, 5):
            for q in (
                encode_base_case(sys_, k),
                encode_extended_base_case(sys_, k, targets),
                encode_extended_base_case(sys_, k, targets, include_violations=False),
                encode_forward_condition(sys_, k),
                encode_inductive_step(sys_, k),
            ):
                out.append((q, _micro(serialize_smtlib(q))))
    return out


def mutate(rng: random.Random, text: str, pool: list[str]) -> str:
    lines = [TOKEN.findall(line) for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
        if not spots:
            lines.append([rng.choice(pool)])
            continue
        i, j = rng.choice(spots)
        toks = lines[i]
        op = rng.randrange(6)
        if op == 0:
            toks[j] = rng.choice(pool)
        elif op == 1:
            del toks[j]
        elif op == 2:
            toks.insert(j, toks[j])
        elif op == 3 and j + 1 < len(toks):
            toks[j], toks[j + 1] = toks[j + 1], toks[j]
        elif op == 4:
            # flip a bit of a literal: the answer stays readable
            lits = [(i, j) for i, j in spots if lines[i][j].startswith("#b")]
            if lits:
                i, j = rng.choice(lits)
                lit = lines[i][j]
                b = rng.randrange(2, len(lit)) if len(lit) > 2 else 2
                lines[i][j] = lit[:b] + "10"[int(lit[b : b + 1] == "1")] + lit[b + 1 :]
        elif op == 5:
            # break the line here, or join it to the next one
            if j > 0:
                lines[i : i + 1] = [toks[:j], toks[j:]]
            elif i + 1 < len(lines):
                lines[i : i + 2] = [toks + lines[i + 1]]
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


def _satisfies(q, model) -> bool:
    full = dict(model)
    for name, defn in q.marker_defs:
        full[name] = eval_expr(defn, full)
    return all(tv.sort.contains(full[tv.name]) for tv in q.decls) and (
        eval_expr(q.assertion, full) is True
    )


@pytest.fixture(scope="module")
def answers():
    return real_answers()


def test_real_answers_hold_sat_and_unsat(answers):
    heads = Counter(text.split()[0] for _, text in answers)
    assert heads["sat"] > 10 and heads["unsat"] > 10


def test_mutated_solver_output_never_escapes_as_an_exception(monkeypatch, answers):
    rng = random.Random(11)
    pool = sorted({t for _, text in answers for t in TOKEN.findall(text)} | set(EXTRA))
    cfg = resolve_config("external:kindmc-probe-solver")
    reply = {"stdout": ""}

    def fake_run(args, **kwargs):
        return subprocess.CompletedProcess(args, 0, stdout=reply["stdout"], stderr="")

    monkeypatch.setattr(solver_mod.subprocess, "run", fake_run)
    statuses: Counter = Counter()
    for _ in range(300):
        q, text = rng.choice(answers)
        reply["stdout"] = mutate(rng, text, pool)
        v = solver_mod._check_external(q, cfg)
        statuses[v.status] += 1
        if v.status is SolverStatus.SAT:
            assert _satisfies(q, v.model), reply["stdout"]
            decode_model(q, v.model)
        elif v.status is SolverStatus.UNKNOWN:
            assert v.diagnostic, reply["stdout"]
        else:
            assert v.status is SolverStatus.UNSAT
    # the probe reaches every outcome, not only the verdict-line search
    assert min(statuses[s] for s in SolverStatus) >= 10, statuses
