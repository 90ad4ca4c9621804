"""Frozen witnesses: which path each engine reports, not just how long.

The built-in search breaks ties by discovery order (initial states in
ascending order, then successors in input and value order). Nothing else
pins that order, so a change to the search could swap one shortest
witness for another, or one inductive counterexample for another, without
moving any k. These values were recorded from the engine as it stood
before the search was folded into one kernel and must not drift.

A path is written state, then `-[input]->`, then the next state; each
state and input lists its variables by name.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import pytest

from kindmc.engine import EngineConfig, Outcome, TargetRecheck, run
from kindmc.frontend import accumulator, chain_bug, diamond_parity
from kindmc.ir import State, Trace

from systems import input_chain


class Golden(NamedTuple):
    k: int
    witness: str
    violated: str
    matched_target_id: Optional[int]
    targets: tuple[tuple[str, str, str], ...]  # first state, suffix, violated
    iterations: tuple[str, ...]  # "check:status ..." per iteration


SYSTEMS = {
    "diamond_parity_d9": (lambda: diamond_parity(9), TargetRecheck.SAME_ITERATION),
    "accumulator_buggy_d4": (lambda: accumulator(4, "buggy"), TargetRecheck.SAME_ITERATION),
    "input_chain_d6": (lambda: input_chain(6), TargetRecheck.SAME_ITERATION),
    "chain_bug_d9_next": (lambda: chain_bug(9), TargetRecheck.NEXT_ITERATION),
}

GOLDEN = {
    ('diamond_parity_d9', 'plain'): Golden(
        k=10,
        witness=(
            'i=0 x=0 -[c=False]-> i=1 x=15 -[c=False]-> i=2 x=14 -[c=False]-> i=3 x=13 '
            '-[c=False]-> i=4 x=12 -[c=False]-> i=5 x=11 -[c=False]-> i=6 x=10 '
            '-[c=False]-> i=7 x=9 -[c=False]-> i=8 x=8 -[c=False]-> i=9 x=7'
        ),
        violated='parity_even',
        matched_target_id=None,
        targets=(),
        iterations=(
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:sat',
        ),
    ),
    ('diamond_parity_d9', 'extended'): Golden(
        k=6,
        witness=(
            'i=0 x=0 -[c=False]-> i=1 x=15 -[c=False]-> i=2 x=14 -[c=True]-> i=3 x=15 '
            '-[c=True]-> i=4 x=0 -[c=True]-> i=5 x=1 -[c=False]-> i=6 x=0 '
            '-[c=False]-> i=7 x=15 -[c=False]-> i=8 x=14 -[c=False]-> i=9 x=13'
        ),
        violated='parity_even',
        matched_target_id=5,
        targets=(
            ('i=9 x=1', 'i=9 x=1', 'parity_even'),
            ('i=8 x=0', 'i=8 x=0 -[c=False]-> i=9 x=15', 'parity_even'),
            (
                'i=7 x=1',
                'i=7 x=1 -[c=False]-> i=8 x=0 -[c=False]-> i=9 x=15',
                'parity_even',
            ),
            (
                'i=6 x=0',
                (
                    'i=6 x=0 -[c=False]-> i=7 x=15 -[c=False]-> i=8 x=14 '
                    '-[c=False]-> i=9 x=13'
                ),
                'parity_even',
            ),
            (
                'i=5 x=1',
                (
                    'i=5 x=1 -[c=False]-> i=6 x=0 -[c=False]-> i=7 x=15 '
                    '-[c=False]-> i=8 x=14 -[c=False]-> i=9 x=13'
                ),
                'parity_even',
            ),
        ),
        iterations=(
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:sat',
        ),
    ),
    ('accumulator_buggy_d4', 'plain'): Golden(
        k=5,
        witness=(
            'i=0 n=4 sn=0 -[]-> i=1 n=4 sn=2 -[]-> i=2 n=4 sn=4 -[]-> i=3 n=4 sn=6 '
            '-[]-> i=4 n=4 sn=8'
        ),
        violated='sum_below_target',
        matched_target_id=None,
        targets=(),
        iterations=(
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:sat',
        ),
    ),
    ('accumulator_buggy_d4', 'extended'): Golden(
        k=3,
        witness=(
            'i=0 n=4 sn=0 -[]-> i=1 n=4 sn=2 -[]-> i=2 n=4 sn=4 -[]-> i=3 n=4 sn=6 '
            '-[]-> i=4 n=4 sn=8'
        ),
        violated='sum_below_target',
        matched_target_id=3,
        targets=(
            ('i=0 n=0 sn=1', 'i=0 n=0 sn=1', 'sum_is_twice_i'),
            ('i=3 n=4 sn=6', 'i=3 n=4 sn=6 -[]-> i=4 n=4 sn=8', 'sum_below_target'),
            (
                'i=2 n=4 sn=4',
                'i=2 n=4 sn=4 -[]-> i=3 n=4 sn=6 -[]-> i=4 n=4 sn=8',
                'sum_below_target',
            ),
        ),
        iterations=(
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:sat',
        ),
    ),
    ('input_chain_d6', 'plain'): Golden(
        k=7,
        witness=(
            'x=0 -[c=True]-> x=1 -[c=True]-> x=2 -[c=True]-> x=3 -[c=True]-> x=4 '
            '-[c=True]-> x=5 -[c=True]-> x=6'
        ),
        violated='below_limit',
        matched_target_id=None,
        targets=(),
        iterations=(
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:unsat forward:sat inductive:sat',
            'base:sat',
        ),
    ),
    ('input_chain_d6', 'extended'): Golden(
        k=4,
        witness=(
            'x=0 -[c=True]-> x=1 -[c=True]-> x=2 -[c=True]-> x=3 -[c=True]-> x=4 '
            '-[c=True]-> x=5 -[c=True]-> x=6'
        ),
        violated='below_limit',
        matched_target_id=4,
        targets=(
            ('x=6', 'x=6', 'below_limit'),
            ('x=5', 'x=5 -[c=True]-> x=6', 'below_limit'),
            ('x=4', 'x=4 -[c=True]-> x=5 -[c=True]-> x=6', 'below_limit'),
            ('x=3', 'x=3 -[c=True]-> x=4 -[c=True]-> x=5 -[c=True]-> x=6', 'below_limit'),
        ),
        iterations=(
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:unsat',
            'extended-base:unsat forward:sat inductive:sat target-recheck:sat',
        ),
    ),
    ('chain_bug_d9_next', 'extended'): Golden(
        k=6,
        witness=(
            'x=0 -[]-> x=1 -[]-> x=2 -[]-> x=3 -[]-> x=4 -[]-> x=5 -[]-> x=6 -[]-> x=7 '
            '-[]-> x=8 -[]-> x=9'
        ),
        violated='below_limit',
        matched_target_id=5,
        targets=(
            ('x=9', 'x=9', 'below_limit'),
            ('x=8', 'x=8 -[]-> x=9', 'below_limit'),
            ('x=7', 'x=7 -[]-> x=8 -[]-> x=9', 'below_limit'),
            ('x=6', 'x=6 -[]-> x=7 -[]-> x=8 -[]-> x=9', 'below_limit'),
            ('x=5', 'x=5 -[]-> x=6 -[]-> x=7 -[]-> x=8 -[]-> x=9', 'below_limit'),
        ),
        iterations=(
            'extended-base:unsat forward:sat inductive:sat',
            'extended-base:unsat forward:sat inductive:sat',
            'extended-base:unsat forward:sat inductive:sat',
            'extended-base:unsat forward:sat inductive:sat',
            'extended-base:unsat forward:sat inductive:sat',
            'extended-base:sat',
        ),
    ),
}


def _state(s: State) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(s.as_dict().items()))


def _path(t: Trace) -> str:
    parts = [_state(t.states[0])]
    for u, s in zip(t.inputs, t.states[1:]):
        parts.append(f"-[{_state(u)}]-> {_state(s)}")
    return " ".join(parts)


@pytest.mark.parametrize("name,mode", sorted(GOLDEN), ids=lambda v: v)
def test_golden_witness(name, mode):
    make, recheck = SYSTEMS[name]
    r = run(make(), mode, EngineConfig(target_recheck=recheck))
    want = GOLDEN[(name, mode)]
    assert r.outcome is Outcome.BUG_FOUND
    assert r.witness is not None
    got = Golden(
        k=r.k,
        witness=_path(r.witness),
        violated=r.witness.violated_prop,
        matched_target_id=r.matched_target_id,
        targets=tuple(
            (_state(t.first_state), _path(t.suffix), t.suffix.violated_prop)
            for t in r.targets
        ),
        iterations=tuple(
            " ".join(f"{c.check}:{c.status}" for c in it.checks) for it in r.iterations
        ),
    )
    assert got == want
    assert [t.tid for t in r.targets] == list(range(1, len(r.targets) + 1))
