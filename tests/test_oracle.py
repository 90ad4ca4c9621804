"""Ground-truth breadth-first exploration."""

from __future__ import annotations

import pytest

from kindmc import ir
from kindmc import oracle as oracle_mod
from kindmc.engine import EngineConfig, Outcome, run_plain
from kindmc.errors import ConfigError
from kindmc.frontend import accumulator, chain_bug, const_check
from kindmc.ir import replay_trace
from kindmc.oracle import OracleVerdict, bfs_check

from randsys import corpus
from systems import input_chain, moving_halt, saturating


def test_chain_bug_found_with_shortest_trace():
    sys = chain_bug(5)
    r = bfs_check(sys)
    assert r.verdict is OracleVerdict.UNSAFE
    assert [s["x"] for s in r.trace.states] == [0, 1, 2, 3, 4, 5]
    assert r.trace.violated_prop == "below_limit"
    assert r.explored == 6  # the search stops at the violation
    assert r.depth == 6
    assert replay_trace(sys, r.trace)


def test_const_check_depth():
    r = bfs_check(const_check(8))
    assert r.verdict is OracleVerdict.UNSAFE
    assert len(r.trace.states) == 10  # 9 loop states plus the flagged one
    assert r.explored == 10
    assert r.depth == 10


def test_safe_systems_report_explored_space():
    r = bfs_check(saturating())
    assert r.verdict is OracleVerdict.SAFE_WITHIN_EXPLORED
    assert r.trace is None
    assert r.explored == 8  # 0..7
    assert r.depth == 8

    r = bfs_check(accumulator(4, "safe"))
    assert r.verdict is OracleVerdict.SAFE_WITHIN_EXPLORED


def test_oracle_ignores_halt():
    # halting states are a forward-condition concept; the ground truth
    # keeps walking straight through them
    r = bfs_check(moving_halt())
    assert r.verdict is OracleVerdict.UNSAFE
    assert [s["x"] for s in r.trace.states] == [0, 1, 2, 3]


def test_oracle_cap_is_config_error():
    with pytest.raises(ConfigError, match="state bits"):
        bfs_check(saturating(), state_bit_cap=2)


def _wide(state_width: int, input_width: int) -> ir.TransitionSystem:
    ws, wi = ir.bitvec(state_width), ir.bitvec(input_width)
    x, c = ir.var("x", ws), ir.var("c", wi)
    return ir.TransitionSystem(
        vars=(ir.VarDecl("x", ws, ir.VarRole.STATE), ir.VarDecl("c", wi, ir.VarRole.INPUT)),
        init=ir.eq(x, ir.const(0, ws)),
        trans=ir.eq(ir.next_var("x", ws), x),
        props=(ir.Prop("p", ir.TRUE),),
        halt=ir.FALSE,
    )


def test_bit_caps_enforced(monkeypatch):
    sys = saturating()  # 4 state bits
    with pytest.raises(ConfigError, match="state bits"):
        bfs_check(sys, state_bit_cap=3)
    bfs_check(sys, state_bit_cap=4)  # boundary is inclusive
    bfs_check(input_chain(3))  # 1 input bit
    # over a cap, the system is refused before an executor enumerates it
    built = []
    monkeypatch.setattr(oracle_mod, "SystemExecutor", built.append)
    with pytest.raises(ConfigError, match="17 input bits per step, cap is 16"):
        bfs_check(_wide(2, 17))
    with pytest.raises(ConfigError, match="21 state bits, cap is 20"):
        bfs_check(_wide(21, 1))
    assert built == []


def test_oracle_agrees_with_engine_on_random_systems():
    for sys in corpus(seed=4242, n=30, max_state_bits=6):
        r = bfs_check(sys)
        if r.verdict is OracleVerdict.UNSAFE:
            length = len(r.trace.states)
            rep = run_plain(sys, EngineConfig(max_k=length))
            assert rep.outcome is Outcome.BUG_FOUND, sys.name
            assert len(rep.witness.states) == length, sys.name
        else:
            rep = run_plain(sys, EngineConfig(max_k=8))
            assert rep.outcome is not Outcome.BUG_FOUND, sys.name
