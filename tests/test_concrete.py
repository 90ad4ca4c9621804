"""Concrete execution engine, cross-checked against naive enumeration.

The executor splits transitions into definitional assignments plus residual
constraints for speed; the reference below ignores all structure and just
filters full cross-products with eval_expr. On every random system the two
must produce identical initial-state and successor sets, in identical order.
"""

from __future__ import annotations

import hashlib
import threading
from itertools import product
from sys import getswitchinterval, setswitchinterval

import pytest

from kindmc import ir
from kindmc.concrete import SystemExecutor, _domain
from kindmc.errors import InternalError
from kindmc.frontend import format_system
from kindmc.ir import State, eval_expr
from kindmc.solver import _executor

from randsys import corpus
from systems import deadlock_chain, definitional_props, halt_sink, moving_halt, saturating


def _naive_initials(sys):
    svars = sys.state_vars
    out = []
    for combo in product(*(_domain(v.sort) for v in svars)):
        env = dict(zip((v.name for v in svars), combo))
        if eval_expr(sys.init, env):
            out.append(combo)
    return out


def _naive_successors(sys, s):
    svars = sys.state_vars
    ivars = sys.input_vars
    env = dict(zip((v.name for v in svars), s))
    out = []
    for u in product(*(_domain(v.sort) for v in ivars)):
        ienv = dict(zip((v.name for v in ivars), u))
        for ns in product(*(_domain(v.sort) for v in svars)):
            nenv = dict(zip((v.name for v in svars), ns))
            if eval_expr(sys.trans, env, ienv, nenv):
                out.append((u, ns))
    return out


@pytest.fixture(scope="module")
def small_corpus():
    return corpus(seed=7, n=40, max_state_bits=6)


def test_initial_states_match_naive(small_corpus):
    for sys in small_corpus:
        ex = SystemExecutor(sys)
        got = list(ex.initial_states())
        want = _naive_initials(sys)
        want.sort(key=lambda t: tuple(int(v) for v in t))
        assert got == want, sys.name


def test_successors_match_naive_from_every_reachable_state(small_corpus):
    for sys in small_corpus:
        ex = SystemExecutor(sys)
        seen = set(ex.initial_states())
        frontier = list(seen)
        while frontier:
            s = frontier.pop()
            got = list(ex.successors(s))
            want = _naive_successors(sys, s)
            assert sorted(got) == sorted(want), f"{sys.name} at {s}"
            for _, ns in got:
                if ns not in seen:
                    seen.add(ns)
                    frontier.append(ns)


def test_enumeration_is_deterministic_and_ascending():
    # free init: every state is initial, in ascending declaration order
    w = ir.bitvec(2)
    x = ir.var("x", w)
    sys = ir.TransitionSystem(
        vars=(
            ir.VarDecl("b", ir.BOOL, ir.VarRole.STATE),
            ir.VarDecl("x", w, ir.VarRole.STATE),
        ),
        init=ir.TRUE,
        trans=ir.and_(
            ir.eq(ir.next_var("b", ir.BOOL), ir.var("b", ir.BOOL)),
            ir.eq(ir.next_var("x", w), x),
        ),
        props=(ir.Prop("p", ir.TRUE),),
        halt=ir.FALSE,
    )
    ex = SystemExecutor(sys)
    got = ex.initial_states()
    assert got == tuple((b, v) for b in (False, True) for v in range(4))


def test_successor_memoization():
    ex = SystemExecutor(saturating())
    s = ex.initial_states()[0]
    assert ex.successors(s) is ex.successors(s)


def test_initial_states_memoized():
    ex = SystemExecutor(saturating())
    assert ex.initial_states() is ex.initial_states()


# ---------------------------------------------------------------------------
# Good states, enumerated from the properties' definitions


def _filtered_good(ex: SystemExecutor) -> tuple[tuple, ...]:
    """The good states by brute force: every state, in ascending order,
    at which eval_expr finds every property true."""
    props = [p.expr for p in ex.system.props]

    def good(s):
        env = dict(zip(ex.state_names, s))
        return all(eval_expr(e, env) for e in props)

    return tuple(filter(good, ex.all_states()))


def _defined(ex: SystemExecutor) -> list[str]:
    defs, _ = ex._split_defs(ir.conj([p.expr for p in ex.system.props]))
    return [name for name, _ in defs]


@pytest.mark.parametrize(
    "case, defined",
    [
        ("chain", ["b", "c"]),
        ("cycle", []),
        ("twice", ["a"]),
        ("constrained", ["a"]),
        ("one_of_several", ["b"]),
        ("bool", ["f"]),
    ],
)
def test_good_states_from_definitional_props_match_the_filter(case, defined):
    ex = SystemExecutor(definitional_props()[case])
    assert _defined(ex) == defined
    good = ex.good_states()
    assert good == _filtered_good(ex)
    assert good and good is ex.good_states()
    # init is the property conjunction, enumerated the same way
    assert ex.initial_states() == good


def test_good_states_match_the_filter_on_random_systems():
    systems = corpus(seed=20261019, n=400, max_state_bits=8, definitional_props=True)
    with_defs = 0
    for sys in systems + corpus(seed=20261020, n=100, max_state_bits=8):
        ex = SystemExecutor(sys)
        with_defs += bool(_defined(ex))
        assert ex.good_states() == _filtered_good(ex), sys.name
    assert with_defs >= 100


def test_corpus_without_the_option_is_unchanged():
    # the benchmark's random_corpus is built from this corpus
    texts = "\n".join(format_system(s) for s in corpus(1, 1000, max_state_bits=8))
    assert (
        hashlib.sha256(texts.encode()).hexdigest()
        == "2619c53499a762d68ea03ab11a6c74793adb69d68999b76fbfda5542ae3a7d02"
    )


def test_deadlock_state_has_no_successors():
    sys = deadlock_chain()
    ex = SystemExecutor(sys)
    assert ex.successors((2,)) == ()
    # x=1 can still move
    assert ex.successors((1,)) == (((), (2,)),)


def test_halting_states_still_enumerate_successors():
    # halt marks completeness for the forward condition only; the executor
    # itself keeps stepping (halt_sink's halting state loops to itself)
    sys = halt_sink()
    ex = SystemExecutor(sys)
    assert ex.successors((7,)) == (((), (7,)),)


def test_state_conversions_round_trip():
    sys = saturating()
    ex = SystemExecutor(sys)
    st = ex.state_obj((5,))
    assert st == State({"x": 5})
    assert ex.state_tuple(st) == (5,)
    assert ex.input_obj(()) == State({})


def test_violated_prop_reports_first_false():
    w = ir.bitvec(2)
    x = ir.var("x", w)
    sys = ir.TransitionSystem(
        vars=(ir.VarDecl("x", w, ir.VarRole.STATE),),
        init=ir.TRUE,
        trans=ir.eq(ir.next_var("x", w), x),
        props=(
            ir.Prop("a", ir.not_(ir.eq(x, ir.bv_const(3, 2)))),
            ir.Prop("b", ir.not_(ir.eq(x, ir.bv_const(2, 2)))),
            ir.Prop("c", ir.bvult(x, ir.bv_const(2, 2))),
        ),
        halt=ir.FALSE,
    )
    ex = SystemExecutor(sys)
    assert ex.violated_prop((0,)) is None
    assert ex.violated_prop((2,)) == "b"
    assert ex.violated_prop((3,)) == "a"  # first declared wins


def test_residual_only_transitions():
    # no definitional conjunct at all: x' is constrained, not computed
    w = ir.bitvec(2)
    nx = ir.next_var("x", w)
    sys = ir.TransitionSystem(
        vars=(ir.VarDecl("x", w, ir.VarRole.STATE),),
        init=ir.eq(ir.var("x", w), ir.bv_const(0, 2)),
        trans=ir.bvule(nx, ir.bv_const(1, 2)),
        props=(ir.Prop("p", ir.TRUE),),
        halt=ir.FALSE,
    )
    ex = SystemExecutor(sys)
    assert ex.successors((3,)) == (((), (0,)), ((), (1,)))


def test_state_tuple_is_memoised():
    ex = SystemExecutor(saturating())
    st = State({"x": 5})
    assert ex.state_tuple(st) is ex.state_tuple(State({"x": 5}))
    with pytest.raises(InternalError, match="state binds"):
        ex.state_tuple(State({"y": 5}))


# ---------------------------------------------------------------------------
# The solver's executor slot


def test_equal_but_distinct_systems_do_not_share_an_executor():
    a, b = saturating(), saturating()
    assert a == b and a is not b
    ex_a = _executor(a)
    ex_b = _executor(b)
    assert ex_a is not ex_b
    assert ex_a.system is a and ex_b.system is b


def test_interleaved_systems_rebuild_their_executor():
    a, b = saturating(), halt_sink()
    ex_a = _executor(a)
    assert _executor(a) is ex_a
    ex_b = _executor(b)
    again = _executor(a)
    assert ex_b.system is b
    assert again.system is a and again is not ex_a
    s = again.initial_states()[0]
    assert again.next_rows[s] == tuple(dict.fromkeys(ns for _, ns in ex_a.successors(s)))
    assert again.good_states() == ex_a.good_states()


def test_threads_querying_different_systems_get_their_own_executor():
    systems = [saturating(), halt_sink(), moving_halt(), deadlock_chain()]
    wrong = []

    def work(sys):
        for _ in range(20000):
            if _executor(sys).system is not sys:
                wrong.append(sys.name)

    old = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in systems]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []

