"""Concrete execution engine, cross-checked against naive enumeration.

The executor splits transitions into definitional assignments plus residual
constraints for speed; the reference below ignores all structure and just
filters full cross-products with eval_expr. On every random system the two
must produce identical initial-state and successor sets, in identical order.
"""

from __future__ import annotations

import hashlib
from itertools import product

import pytest

import kindmc.solver as solver_mod
from kindmc import concrete, ir
from kindmc.concrete import SystemExecutor, _domain
from kindmc.encoder import Target
from kindmc.engine import Outcome, compare, run_extended, run_plain
from kindmc.errors import InternalError
from kindmc.frontend import chain_bug, format_system, parse
from kindmc.ir import State, Trace, eval_expr
from kindmc.solver import _executor

from randsys import corpus
from systems import deadlock_chain, definitional_props, halt_sink, saturating


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


def test_target_tuple_converts_each_target_once_per_executor():
    sys = saturating()
    # equal targets, but distinct objects: each is converted for itself
    a, b = (Target(State({"x": 5}), Trace((State({"x": 5}),), ()), 1, 1) for _ in range(2))
    for ex in (SystemExecutor(sys), SystemExecutor(sys)):
        converted = []

        def counting(st, convert=ex.state_tuple):
            converted.append(st)
            return convert(st)

        ex.state_tuple = counting
        assert [ex.target_tuple(t) for t in (a, b, a, b, a)] == [(5,)] * 5
        assert converted == [a.first_state, b.first_state]
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


# ---------------------------------------------------------------------------
# Sections compiled on first use


def _compiled(monkeypatch) -> list:
    """The expressions concrete.compile_expr is asked for from now on, not
    counting its calls for their subexpressions."""
    seen, nested = [], [0]
    compile_expr = concrete.compile_expr

    def recording(e, *args):
        if not nested[0]:
            seen.append(e)
        nested[0] += 1
        try:
            return compile_expr(e, *args)
        finally:
            nested[0] -= 1

    monkeypatch.setattr(concrete, "compile_expr", recording)
    return seen


INIT_BUG = """
(system
  (var x (bv 3))
  (input c (bv 1))
  (init (= x #b010))
  (trans (and (= (next x) (bvadd x #b001)) (bvule c #b1)))
  (prop never_two (not (= x #b010)))
  (halt (= x #b111)))
"""


def test_a_bug_in_an_initial_state_compiles_no_trans_or_halt(monkeypatch):
    sys = parse(INIT_BUG)
    seen = _compiled(monkeypatch)
    rec = compare(sys)
    assert rec.plain.k == rec.extended.k == 1 and rec.plain.outcome is Outcome.BUG_FOUND
    skipped = {id(n) for n in ir.walk(sys.trans)} | {id(n) for n in ir.walk(sys.halt)}
    assert seen and not [e for e in seen if id(e) in skipped]


def test_each_section_is_compiled_once_per_executor(monkeypatch):
    sys = chain_bug(9)
    builds = []
    monkeypatch.setattr(solver_mod, "SystemExecutor", lambda s: builds.append(s) or SystemExecutor(s))
    seen = _compiled(monkeypatch)
    rec = compare(sys)
    reports = [run_plain(sys), run_extended(sys), rec.plain, rec.extended]
    assert sum(r.solver_calls for r in reports) > 40
    assert builds == [sys]
    assert [e for e in seen if e is sys.trans.args[1]] == [sys.trans.args[1]]  # (bvadd x 1)
    assert [e for e in seen if e is sys.halt] == [sys.halt]
    ex = _executor(sys)
    assert ex.halt_fn is ex.halt_fn and ex.halt_fn((3,)) is False
