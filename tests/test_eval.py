"""The reference evaluator, ir.eval_expr: agreement with the executor's
compiled closures (concrete.compile_expr) on random systems, pinned edge
cases, its error contract and its frame use."""

from __future__ import annotations

import sys
from itertools import product

import pytest

from kindmc import ir
from kindmc.concrete import _domain, compile_expr
from kindmc.errors import InternalError
from kindmc.ir import (
    BOOL,
    MAX_NESTING,
    MAX_WIDTH,
    Expr,
    Prop,
    State,
    Trace,
    TransitionSystem,
    VarDecl,
    VarRole,
    bitvec,
    eval_expr,
    free_names,
    next_names,
    replay_trace,
)

from randsys import corpus
from systems import halt_sink, moving_halt

# ---------------------------------------------------------------------------
# Differential: eval_expr against compile_expr


def _sections(sys_: TransitionSystem) -> list[Expr]:
    return [sys_.init, sys_.trans, *(p.expr for p in sys_.props), sys_.halt]


def _assert_agree(e: Expr, sys_: TransitionSystem) -> int:
    """e's value under eval_expr and under compile_expr, at every valuation
    of the names e reads: state variables, inputs and next-state variables.
    Neither evaluator reads a name that e does not mention, so this covers
    every state, input and next state. Returns the valuations checked."""
    sorts = {v.name: v.sort for v in sys_.vars}
    inputs = {v.name for v in sys_.input_vars}
    plain, nexts = sorted(free_names(e)), sorted(next_names(e))
    fn = compile_expr(
        e, {n: i for i, n in enumerate(plain)}, {n: i for i, n in enumerate(nexts)}
    )
    checked = 0
    for env in product(*(_domain(sorts[n]) for n in plain)):
        bound = dict(zip(plain, env))
        state = {n: v for n, v in bound.items() if n not in inputs}
        given = {n: v for n, v in bound.items() if n in inputs}
        for nxt in product(*(_domain(sorts[n]) for n in nexts)):
            want = fn(env, nxt)
            got = eval_expr(e, state, given, dict(zip(nexts, nxt)))
            assert got == want and type(got) is type(want), (
                f"{sys_.name}: {e} at {bound} next {nxt}: {got!r} != {want!r}"
            )
            checked += 1
    return checked


def test_eval_expr_agrees_with_compiled_closures_on_every_subexpression():
    systems = [*corpus(seed=20261026, n=150, max_state_bits=8), halt_sink(), moving_halt()]
    checked = 0
    for sys_ in systems:
        assert sys_.state_bits <= 8
        subexpressions = {n for section in _sections(sys_) for n in ir.walk(section)}
        for e in subexpressions:
            checked += _assert_agree(e, sys_)
    assert checked > 10_000


# ---------------------------------------------------------------------------
# Pinned edge cases

_X1, _Y1 = ir.var("x", bitvec(1)), ir.var("y", bitvec(1))
_X3, _Y3 = ir.var("x", bitvec(3)), ir.var("y", bitvec(3))
_XW, _YW = ir.var("x", bitvec(MAX_WIDTH)), ir.var("y", bitvec(MAX_WIDTH))
_A, _B = ir.var("a", BOOL), ir.var("b", BOOL)
_TOP = (1 << MAX_WIDTH) - 1

# (id, expression, bindings, value)
_EDGES = [
    ("bvsub-wraps-below-zero", ir.bvsub(_X3, _Y3), {"x": 0, "y": 1}, 7),
    ("bvsub-wraps-at-max-width", ir.bvsub(_XW, _YW), {"x": 1, "y": 2}, _TOP),
    ("bvsub-width-1", ir.bvsub(_X1, _Y1), {"x": 0, "y": 1}, 1),
    ("bvmul-wraps", ir.bvmul(_X3, _Y3), {"x": 5, "y": 3}, 7),
    ("bvmul-wraps-to-zero", ir.bvmul(_X3, _Y3), {"x": 4, "y": 2}, 0),
    ("bvmul-wraps-at-max-width", ir.bvmul(_XW, _YW), {"x": _TOP, "y": _TOP}, 1),
    ("bvmul-top-bit-out", ir.bvmul(_XW, _YW), {"x": 1 << (MAX_WIDTH - 1), "y": 2}, 0),
    ("bvnot-width-1-of-0", ir.bvnot(_X1), {"x": 0}, 1),
    ("bvnot-width-1-of-1", ir.bvnot(_X1), {"x": 1}, 0),
    ("bvnot-max-width-of-0", ir.bvnot(_XW), {"x": 0}, _TOP),
    ("bvnot-max-width-of-top", ir.bvnot(_XW), {"x": _TOP}, 0),
    ("bvnot-max-width-of-one", ir.bvnot(_XW), {"x": 1}, _TOP - 1),
    ("implies-ff", ir.implies(_A, _B), {"a": False, "b": False}, True),
    ("implies-ft", ir.implies(_A, _B), {"a": False, "b": True}, True),
    ("implies-tf", ir.implies(_A, _B), {"a": True, "b": False}, False),
    ("implies-tt", ir.implies(_A, _B), {"a": True, "b": True}, True),
    ("iff-ff", ir.iff(_A, _B), {"a": False, "b": False}, True),
    ("iff-ft", ir.iff(_A, _B), {"a": False, "b": True}, False),
    ("iff-tf", ir.iff(_A, _B), {"a": True, "b": False}, False),
    ("iff-tt", ir.iff(_A, _B), {"a": True, "b": True}, True),
    ("ite-bv-then", ir.ite(_A, _X3, _Y3), {"a": True, "x": 6, "y": 1}, 6),
    ("ite-bv-else", ir.ite(_A, _X3, _Y3), {"a": False, "x": 6, "y": 1}, 1),
    (
        "ite-bv-under-bvadd",
        ir.bvadd(ir.ite(_A, _XW, ir.bv_const(1, MAX_WIDTH)), _YW),
        {"a": False, "x": 0, "y": _TOP},
        0,
    ),
]


@pytest.mark.parametrize("e,env,value", [c[1:] for c in _EDGES], ids=[c[0] for c in _EDGES])
def test_edge_cases(e, env, value):
    got = eval_expr(e, env)
    assert got == value and type(got) is type(value)
    names = sorted(env)
    compiled = compile_expr(e, {n: i for i, n in enumerate(names)})
    assert compiled(tuple(env[n] for n in names)) == value


# ---------------------------------------------------------------------------
# Error contract


def _unknown(sort=BOOL) -> Expr:
    return Expr("frobnicate", sort)


@pytest.mark.parametrize(
    "e",
    [_unknown(), ir.and_(ir.TRUE, _unknown()), ir.not_(ir.not_(_unknown())),
     ir.bvadd(_X3, _unknown(bitvec(3)))],
    ids=["root", "under-and", "under-nots", "under-bvadd"],
)
def test_unknown_operator_is_an_internal_error_not_a_key_error(e):
    with pytest.raises(InternalError, match="unknown operator 'frobnicate'") as exc:
        eval_expr(e, {"x": 0})
    assert not isinstance(exc.value, KeyError)


def test_replay_of_a_trans_with_an_unknown_operator_fails_without_raising():
    w = bitvec(2)
    x = ir.var("x", w)
    sys_ = TransitionSystem(
        vars=(VarDecl("x", w, VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, 2)),
        trans=ir.and_(ir.eq(ir.next_var("x", w), x), _unknown()),
        props=(Prop("p", ir.TRUE),),
        halt=ir.FALSE,
    )
    trace = Trace((State({"x": 0}), State({"x": 0})), (State({}),))
    verdict = replay_trace(sys_, trace)
    assert not verdict
    assert verdict.reason == "evaluation failed: unknown operator 'frobnicate'"


@pytest.mark.parametrize("wrap", [dict, State], ids=["dict", "State"])
def test_unbound_names_are_internal_errors(wrap):
    x, nx = ir.var("x", BOOL), ir.next_var("x", BOOL)
    cases = [
        (ir.var("ghost", BOOL), (wrap({"x": True}),)),
        (ir.var("ghost", BOOL), (wrap({"x": True}), wrap({"c": True}))),
        (nx, (wrap({"x": True}),)),
        (nx, (wrap({"x": True}), None, wrap({"y": True}))),
        (ir.and_(x, nx), (wrap({}), None, wrap({"x": True}))),
    ]
    for e, bindings in cases:
        with pytest.raises(InternalError, match="unbound") as exc:
            eval_expr(e, *bindings)
        assert not isinstance(exc.value, KeyError)


def test_boolean_results_are_the_bool_singletons():
    x, y = ir.var("x", bitvec(2)), ir.var("y", bitvec(2))
    bool_ops = [
        ir.not_(_A),
        ir.and_(_A, _B),
        ir.or_(_A, _B),
        ir.implies(_A, _B),
        ir.iff(_A, _B),
        ir.ite(_A, _B, ir.not_(_B)),
        ir.eq(_A, _B),
        ir.eq(x, y),
        *(cmp(x, y) for cmp in (ir.bvule, ir.bvult, ir.bvuge, ir.bvugt)),
    ]
    for va, vb, vx, vy in product((False, True), (False, True), range(4), range(4)):
        env = {"a": va, "b": vb, "x": vx, "y": vy}
        for e in bool_ops:
            got = eval_expr(e, env)
            assert got is True or got is False, (e.op, env, got)


# ---------------------------------------------------------------------------
# Frame use: one Python frame per expression level


def _chain(op: str) -> Expr:
    """An expression MAX_NESTING nodes deep, its deepest operand first, over
    the boolean variable b."""
    e = b = ir.var("b", BOOL)
    for _ in range(MAX_NESTING - 1):
        if op == "and":
            e = ir.and_(e, b)
        elif op == "or":
            e = ir.or_(e, b)
        elif op == "not":
            e = ir.not_(e)
        else:
            e = ir.ite(b, e, ir.FALSE)
    return e


def _stack_depth() -> int:
    f, n = sys._getframe(1), 0
    while f is not None:
        n, f = n + 1, f.f_back
    return n


# frames above the chain's own: eval_expr, _evaluate and a few to spare, far
# fewer than the extra frame per level an `all(... for ...)` would take
_SPARE_FRAMES = 8


@pytest.mark.parametrize("op", ["and", "or", "not", "ite"])
def test_one_frame_per_expression_level(op):
    e = _chain(op)
    want = op != "not" or MAX_NESTING % 2 == 1  # MAX_NESTING - 1 nots over true
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + MAX_NESTING + _SPARE_FRAMES)
    try:
        got = eval_expr(e, {"b": True})
    finally:
        sys.setrecursionlimit(limit)
    assert got is want
