"""Core expression and system representation."""

from __future__ import annotations

import threading
from dataclasses import replace
from itertools import product
from sys import getswitchinterval, setswitchinterval

import pytest

from kindmc import ir
from kindmc.errors import InternalError, SortError, ValidationError
from kindmc.ir import (
    BOOL,
    Prop,
    State,
    Trace,
    TransitionSystem,
    VarDecl,
    VarRole,
    bitvec,
    eval_expr,
    replay_trace,
    states_equal,
)

from systems import deadlock_chain, halt_sink, moving_halt, nested_not, not_chain, saturating


# ---------------------------------------------------------------------------
# Sorts and constants


def test_sort_basics():
    b3 = bitvec(3)
    assert b3.width == 3
    assert b3.bits == 3
    assert b3.num_values() == 8
    assert not b3.is_bool
    assert BOOL.is_bool
    assert BOOL.bits == 1
    assert BOOL.num_values() == 2
    assert str(b3) == "(bv 3)"
    assert str(BOOL) == "bool"


def test_sort_contains():
    b2 = bitvec(2)
    assert b2.contains(0) and b2.contains(3)
    assert not b2.contains(4)
    assert not b2.contains(-1)
    assert not b2.contains(True)  # bools are not bit-vector values
    assert BOOL.contains(False)
    assert not BOOL.contains(1)


@pytest.mark.parametrize("w", [0, -1, 65, 100])
def test_sort_width_limits(w):
    with pytest.raises(SortError):
        bitvec(w)


def test_const_range_checks():
    assert ir.bv_const(3, 2).value == 3
    with pytest.raises(SortError):
        ir.bv_const(4, 2)
    with pytest.raises(SortError):
        ir.bv_const(-1, 2)
    # bool constants coerce truthiness
    assert ir.const(True, BOOL).value is True
    assert ir.const(7, BOOL).value is True
    assert ir.const(0, BOOL).value is False


def test_var_needs_name():
    with pytest.raises(ValidationError):
        ir.var("", BOOL)
    with pytest.raises(ValidationError):
        ir.next_var("", bitvec(2))


# ---------------------------------------------------------------------------
# Constructor sort discipline


def test_bool_ops_reject_bitvectors():
    x = ir.var("x", bitvec(2))
    b = ir.var("b", BOOL)
    for build in (
        lambda: ir.not_(x),
        lambda: ir.and_(x, b),
        lambda: ir.or_(b, x),
        lambda: ir.implies(x, b),
        lambda: ir.iff(b, x),
        lambda: ir.ite(x, b, b),
    ):
        with pytest.raises(SortError):
            build()


def test_variadic_ops_need_two_args():
    b = ir.var("b", BOOL)
    with pytest.raises(SortError):
        ir.and_(b)
    with pytest.raises(SortError):
        ir.or_()


def test_bv_ops_reject_bools_and_mixed_widths():
    b = ir.var("b", BOOL)
    x2 = ir.var("x", bitvec(2))
    x3 = ir.var("y", bitvec(3))
    for build in (
        lambda: ir.bvadd(b, b),
        lambda: ir.bvule(x2, b),
        lambda: ir.bvnot(b),
        lambda: ir.bvadd(x2, x3),
        lambda: ir.bvult(x2, x3),
        lambda: ir.eq(x2, x3),
        lambda: ir.eq(x2, b),
        lambda: ir.ite(b, x2, x3),
    ):
        with pytest.raises(SortError):
            build()


def test_result_sorts():
    x = ir.var("x", bitvec(3))
    assert ir.bvadd(x, x).sort == bitvec(3)
    assert ir.bvule(x, x).sort == BOOL
    assert ir.eq(x, x).sort == BOOL
    assert ir.ite(ir.var("b", BOOL), x, x).sort == bitvec(3)


# ---------------------------------------------------------------------------
# Folding helpers


def test_conj_folding():
    b = ir.var("b", BOOL)
    c = ir.var("c", BOOL)
    assert ir.conj([]) == ir.TRUE
    assert ir.conj([b]) == b
    assert ir.conj([b, ir.TRUE]) == b
    assert ir.conj([b, ir.FALSE, c]) == ir.FALSE
    e = ir.conj([b, c])
    assert e.op == "and" and e.args == (b, c)


def test_disj_folding():
    b = ir.var("b", BOOL)
    c = ir.var("c", BOOL)
    assert ir.disj([]) == ir.FALSE
    assert ir.disj([b]) == b
    assert ir.disj([b, ir.FALSE]) == b
    assert ir.disj([b, ir.TRUE, c]) == ir.TRUE
    e = ir.disj([b, c])
    assert e.op == "or" and e.args == (b, c)


def test_free_and_next_names():
    x = ir.var("x", bitvec(2))
    e = ir.and_(
        ir.eq(ir.next_var("x", bitvec(2)), ir.bvadd(x, ir.bv_const(1, 2))),
        ir.var("go", BOOL),
    )
    assert ir.free_names(e) == {"x", "go"}
    assert ir.next_names(e) == {"x"}


def test_walk_is_preorder_and_depth_counts_nodes():
    x = ir.var("x", bitvec(2))
    one = ir.bv_const(1, 2)
    e = ir.and_(ir.eq(x, one), ir.not_(ir.var("go", BOOL)))
    assert [n.op for n in ir.walk(e)] == ["and", "=", "var", "const", "not", "var"]
    assert ir.depth(x) == 1
    assert ir.depth(e) == 3


def test_walk_and_depth_do_not_recurse():
    prop = not_chain(3000)
    assert ir.depth(prop) == 3000
    assert sum(1 for _ in ir.walk(prop)) == 3000 + 1


# ---------------------------------------------------------------------------
# Evaluation semantics. Bit-vector ops are checked exhaustively against
# plain integer arithmetic for small widths.

_BV_CASES = [
    ("bvadd", ir.bvadd, lambda a, b, m: (a + b) % m),
    ("bvsub", ir.bvsub, lambda a, b, m: (a - b) % m),
    ("bvmul", ir.bvmul, lambda a, b, m: (a * b) % m),
    ("bvand", ir.bvand, lambda a, b, m: a & b),
    ("bvor", ir.bvor, lambda a, b, m: a | b),
    ("bvxor", ir.bvxor, lambda a, b, m: a ^ b),
    ("bvule", ir.bvule, lambda a, b, m: a <= b),
    ("bvult", ir.bvult, lambda a, b, m: a < b),
    ("bvuge", ir.bvuge, lambda a, b, m: a >= b),
    ("bvugt", ir.bvugt, lambda a, b, m: a > b),
    ("=", ir.eq, lambda a, b, m: a == b),
]


@pytest.mark.parametrize("name,build,ref", _BV_CASES, ids=[c[0] for c in _BV_CASES])
def test_bv_binary_semantics_exhaustive(name, build, ref):
    for w in (1, 2, 3):
        m = 1 << w
        x = ir.var("x", bitvec(w))
        y = ir.var("y", bitvec(w))
        e = build(x, y)
        for a, b in product(range(m), repeat=2):
            got = eval_expr(e, {"x": a, "y": b})
            assert got == ref(a, b, m), f"{name} w={w} a={a} b={b}"


def test_bvnot_exhaustive():
    for w in (1, 2, 3):
        m = 1 << w
        x = ir.var("x", bitvec(w))
        e = ir.bvnot(x)
        for a in range(m):
            assert eval_expr(e, {"x": a}) == (m - 1) ^ a


def test_bool_op_tables():
    a = ir.var("a", BOOL)
    b = ir.var("b", BOOL)
    c = ir.var("c", BOOL)
    for va, vb in product((False, True), repeat=2):
        env = {"a": va, "b": vb}
        assert eval_expr(ir.and_(a, b), env) == (va and vb)
        assert eval_expr(ir.or_(a, b), env) == (va or vb)
        assert eval_expr(ir.implies(a, b), env) == ((not va) or vb)
        assert eval_expr(ir.iff(a, b), env) == (va == vb)
        assert eval_expr(ir.not_(a), env) == (not va)
    for va, vb, vc in product((False, True), repeat=3):
        env = {"a": va, "b": vb, "c": vc}
        assert eval_expr(ir.and_(a, b, c), env) == (va and vb and vc)
        assert eval_expr(ir.or_(a, b, c), env) == (va or vb or vc)
        assert eval_expr(ir.ite(a, b, c), env) == (vb if va else vc)


def test_eval_inputs_and_next():
    x = ir.var("x", bitvec(2))
    c = ir.var("c", BOOL)
    nx = ir.next_var("x", bitvec(2))
    step = ir.eq(nx, ir.ite(c, ir.bvadd(x, ir.bv_const(1, 2)), x))
    assert eval_expr(step, {"x": 1}, inputs={"c": True}, next_state={"x": 2}) is True
    assert eval_expr(step, {"x": 1}, inputs={"c": False}, next_state={"x": 2}) is False
    # state bindings shadow nothing; inputs are a separate namespace
    assert eval_expr(c, {}, inputs={"c": True}) is True


def test_eval_unbound_raises():
    with pytest.raises(InternalError):
        eval_expr(ir.var("ghost", BOOL), {})
    with pytest.raises(InternalError):
        eval_expr(ir.next_var("x", BOOL), {"x": True})


def test_eval_accepts_state_objects():
    x = ir.var("x", bitvec(2))
    assert eval_expr(ir.bvadd(x, ir.bv_const(1, 2)), State({"x": 3})) == 0


# ---------------------------------------------------------------------------
# System validation


def _sys(vars=None, init=None, trans=None, props=None, halt=None):
    w = bitvec(2)
    x = ir.var("x", w)
    return TransitionSystem(
        vars=vars if vars is not None else (VarDecl("x", w, VarRole.STATE),),
        init=init if init is not None else ir.eq(x, ir.bv_const(0, 2)),
        trans=trans if trans is not None else ir.eq(ir.next_var("x", w), x),
        props=props if props is not None else (Prop("p", ir.bvule(x, ir.bv_const(3, 2))),),
        halt=halt if halt is not None else ir.FALSE,
    )


def test_validate_ok():
    _sys().validate()


def test_variable_lists_are_computed_once_and_not_compared():
    u = VarDecl("u", BOOL, VarRole.INPUT)
    a, b = _sys(vars=(VarDecl("x", bitvec(2), VarRole.STATE), u)), _sys()
    assert a.state_vars is a.state_vars and a.input_vars is a.input_vars
    assert (a.state_bits, a.input_bits) == (2, 1)
    assert [v.name for v in a.input_vars] == ["u"]
    # b has read its lists, c has not: equality and hashing see fields only
    b.state_bits, b.input_bits
    c = _sys()
    assert b == c and hash(b) == hash(c)
    assert replace(b, name="other") == c


def test_validate_accepts_nesting_at_the_bound():
    nested_not(ir.MAX_NESTING).validate()


@pytest.mark.parametrize("depth", [ir.MAX_NESTING + 1, 600, 3000])
def test_validate_rejects_nesting_past_the_bound(depth):
    with pytest.raises(ValidationError, match="prop deep is nested deeper than 200 levels"):
        nested_not(depth).validate()


def test_validate_bounds_every_section():
    deep = not_chain(600)
    w = bitvec(2)
    x = ir.var("x", w)
    with pytest.raises(ValidationError, match="init is nested"):
        _sys(init=ir.and_(deep, ir.eq(x, ir.bv_const(0, 2))))
    with pytest.raises(ValidationError, match="trans is nested"):
        _sys(trans=ir.and_(deep, ir.eq(ir.next_var("x", w), x)))
    with pytest.raises(ValidationError, match="halt is nested"):
        _sys(halt=deep)


def test_validate_duplicate_declaration():
    w = bitvec(2)
    with pytest.raises(ValidationError, match="duplicate"):
        _sys(vars=(VarDecl("x", w, VarRole.STATE), VarDecl("x", w, VarRole.INPUT)))


def test_validate_needs_state_var():
    with pytest.raises(ValidationError, match="state variable"):
        _sys(
            vars=(VarDecl("c", BOOL, VarRole.INPUT),),
            init=ir.TRUE,
            trans=ir.TRUE,
            props=(Prop("p", ir.TRUE),),
        )


def test_validate_needs_props():
    with pytest.raises(ValidationError, match="property"):
        _sys(props=())


def test_validate_duplicate_prop_names():
    with pytest.raises(ValidationError, match="duplicate property"):
        _sys(props=(Prop("p", ir.TRUE), Prop("p", ir.FALSE)))


def test_validate_input_not_allowed_in_init():
    w = bitvec(2)
    with pytest.raises(ValidationError, match="input variable"):
        _sys(
            vars=(VarDecl("x", w, VarRole.STATE), VarDecl("c", BOOL, VarRole.INPUT)),
            init=ir.var("c", BOOL),
        )


def test_validate_input_not_allowed_in_prop():
    w = bitvec(2)
    with pytest.raises(ValidationError, match="input variable"):
        _sys(
            vars=(VarDecl("x", w, VarRole.STATE), VarDecl("c", BOOL, VarRole.INPUT)),
            props=(Prop("p", ir.var("c", BOOL)),),
        )


def test_validate_next_outside_trans():
    w = bitvec(2)
    nx = ir.next_var("x", w)
    with pytest.raises(ValidationError, match="next"):
        _sys(init=ir.eq(nx, ir.bv_const(0, 2)))
    with pytest.raises(ValidationError, match="next"):
        _sys(halt=ir.eq(nx, ir.bv_const(0, 2)))


def test_validate_next_must_name_state_var():
    w = bitvec(2)
    with pytest.raises(ValidationError, match="state variable"):
        _sys(trans=ir.eq(ir.next_var("nope", w), ir.bv_const(0, 2)))


def test_validate_undeclared_and_sort_mismatch():
    with pytest.raises(ValidationError, match="undeclared"):
        _sys(init=ir.var("ghost", BOOL))
    # x declared (bv 2), used as (bv 3)
    bad = ir.eq(ir.var("x", bitvec(3)), ir.bv_const(0, 3))
    with pytest.raises(SortError, match="declared sort"):
        _sys(init=bad)


def test_validate_sections_must_be_boolean():
    x = ir.var("x", bitvec(2))
    with pytest.raises(ValidationError, match="boolean"):
        _sys(init=x)


def test_invalid_identifier_rejected():
    with pytest.raises(ValidationError, match="identifier"):
        VarDecl("x@1", bitvec(2), VarRole.STATE)
    with pytest.raises(ValidationError, match="identifier"):
        VarDecl("2x", BOOL, VarRole.STATE)


# ---------------------------------------------------------------------------
# Per-system slot


def test_per_system_slot_under_threads_querying_different_systems():
    get = ir.per_system(lambda sys: [sys])
    systems = [saturating(), halt_sink(), moving_halt(), deadlock_chain()]
    wrong = []

    def work(sys):
        for _ in range(20000):
            if get(sys)[0] is not sys:
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


# ---------------------------------------------------------------------------
# States and traces


def test_state_mapping_behavior():
    s = State({"b": 2, "a": True})
    assert s.names() == ("a", "b")
    assert s["a"] is True and s["b"] == 2
    assert "a" in s and "z" not in s
    with pytest.raises(KeyError):
        s["z"]
    assert s == State({"a": True, "b": 2})
    assert hash(s) == hash(State({"a": True, "b": 2}))
    assert s != State({"a": True, "b": 3})


def test_states_equal_demands_same_names():
    assert states_equal(State({"x": 1}), State({"x": 1}))
    assert not states_equal(State({"x": 1}), State({"x": 2}))
    with pytest.raises(InternalError):
        states_equal(State({"x": 1}), State({"y": 1}))


def test_trace_shape_checks():
    a, b = State({"x": 0}), State({"x": 1})
    t = Trace((a, b), (State({}),))
    assert len(t) == 2
    with pytest.raises(ValidationError):
        Trace((), ())
    with pytest.raises(ValidationError):
        Trace((a, b), ())


# ---------------------------------------------------------------------------
# Replay


def _counter(bug_at=3):
    w = bitvec(2)
    x = ir.var("x", w)
    return TransitionSystem(
        vars=(VarDecl("x", w, VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, 2)),
        trans=ir.eq(ir.next_var("x", w), ir.bvadd(x, ir.bv_const(1, 2))),
        props=(Prop("p", ir.not_(ir.eq(x, ir.bv_const(bug_at, 2)))),),
        halt=ir.FALSE,
    )


def _trace(*xs, violated=None):
    return Trace(
        tuple(State({"x": v}) for v in xs),
        tuple(State({}) for _ in xs[1:]),
        violated,
    )


def test_replay_valid_trace():
    v = replay_trace(_counter(), _trace(0, 1, 2, 3, violated="p"))
    assert v.ok and bool(v)


def test_replay_rejects_bad_init():
    v = replay_trace(_counter(), _trace(1, 2))
    assert not v and v.index == 0 and "init" in v.reason


def test_replay_rejects_bad_step():
    v = replay_trace(_counter(), _trace(0, 2))
    assert not v and "trans" in v.reason


def test_replay_rejects_wrong_bindings():
    sys = _counter()
    bad = Trace((State({"y": 0}),), ())
    v = replay_trace(sys, bad)
    assert not v and "binds" in v.reason


def test_replay_rejects_out_of_range_value():
    v = replay_trace(_counter(), Trace((State({"x": 9}),), ()))
    assert not v and "out of range" in v.reason


def test_replay_checks_claimed_violation():
    # final state does not violate the named property
    v = replay_trace(_counter(), _trace(0, 1, violated="p"))
    assert not v
    # unknown property name
    v = replay_trace(_counter(), _trace(0, 1, 2, 3, violated="nope"))
    assert not v


def test_replay_checks_input_bindings():
    w = bitvec(2)
    x = ir.var("x", w)
    c = ir.var("c", BOOL)
    sys = TransitionSystem(
        vars=(VarDecl("x", w, VarRole.STATE), VarDecl("c", BOOL, VarRole.INPUT)),
        init=ir.eq(x, ir.bv_const(0, 2)),
        trans=ir.eq(ir.next_var("x", w), ir.ite(c, ir.bvadd(x, ir.bv_const(1, 2)), x)),
        props=(Prop("p", ir.TRUE),),
        halt=ir.FALSE,
    )
    good = Trace((State({"x": 0}), State({"x": 1})), (State({"c": True}),))
    assert replay_trace(sys, good)
    wrong_input = Trace((State({"x": 0}), State({"x": 1})), (State({"c": False}),))
    assert not replay_trace(sys, wrong_input)
    missing_input = Trace((State({"x": 0}), State({"x": 1})), (State({}),))
    assert not replay_trace(sys, missing_input)
