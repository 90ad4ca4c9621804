"""Query construction and SMT-LIB serialization."""

from __future__ import annotations

from pathlib import Path

import pytest

from kindmc import ir
from kindmc.concrete import lint_halt_sink
from kindmc.encoder import (
    Marker,
    QueryKind,
    Target,
    TimedVar,
    encode_base_case,
    encode_extended_base_case,
    encode_forward_condition,
    encode_inductive_step,
    props_conj,
    serialize_smtlib,
    smt_expr,
    state_equals,
    timed,
)
from kindmc.errors import InternalError
from kindmc.ir import BOOL, Prop, State, Trace, TransitionSystem, VarDecl, VarRole, bitvec

from systems import halt_sink, moving_halt, saturating

GOLDEN = Path(__file__).resolve().parent / "golden"


def _tiny():
    """2-bit counter with one bool input; property: x never hits 3."""
    w = bitvec(2)
    x = ir.var("x", w)
    c = ir.var("c", BOOL)
    sys = TransitionSystem(
        vars=(VarDecl("x", w, VarRole.STATE), VarDecl("c", BOOL, VarRole.INPUT)),
        init=ir.eq(x, ir.bv_const(0, 2)),
        trans=ir.eq(
            ir.next_var("x", w), ir.ite(c, ir.bvadd(x, ir.bv_const(1, 2)), x)
        ),
        props=(Prop("p", ir.not_(ir.eq(x, ir.bv_const(3, 2)))),),
        halt=ir.FALSE,
    )
    sys.validate()
    return sys


def _target(tid=1, x=2):
    first = State({"x": x})
    return Target(first, Trace((first,), ()), born_at_k=1, tid=tid)


# ---------------------------------------------------------------------------
# Timing rewrite


def test_timed_var_and_next():
    w = bitvec(2)
    e = ir.eq(ir.next_var("x", w), ir.bvadd(ir.var("x", w), ir.bv_const(1, 2)))
    t = timed(e, 3)
    assert t == ir.eq(ir.var("x@4", w), ir.bvadd(ir.var("x@3", w), ir.bv_const(1, 2)))
    # constants are untouched and shared
    assert timed(ir.TRUE, 5) is ir.TRUE


def test_timed_var_name_property():
    tv = TimedVar("x", 4, bitvec(3), VarRole.STATE)
    assert tv.name == "x@4"


def test_state_equals_builds_conjunction():
    sys = _tiny()
    e = state_equals(sys, 2, State({"x": 3}))
    assert e == ir.eq(ir.var("x@2", bitvec(2)), ir.bv_const(3, 2))
    with pytest.raises(InternalError, match="missing variable"):
        state_equals(sys, 1, State({"y": 0}))


def test_props_conj_folds_single():
    sys = _tiny()
    assert props_conj(sys) == sys.props[0].expr


# ---------------------------------------------------------------------------
# Declarations


def test_decls_are_step_major_and_inputs_stop_early():
    q = encode_base_case(_tiny(), 3)
    assert [tv.name for tv in q.decls] == ["x@1", "c@1", "x@2", "c@2", "x@3"]
    assert [tv.role for tv in q.decls] == [
        VarRole.STATE,
        VarRole.INPUT,
        VarRole.STATE,
        VarRole.INPUT,
        VarRole.STATE,
    ]


def test_depth_must_be_positive():
    with pytest.raises(InternalError):
        encode_base_case(_tiny(), 0)
    with pytest.raises(InternalError):
        encode_inductive_step(_tiny(), -1)


# ---------------------------------------------------------------------------
# Base case structure


def test_base_markers_and_defs():
    q = encode_base_case(_tiny(), 2)
    assert q.kind is QueryKind.BASE
    assert q.markers == (Marker("viol@@1", 1), Marker("viol@@2", 2))
    names = [n for n, _ in q.marker_defs]
    assert names == ["path@@1", "path@@2", "viol@@1", "viol@@2"]
    defs = dict(q.marker_defs)
    assert defs["path@@1"] is ir.TRUE
    # path@@2 chains path@@1 with the step-1 transition
    assert defs["path@@2"] == ir.and_(ir.var("path@@1", BOOL), timed(_tiny().trans, 1))
    # the assertion pins the initial state and requires some step to fire
    assert q.assertion.args[0] == timed(_tiny().init, 1)


def test_extended_base_with_no_targets_matches_base():
    sys = _tiny()
    for k in (1, 2, 4):
        b = encode_base_case(sys, k)
        e = encode_extended_base_case(sys, k, ())
        assert e.kind is QueryKind.EXTENDED_BASE
        assert e.assertion == b.assertion
        assert e.markers == b.markers
        assert e.marker_defs == b.marker_defs
        assert e.decls == b.decls


def test_extended_base_adds_target_markers():
    sys = _tiny()
    t = _target(tid=7, x=2)
    q = encode_extended_base_case(sys, 2, (t,))
    assert q.targets == (t,)
    assert Marker("tgt7@@1", 1, 7) in q.markers
    assert Marker("tgt7@@2", 2, 7) in q.markers
    defs = dict(q.marker_defs)
    assert defs["tgt7@@1"] == ir.eq(ir.var("x@1", bitvec(2)), ir.bv_const(2, 2))
    # violation markers sit in front of target markers
    names = [n for n, _ in q.marker_defs]
    assert names.index("viol@@1") < names.index("tgt7@@1")


def test_target_only_recheck_keeps_viol_defs_but_not_in_assertion():
    sys = _tiny()
    q = encode_extended_base_case(sys, 2, (_target(),), include_violations=False)
    assert not q.include_violations
    # defining equalities remain (the decoder may still read them)...
    assert "viol@@1" in dict(q.marker_defs)
    # ...but no viol symbol appears in the assertion
    used = {n.name for n in ir.walk(q.assertion) if n.op == "var"}
    assert "viol@@1" not in used and "viol@@2" not in used
    assert "tgt1@@1" in used and "tgt1@@2" in used


# ---------------------------------------------------------------------------
# Forward and inductive structure


def test_forward_condition_shape():
    sys = halt_sink()
    q = encode_forward_condition(sys, 3)
    assert q.kind is QueryKind.FORWARD
    assert q.markers == () and q.marker_defs == ()
    parts = q.assertion.args
    assert parts[0] == timed(sys.init, 1)
    assert parts[1] == timed(sys.trans, 1)
    assert parts[2] == timed(sys.trans, 2)
    assert parts[3] == ir.not_(timed(sys.halt, 3))


def test_inductive_step_at_one_is_negated_property():
    sys = _tiny()
    q = encode_inductive_step(sys, 1)
    assert q.assertion == ir.not_(timed(props_conj(sys), 1))


def test_inductive_step_shape():
    sys = _tiny()
    q = encode_inductive_step(sys, 3)
    phi = props_conj(sys)
    parts = q.assertion.args
    assert parts[0] == timed(sys.trans, 1)
    assert parts[1] == timed(sys.trans, 2)
    assert parts[2] == timed(phi, 1)
    assert parts[3] == timed(phi, 2)
    assert parts[4] == ir.not_(timed(phi, 3))


# ---------------------------------------------------------------------------
# Serialization


def test_smt_expr_forms():
    w = bitvec(2)
    x = ir.var("x@1", w)
    assert smt_expr(ir.bv_const(2, 2)) == "#b10"
    assert smt_expr(ir.TRUE) == "true"
    assert smt_expr(ir.implies(ir.var("a", BOOL), ir.var("b", BOOL))) == "(=> a b)"
    assert smt_expr(ir.iff(ir.var("a", BOOL), ir.var("b", BOOL))) == "(= a b)"
    assert smt_expr(ir.eq(x, ir.bvadd(x, ir.bv_const(1, 2)))) == "(= x@1 (bvadd x@1 #b01))"
    with pytest.raises(InternalError, match="timed away"):
        smt_expr(ir.next_var("x", w))


def test_serialize_matches_golden():
    doc = serialize_smtlib(encode_base_case(_tiny(), 2))
    assert doc == (GOLDEN / "base_k2.smt2").read_text(encoding="utf-8")


def test_serialize_is_deterministic():
    sys = _tiny()
    q1 = encode_inductive_step(sys, 3)
    q2 = encode_inductive_step(sys, 3)
    assert serialize_smtlib(q1) == serialize_smtlib(q2)


def test_serialize_headers():
    doc = serialize_smtlib(encode_forward_condition(_tiny(), 2))
    lines = doc.splitlines()
    assert lines[0] == "(set-option :produce-models true)"
    assert lines[1] == "(set-logic QF_BV)"
    assert lines[2] == "; forward k=2"
    assert lines[-1] == "(exit)"
    assert "(check-sat)" in lines


# ---------------------------------------------------------------------------
# Halt-sink lint


def test_lint_halt_sink_positive():
    assert lint_halt_sink(halt_sink()) is True
    # no halting states at all is vacuously a sink arrangement
    assert lint_halt_sink(saturating()) is True


def test_lint_halt_sink_negative():
    assert lint_halt_sink(moving_halt()) is False


def test_lint_halt_sink_gives_up_over_cap():
    assert lint_halt_sink(halt_sink(), bit_cap=2) is None
