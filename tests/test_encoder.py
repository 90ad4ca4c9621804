"""Query construction and SMT-LIB serialization."""

from __future__ import annotations

import threading
from pathlib import Path
from sys import getswitchinterval, setswitchinterval

import pytest

import kindmc.encoder as encoder_mod
from kindmc import ir
from kindmc.concrete import HALT_SINK_BIT_CAP, lint_halt_sink
from kindmc.encoder import (
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
from kindmc.engine import run_extended
from kindmc.errors import InternalError
from kindmc.frontend import accumulator, chain_bug, const_check, diamond_parity
from kindmc.ir import BOOL, Prop, State, Trace, TransitionSystem, VarDecl, VarRole, bitvec

from randsys import corpus
from systems import (
    deadlock_chain,
    halt_sink,
    identity_spurious,
    input_chain,
    moving_halt,
    saturating,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _tiny():
    """2-bit counter with one bool input; property: x never hits 3."""
    w = bitvec(2)
    x = ir.var("x", w)
    c = ir.var("c", BOOL)
    return TransitionSystem(
        vars=(VarDecl("x", w, VarRole.STATE), VarDecl("c", BOOL, VarRole.INPUT)),
        init=ir.eq(x, ir.bv_const(0, 2)),
        trans=ir.eq(
            ir.next_var("x", w), ir.ite(c, ir.bvadd(x, ir.bv_const(1, 2)), x)
        ),
        props=(Prop("p", ir.not_(ir.eq(x, ir.bv_const(3, 2)))),),
        halt=ir.FALSE,
    )


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
    tv = TimedVar("x", 4, bitvec(3))
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
        assert e.marker_defs == b.marker_defs
        assert e.decls == b.decls


def test_extended_base_adds_target_markers():
    sys = _tiny()
    t = _target(tid=7, x=2)
    q = encode_extended_base_case(sys, 2, (t,))
    assert q.targets == (t,)
    # path, then violation, then target definitions, each in step order
    names = [n for n, _ in q.marker_defs]
    assert names == ["path@@1", "path@@2", "viol@@1", "viol@@2", "tgt7@@1", "tgt7@@2"]
    defs = dict(q.marker_defs)
    assert defs["tgt7@@1"] == ir.eq(ir.var("x@1", bitvec(2)), ir.bv_const(2, 2))
    assert defs["tgt7@@2"] == ir.eq(ir.var("x@2", bitvec(2)), ir.bv_const(2, 2))


def test_target_only_recheck_keeps_viol_defs_but_not_in_assertion():
    sys = _tiny()
    q = encode_extended_base_case(sys, 2, (_target(),), include_violations=False)
    assert not q.include_violations
    # the definitions stay, so the SMT-LIB text does not change...
    assert "viol@@1" in dict(q.marker_defs)
    # ...but no viol symbol appears in the assertion
    used = {n.name for n in ir.walk(q.assertion) if n.op == "var"}
    assert "viol@@1" not in used and "viol@@2" not in used
    assert "tgt1@@1" in used and "tgt1@@2" in used


def test_a_target_id_used_twice_is_refused_at_encode_time():
    # before, the two targets' markers shared a name, and the enum
    # backend's re-check of the satisfying model failed
    sys = chain_bug(9)
    engine_target = run_extended(sys).targets[0]
    assert engine_target.tid == 1
    hand_made = _target(tid=1, x=3)
    for targets in ((engine_target, hand_made), (hand_made, engine_target)):
        with pytest.raises(InternalError, match="target id 1 is used by two targets"):
            encode_extended_base_case(sys, 2, targets)


# ---------------------------------------------------------------------------
# Forward and inductive structure


def test_forward_condition_shape():
    sys = halt_sink()
    q = encode_forward_condition(sys, 3)
    assert q.kind is QueryKind.FORWARD
    assert q.marker_defs == ()
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
# Timed subterms shared across queries


def _queries(sys, k):
    """One query of every shape at depth k."""
    zero = State({d.name: False if d.sort.is_bool else 0 for d in sys.state_vars})
    t1, t2 = Target(zero, Trace((zero,), ()), 1, 1), Target(zero, Trace((zero,), ()), 1, 2)
    return (
        encode_base_case(sys, k),
        encode_extended_base_case(sys, k, (t1, t2)),
        encode_extended_base_case(sys, k, (t1,), include_violations=False),
        encode_forward_condition(sys, k),
        encode_inductive_step(sys, k),
    )


def test_warm_and_cold_builds_serialize_identically(monkeypatch):
    systems = [
        _tiny(), saturating(), halt_sink(), identity_spurious(), moving_halt(),
        deadlock_chain(), input_chain(6), chain_bug(9), const_check(8),
        diamond_parity(6), accumulator(4, "safe"), accumulator(4, "buggy"),
    ] + corpus(11, 200)
    ks = (1, 2, 3, 5)
    cold = []
    for sys in systems:
        for k in ks:
            for i in range(5):
                monkeypatch.setattr(encoder_mod, "_terms", ir.per_system(encoder_mod._TimedTerms))
                cold.append(serialize_smtlib(_queries(sys, k)[i]))
    # warm: deepest first, so shallower queries read subterms built earlier
    warm = {}
    for sys in systems:
        for k in sorted(ks, reverse=True):
            for i, q in enumerate(_queries(sys, k)):
                warm[id(sys), k, i] = serialize_smtlib(q)
    assert cold == [warm[id(sys), k, i] for sys in systems for k in ks for i in range(5)]


def test_interleaved_systems_get_their_own_subterms():
    a, b = _tiny(), saturating()
    for sys in (a, b, a):
        q = encode_forward_condition(sys, 3)
        assert q.assertion == ir.conj([
            timed(sys.init, 1),
            timed(sys.trans, 1),
            timed(sys.trans, 2),
            ir.not_(timed(sys.halt, 3)),
        ])
        q = encode_inductive_step(sys, 2)
        phi = props_conj(sys)
        assert q.assertion == ir.conj(
            [timed(sys.trans, 1), timed(phi, 1), ir.not_(timed(phi, 2))]
        )



def test_threads_querying_different_systems_get_their_own_subterms():
    systems = [_tiny(), saturating(), halt_sink(), moving_halt()]
    wrong = []

    def work(sys):
        for _ in range(20000):
            if encoder_mod._terms(sys)._sections["trans"] is not sys.trans:
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
    for sys in systems:
        assert encode_inductive_step(sys, 2).assertion.args[0] == timed(sys.trans, 1)


def test_equal_but_distinct_systems_do_not_share_subterms():
    a, b = _tiny(), _tiny()
    assert a == b and a is not b
    ta = encode_forward_condition(a, 2).assertion.args[1]
    tb = encode_forward_condition(b, 2).assertion.args[1]
    assert ta == tb and ta is not tb


def test_queries_of_one_system_share_timed_trans():
    sys = _tiny()
    fwd = encode_forward_condition(sys, 4).assertion.args
    ind = encode_inductive_step(sys, 3).assertion.args
    base = dict(encode_base_case(sys, 3).marker_defs)
    assert fwd[1] is ind[0] is base["path@@2"].args[1]
    assert fwd[2] is ind[1] is base["path@@3"].args[1]
    assert ind[4] is base["viol@@3"]


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
    big = accumulator(16, "safe")
    assert big.state_bits > HALT_SINK_BIT_CAP
    assert lint_halt_sink(big) is None
