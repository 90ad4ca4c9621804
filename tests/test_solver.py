"""Solver backends: path search, naive enumeration, external process.

The enum backend's path search is checked for status agreement against the
naive assignment enumerator on random systems, and every satisfiable base
answer must decode to a trace the reference semantics accept.
"""

from __future__ import annotations

import pytest

from kindmc import ir
from kindmc import solver as solver_mod
from kindmc.concrete import _domain
from kindmc.encoder import (
    Marker,
    Target,
    encode_base_case,
    encode_extended_base_case,
    encode_forward_condition,
    encode_inductive_step,
)
from kindmc.errors import ConfigError, InternalError, ProtocolError
from kindmc.frontend import chain_bug
from kindmc.ir import State, Trace, eval_expr, replay_trace
from kindmc.solver import (
    Solver,
    SolverConfig,
    SolverStatus,
    _naive_check,
    _parse_value_response,
    check,
    decode_model,
    resolve_config,
)

from conftest import fake_solver
from randsys import corpus
from systems import deadlock_chain, input_chain, saturating


def _zero_state(sys) -> State:
    return State({d.name: _domain(d.sort)[0] for d in sys.state_vars})


def _queries(sys, k):
    t = Target(_zero_state(sys), Trace((_zero_state(sys),), ()), 1, 1)
    return [
        encode_base_case(sys, k),
        encode_extended_base_case(sys, k, (t,)),
        encode_extended_base_case(sys, k, (t,), include_violations=False),
        encode_forward_condition(sys, k),
        encode_inductive_step(sys, k),
    ]


# ---------------------------------------------------------------------------
# Path search vs naive enumeration


@pytest.fixture(scope="module")
def agreement_corpus():
    return corpus(seed=31, n=25, max_state_bits=4)


def test_structured_agrees_with_naive(agreement_corpus):
    cfg = SolverConfig()
    solver = Solver(cfg)
    for sys in agreement_corpus:
        for k in (1, 3):
            for q in _queries(sys, k):
                structured = solver.check(q)
                naive = _naive_check(q, cfg)
                assert structured.status is naive.status, (
                    f"{sys.name} {q.kind.value} k={k}:"
                    f" {structured.status} vs {naive.status}"
                )


def test_sat_base_models_decode_to_valid_traces(agreement_corpus):
    solver = Solver(SolverConfig())
    for sys in agreement_corpus:
        for k in (1, 3):
            q = encode_base_case(sys, k)
            v = solver.check(q)
            if v.status is not SolverStatus.SAT:
                continue
            dec = decode_model(q, v.model)
            assert dec.matched_target is None
            assert 1 <= dec.depth <= k
            assert len(dec.trace.states) == dec.depth
            assert replay_trace(sys, dec.trace), sys.name


def test_sat_inductive_models_are_bad_suffixes(agreement_corpus):
    solver = Solver(SolverConfig())
    phi_of = lambda sys: ir.conj([p.expr for p in sys.props])
    for sys in agreement_corpus:
        q = encode_inductive_step(sys, 3)
        v = solver.check(q)
        if v.status is not SolverStatus.SAT:
            continue
        dec = decode_model(q, v.model)
        assert len(dec.trace.states) == 3
        # not anchored at init, but every step must be a real transition
        assert replay_trace(sys, dec.trace, require_init=False), sys.name
        phi = phi_of(sys)
        assert eval_expr(phi, dec.trace.states[0]) is True
        assert eval_expr(phi, dec.trace.states[1]) is True
        assert eval_expr(phi, dec.trace.states[2]) is False
        assert dec.trace.violated_prop is not None


def test_sat_forward_models_are_initial_paths(agreement_corpus):
    solver = Solver(SolverConfig())
    for sys in agreement_corpus:
        q = encode_forward_condition(sys, 3)
        v = solver.check(q)
        if v.status is not SolverStatus.SAT:
            continue
        dec = decode_model(q, v.model)
        assert len(dec.trace.states) == 3
        assert replay_trace(sys, dec.trace), sys.name


def test_base_model_padding_after_early_violation():
    # the violation sits 3 states in and the system deadlocks right there,
    # so a k=5 query must pad: repeated last state, inputs at rest
    sys = deadlock_chain()
    q = encode_base_case(sys, 5)
    v = check(q)
    assert v.status is SolverStatus.SAT
    assert v.model["x@3"] == 2
    assert v.model["x@4"] == 2 and v.model["x@5"] == 2
    dec = decode_model(q, v.model)
    assert dec.depth == 3
    assert [s["x"] for s in dec.trace.states] == [0, 1, 2]
    assert replay_trace(sys, dec.trace)


def test_deadlocked_forward_is_unsat():
    # no 4-state path exists at all
    v = check(encode_forward_condition(deadlock_chain(), 4))
    assert v.status is SolverStatus.UNSAT


def test_input_values_survive_into_models():
    sys = input_chain(2)
    q = encode_base_case(sys, 3)
    v = check(q)
    assert v.status is SolverStatus.SAT
    dec = decode_model(q, v.model)
    assert [s["x"] for s in dec.trace.states] == [0, 1, 2]
    assert [u["c"] for u in dec.trace.inputs] == [True, True]
    assert replay_trace(sys, dec.trace)


def test_target_hit_decodes_with_target_id():
    sys = chain_bug(5)
    goal = State({"x": 3})
    t = Target(goal, Trace((goal,), ()), 1, 9)
    q = encode_extended_base_case(sys, 4, (t,), include_violations=False)
    v = check(q)
    assert v.status is SolverStatus.SAT
    dec = decode_model(q, v.model)
    assert dec.matched_target == 9
    assert dec.depth == 4
    assert dec.trace.states[-1] == goal
    assert dec.trace.violated_prop is None


# ---------------------------------------------------------------------------
# Formulas are built on demand


@pytest.mark.parametrize("sys", [chain_bug(5), saturating()], ids=lambda s: s.name)
def test_enum_builds_a_formula_only_for_sat_answers(sys):
    statuses = set()
    for k in (1, 2, 3):
        for q in _queries(sys, k):
            v = check(q)
            statuses.add(v.status)
            if v.status is SolverStatus.UNSAT:
                assert "_formula" not in vars(q) and "decls" not in vars(q)
            else:
                # the re-check read the formula and filled in every marker
                assert "_formula" in vars(q)
                assert {m.name for m in q.markers} <= set(v.model)
                assert eval_expr(q.assertion, v.model) is True
    assert statuses == {SolverStatus.SAT, SolverStatus.UNSAT}


def test_enum_model_that_fails_the_recheck_raises(monkeypatch):
    # x=0 violates nothing, so this "path" cannot satisfy the base case
    monkeypatch.setattr(solver_mod, "find_path", lambda *args, **kwargs: ([(0,)], []))
    with pytest.raises(InternalError, match="model fails re-check for base k=2"):
        check(encode_base_case(chain_bug(5), 2))


# ---------------------------------------------------------------------------
# Naive fallback


def test_naive_used_when_state_space_exceeds_cap():
    # 30 state bits break the executor cap, but a k=1 query is 30 decl bits,
    # over the 24-bit naive budget too: unknown with advice
    w = ir.bitvec(30)
    x = ir.var("x", w)
    sys = ir.TransitionSystem(
        vars=(ir.VarDecl("x", w, ir.VarRole.STATE),),
        init=ir.eq(x, ir.const(0, w)),
        trans=ir.eq(ir.next_var("x", w), x),
        props=(ir.Prop("p", ir.TRUE),),
        halt=ir.FALSE,
    )
    sys.validate()
    v = check(encode_base_case(sys, 1))
    assert v.status is SolverStatus.UNKNOWN
    assert "external solver" in v.diagnostic


def test_naive_within_budget_still_answers():
    sys = chain_bug(2)  # 2 state bits, no inputs
    # a 1-bit cap admits neither the executor nor the 2-bit k=1 query
    v = Solver(SolverConfig(enum_bit_cap=1)).check(encode_base_case(sys, 1))
    assert v.status is SolverStatus.UNKNOWN
    # within its budget the naive enumerator answers, and its model decodes
    # to a trace the reference semantics accept
    q = encode_base_case(sys, 3)
    naive = _naive_check(q, SolverConfig())
    assert naive.status is SolverStatus.SAT
    dec = decode_model(q, naive.model)
    assert replay_trace(sys, dec.trace)


def _wide_input_system():
    """2 state bits and a 23-bit input: 25 bits per step, one over the cap
    of 24, so the executor is refused. A k=1 query has no inputs and needs
    2 bits; a k=2 query needs 2 + 23 + 2 = 27."""
    ws, wi = ir.bitvec(2), ir.bitvec(23)
    x, c = ir.var("x", ws), ir.var("c", wi)
    sys = ir.TransitionSystem(
        vars=(ir.VarDecl("x", ws, ir.VarRole.STATE), ir.VarDecl("c", wi, ir.VarRole.INPUT)),
        init=ir.eq(x, ir.const(0, ws)),
        trans=ir.eq(
            ir.next_var("x", ws),
            ir.ite(ir.eq(c, ir.const(0, wi)), x, ir.bvadd(x, ir.const(1, ws))),
        ),
        props=(ir.Prop("nonzero", ir.not_(ir.eq(x, ir.const(0, ws)))),),
        halt=ir.FALSE,
    )
    sys.validate()
    return sys


def test_naive_answers_when_inputs_break_the_cap():
    sys = _wide_input_system()
    solver = Solver(SolverConfig(enum_bit_cap=24))
    q = encode_base_case(sys, 1)
    v = solver.check(q)
    assert v.status is SolverStatus.SAT
    assert decode_model(q, v.model).trace.violated_prop == "nonzero"
    assert solver.check(encode_inductive_step(sys, 1)).status is SolverStatus.SAT
    assert solver.check(encode_forward_condition(sys, 1)).status is SolverStatus.SAT
    v = solver.check(encode_base_case(sys, 2))
    assert v.status is SolverStatus.UNKNOWN
    assert "external solver" in v.diagnostic


# ---------------------------------------------------------------------------
# Decoding details


def _decode_query():
    sys = chain_bug(5)  # x is (bv 3), prop below_limit fails at x=5
    goal = State({"x": 3})
    t = Target(goal, Trace((goal,), ()), 1, 1)
    return sys, encode_extended_base_case(sys, 3, (t,))


def _model(q, xs, **markers):
    model = {f"x@{i + 1}": v for i, v in enumerate(xs)}
    for m in q.markers:
        model.setdefault(m.name, False)
    for i in range(1, q.k + 1):
        model.setdefault(f"path@@{i}", True)
    model.update(markers)
    return model


def test_decode_prefers_shallower_events():
    sys, q = _decode_query()
    model = _model(q, [5, 3, 5], **{"viol@@1": True, "viol@@3": True, "tgt1@@2": True})
    dec = decode_model(q, model)
    assert dec.depth == 1 and dec.matched_target is None
    assert dec.trace.violated_prop == "below_limit"


def test_decode_prefers_violations_over_targets_at_same_depth():
    sys, q = _decode_query()
    model = _model(q, [0, 5, 0], **{"viol@@2": True, "tgt1@@2": True})
    dec = decode_model(q, model)
    assert dec.depth == 2
    assert dec.matched_target is None
    assert dec.trace.violated_prop == "below_limit"


def test_decode_ignores_markers_past_a_broken_path():
    sys, q = _decode_query()
    model = _model(q, [0, 3, 5], **{"tgt1@@2": True, "viol@@3": True})
    model["path@@2"] = False
    model["path@@3"] = False
    with pytest.raises(ProtocolError, match="no fired marker"):
        decode_model(q, model)
    model["path@@3"] = True  # deeper marker survives on its own path flag
    dec = decode_model(q, model)
    assert dec.depth == 3 and dec.trace.violated_prop == "below_limit"


def test_decode_rejects_viol_marker_without_violation():
    sys, q = _decode_query()
    model = _model(q, [0, 0, 0], **{"viol@@2": True})
    with pytest.raises(ProtocolError, match="violates no property"):
        decode_model(q, model)


def test_decode_rejects_missing_state_value():
    sys, q = _decode_query()
    model = _model(q, [0, 0, 5], **{"viol@@3": True})
    del model["x@2"]
    with pytest.raises(ProtocolError, match="no value for x@2"):
        decode_model(q, model)


# ---------------------------------------------------------------------------
# Configuration resolution


def test_resolve_default_is_enum(monkeypatch):
    monkeypatch.delenv("KINDMC_SOLVER", raising=False)
    cfg = resolve_config()
    assert cfg.backend == "enum" and cfg.command == ()


def test_resolve_explicit_enum_beats_env(monkeypatch):
    monkeypatch.setenv("KINDMC_SOLVER", "z5 --smt2")
    assert resolve_config("enum").backend == "enum"


def test_resolve_env_supplies_external(monkeypatch):
    monkeypatch.setenv("KINDMC_SOLVER", "z5 --smt2 --in")
    cfg = resolve_config()
    assert cfg.backend == "external"
    assert cfg.command == ("z5", "--smt2", "--in")


def test_resolve_env_accepts_prefix_form(monkeypatch):
    monkeypatch.setenv("KINDMC_SOLVER", "external:z5 --in")
    assert resolve_config().command == ("z5", "--in")


def test_resolve_flag_beats_env(monkeypatch):
    monkeypatch.setenv("KINDMC_SOLVER", "ignored")
    cfg = resolve_config("external:mysolver --fast")
    assert cfg.command == ("mysolver", "--fast")


def test_resolve_empty_command_rejected(monkeypatch):
    monkeypatch.delenv("KINDMC_SOLVER", raising=False)
    with pytest.raises(ConfigError, match="empty"):
        resolve_config("external:")
    with pytest.raises(ConfigError, match="empty"):
        resolve_config("external:   ")


def test_resolve_carries_options(monkeypatch):
    monkeypatch.delenv("KINDMC_SOLVER", raising=False)
    cfg = resolve_config("enum", timeout_ms=1234, enum_bit_cap=9)
    assert cfg.timeout_ms == 1234 and cfg.enum_bit_cap == 9


# ---------------------------------------------------------------------------
# External backend


def _external(cmd: str, timeout_ms: int = 0) -> SolverConfig:
    return resolve_config(f"external:{cmd}", timeout_ms=timeout_ms)


def test_external_shim_agrees_with_enum(shim_cmd):
    enum_solver = Solver(SolverConfig())
    ext_solver = Solver(_external(shim_cmd))
    sys_ks = [(chain_bug(4), k) for k in (1, 3, 5)]
    sys_ks += [(deadlock_chain(), k) for k in (1, 3)]
    sys_ks += [(saturating(), 1), (saturating(), 2)]
    for sys, k in sys_ks:
        for q in _queries(sys, k):
            ve = enum_solver.check(q)
            vx = ext_solver.check(q)
            assert ve.status is vx.status, f"{sys.name} {q.kind.value} k={k}"
            if vx.status is SolverStatus.SAT:
                dec = decode_model(q, vx.model)
                if q.kind.value in ("base", "extended-base") and dec.matched_target is None:
                    assert replay_trace(sys, dec.trace)


def test_external_model_is_type_checked(shim_cmd):
    # the shim's answers pass the full re-check; the verdict keeps the model
    q = encode_base_case(chain_bug(3), 4)
    v = Solver(_external(shim_cmd)).check(q)
    assert v.status is SolverStatus.SAT
    assert set(tv.name for tv in q.decls) <= set(v.model)


def test_external_missing_command_is_config_error():
    cfg = _external("kindmc-test-no-such-binary-zz")
    with pytest.raises(ConfigError, match="not found"):
        Solver(cfg).check(encode_base_case(chain_bug(2), 1))


def test_external_garbage_output_is_unknown():
    v = Solver(_external(fake_solver("garbage"))).check(encode_base_case(chain_bug(2), 1))
    assert v.status is SolverStatus.UNKNOWN
    assert "no sat/unsat verdict" in v.diagnostic
    assert "flurble" in v.diagnostic


def test_external_silent_failure_is_unknown():
    v = Solver(_external(fake_solver("silent"))).check(encode_base_case(chain_bug(2), 1))
    assert v.status is SolverStatus.UNKNOWN
    assert "empty output" in v.diagnostic


def test_external_unreadable_model_is_unknown():
    v = Solver(_external(fake_solver("liar_sat"))).check(encode_base_case(chain_bug(2), 1))
    assert v.status is SolverStatus.UNKNOWN
    assert "unreadable" in v.diagnostic


def test_deeply_nested_value_response_is_unreadable():
    assert _parse_value_response("(" * 5000 + ")" * 5000) is None


def test_external_unknown_verdict_passes_through():
    v = Solver(_external(fake_solver("always_unknown"))).check(
        encode_base_case(chain_bug(2), 1)
    )
    assert v.status is SolverStatus.UNKNOWN
    assert "unknown" in v.diagnostic


def test_external_timeout_is_unknown():
    cfg = _external(fake_solver("sleeping"), timeout_ms=300)
    v = Solver(cfg).check(encode_base_case(chain_bug(2), 1))
    assert v.status is SolverStatus.UNKNOWN
    assert "timed out" in v.diagnostic


def test_solver_session_counts_calls():
    s = Solver(SolverConfig())
    assert s.calls == 0
    s.check(encode_base_case(chain_bug(2), 1))
    s.check(encode_base_case(chain_bug(2), 2))
    assert s.calls == 2
