"""Solver backends: path search, naive enumeration, external process.

The enum backend's path search is checked for status agreement against the
naive assignment enumerator on random systems, and every satisfiable base
answer must decode to a trace the reference semantics accept.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from kindmc import ir
from kindmc import solver as solver_mod
from kindmc.concrete import SystemExecutor, _domain
from kindmc.encoder import (
    Query,
    QueryKind,
    Target,
    encode_base_case,
    encode_extended_base_case,
    encode_forward_condition,
    encode_inductive_step,
)
from kindmc.engine import EngineConfig, TargetRecheck, compare, run_extended, run_plain
from kindmc.errors import ConfigError, InternalError, ProtocolError
from kindmc.frontend import chain_bug, const_check, diamond_parity, parse
from kindmc.ir import State, Trace, eval_expr, replay_trace
from kindmc.solver import (
    Solver,
    SolverConfig,
    SolverStatus,
    _naive_check,
    _parse_value_response,
    decode_model,
    resolve_config,
)

from conftest import fake_solver
from randsys import corpus
from systems import (
    deadlock_chain,
    definitional_props,
    halt_sink,
    identity_spurious,
    input_chain,
    moving_halt,
    saturating,
)


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
                naive = _naive_check(q)
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
            assert 1 <= len(dec.trace.states) <= k
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
        assert replay_trace(replace(sys, init=ir.TRUE), dec.trace), sys.name
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
    v = Solver(SolverConfig()).check(q)
    assert v.status is SolverStatus.SAT
    assert v.model["x@3"] == 2
    assert v.model["x@4"] == 2 and v.model["x@5"] == 2
    dec = decode_model(q, v.model)
    assert len(dec.trace.states) == 3
    assert [s["x"] for s in dec.trace.states] == [0, 1, 2]
    assert replay_trace(sys, dec.trace)


def test_deadlocked_forward_is_unsat():
    # no 4-state path exists at all
    v = Solver(SolverConfig()).check(encode_forward_condition(deadlock_chain(), 4))
    assert v.status is SolverStatus.UNSAT


def test_input_values_survive_into_models():
    sys = input_chain(2)
    q = encode_base_case(sys, 3)
    v = Solver(SolverConfig()).check(q)
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
    v = Solver(SolverConfig()).check(q)
    assert v.status is SolverStatus.SAT
    dec = decode_model(q, v.model)
    assert dec.matched_target == 9
    assert len(dec.trace.states) == 4
    assert dec.trace.states[-1] == goal
    assert dec.trace.violated_prop is None


# ---------------------------------------------------------------------------
# Formulas are built on demand


_REACH = (QueryKind.BASE, QueryKind.EXTENDED_BASE)


@pytest.mark.parametrize("sys", [chain_bug(5), saturating()], ids=lambda s: s.name)
def test_enum_builds_a_formula_only_for_sat_answers(sys):
    statuses = set()
    for k in (1, 2, 3):
        for q in _queries(sys, k):
            v = Solver(SolverConfig()).check(q)
            statuses.add(v.status)
            if v.status is SolverStatus.UNSAT:
                assert "_formula" not in vars(q) and "decls" not in vars(q)
                continue
            if q.kind in _REACH:
                # checked on its path: the formula waits for a read of the model
                assert v.decoded is not None
                assert "_formula" not in vars(q) and "decls" not in vars(q)
            model = v.model
            # the re-check read the formula and filled in every definition
            assert "_formula" in vars(q)
            assert {name for name, _ in q.marker_defs} <= set(model)
            assert eval_expr(q.assertion, model) is True
            assert v.model is model
    assert statuses == {SolverStatus.SAT, SolverStatus.UNSAT}


def test_enum_model_that_fails_the_recheck_raises(monkeypatch):
    # x=0 violates nothing, so this "path" cannot satisfy the base case
    monkeypatch.setattr(solver_mod, "_search", lambda ex, q: ([(0,)], []))
    with pytest.raises(InternalError, match="model fails re-check for base k=2"):
        Solver(SolverConfig()).check(encode_base_case(chain_bug(5), 2))


# chain_bug(5) counts 0, 1, 2, ... from 0 and fails at 5
_BAD_PATHS = {
    "starts_outside_init": [(1,), (2,), (3,), (4,), (5,)],
    "breaks_trans": [(0,), (1,), (5,)],
    "ends_at_a_non_goal": [(0,), (1,), (2,)],
}


@pytest.mark.parametrize("states", _BAD_PATHS.values(), ids=_BAD_PATHS.keys())
def test_a_reach_path_that_fails_the_semantics_raises(monkeypatch, states):
    path = (states, [()] * (len(states) - 1))
    monkeypatch.setattr(solver_mod, "_search", lambda ex, q: path)
    with pytest.raises(InternalError, match="model fails re-check for base k=5"):
        Solver(SolverConfig()).check(encode_base_case(chain_bug(5), 5))


def test_a_recheck_path_through_a_violation_must_reach_its_target(monkeypatch):
    # the violation at x=5 comes first, so it is the answer, as decode_model
    # reads it; but the path has to end at the target for the query to hold
    sys = chain_bug(5)
    goal = State({"x": 6})
    t = Target(goal, Trace((goal,), ()), 1, 1)
    q = encode_extended_base_case(sys, 7, (t,), include_violations=False)
    v = Solver(SolverConfig()).check(q)
    assert v.status is SolverStatus.SAT
    assert v.decoded.trace.violated_prop == "below_limit"
    assert len(v.decoded.trace.states) == 6
    assert v.decoded == decode_model(q, v.model)
    states = [(x,) for x in range(6)] + [(7,)]
    monkeypatch.setattr(solver_mod, "_search", lambda ex, q: (states, [()] * 6))
    with pytest.raises(InternalError, match="model fails re-check for extended-base k=7"):
        Solver(SolverConfig()).check(q)


# ---------------------------------------------------------------------------
# Each reach answer's decoded form is the decoding of its model


@pytest.fixture(scope="module")
def reach_corpus():
    fixed = [
        saturating(),
        halt_sink(),
        identity_spurious(),
        moving_halt(),
        deadlock_chain(),
        input_chain(4),
        input_chain(7),
        *definitional_props().values(),
        chain_bug(9),
        diamond_parity(9),
        const_check(8),
    ]
    return fixed + corpus(seed=43, n=800, max_state_bits=8)


@pytest.mark.parametrize("recheck", list(TargetRecheck), ids=lambda r: r.value)
def test_reach_answers_decode_as_their_models(reach_corpus, recheck):
    cfg = EngineConfig(max_k=8, target_recheck=recheck)
    sat = matched = passed_a_violation = 0
    for sys in reach_corpus:
        targets = run_extended(sys, cfg).targets
        for k in range(1, 6):
            for q in (
                encode_base_case(sys, k),
                encode_extended_base_case(sys, k, targets),
                encode_extended_base_case(sys, k, targets, include_violations=False),
            ):
                v = Solver(SolverConfig()).check(q)
                if v.status is not SolverStatus.SAT:
                    continue
                sat += 1
                matched += v.decoded.matched_target is not None
                passed_a_violation += not q.include_violations and not v.decoded.matched_target
                assert v.decoded == decode_model(q, v.model), (sys.name, q.kind.value, k)
                assert eval_expr(q.assertion, v.model) is True
    # target hits, and target-only queries answered by an earlier violation
    assert sat > 5000 and matched >= 20 and passed_a_violation >= 50


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
    v = Solver(SolverConfig()).check(encode_base_case(sys, 1))
    assert v.status is SolverStatus.UNKNOWN
    assert "external solver" in v.diagnostic


def test_naive_within_budget_still_answers(monkeypatch):
    sys = chain_bug(2)  # 2 state bits, no inputs
    # a 1-bit cap admits neither the executor nor the 2-bit k=1 query
    with monkeypatch.context() as m:
        m.setattr(solver_mod, "ENUM_BIT_CAP", 1)
        v = Solver(SolverConfig()).check(encode_base_case(sys, 1))
    assert v.status is SolverStatus.UNKNOWN
    # within its budget the naive enumerator answers, and its model decodes
    # to a trace the reference semantics accept
    q = encode_base_case(sys, 3)
    naive = _naive_check(q)
    assert naive.status is SolverStatus.SAT
    dec = decode_model(q, naive.model)
    assert replay_trace(sys, dec.trace)


def _wide_input_system():
    """2 state bits and a 23-bit input: 25 bits per step, one over the cap
    of 24, so the executor is refused. A k=1 query has no inputs and needs
    2 bits; a k=2 query needs 2 + 23 + 2 = 27."""
    ws, wi = ir.bitvec(2), ir.bitvec(23)
    x, c = ir.var("x", ws), ir.var("c", wi)
    return ir.TransitionSystem(
        vars=(ir.VarDecl("x", ws, ir.VarRole.STATE), ir.VarDecl("c", wi, ir.VarRole.INPUT)),
        init=ir.eq(x, ir.const(0, ws)),
        trans=ir.eq(
            ir.next_var("x", ws),
            ir.ite(ir.eq(c, ir.const(0, wi)), x, ir.bvadd(x, ir.const(1, ws))),
        ),
        props=(ir.Prop("nonzero", ir.not_(ir.eq(x, ir.const(0, ws)))),),
        halt=ir.FALSE,
    )


def test_naive_used_over_the_cap_even_when_the_slot_holds_the_executor(monkeypatch):
    sys = chain_bug(2)
    assert Solver(SolverConfig()).check(encode_base_case(sys, 1)).status is SolverStatus.UNSAT
    naive = []
    monkeypatch.setattr(solver_mod, "_naive_check", lambda q: naive.append(q) or "naive")
    monkeypatch.setattr(solver_mod, "ENUM_BIT_CAP", 1)
    q = encode_base_case(sys, 1)
    assert Solver(SolverConfig()).check(q) == "naive"
    assert naive == [q]


def test_compare_builds_one_executor_for_both_engines(monkeypatch):
    built = []

    def build(sys):
        built.append(sys)
        return SystemExecutor(sys)

    monkeypatch.setattr(solver_mod, "SystemExecutor", build)
    sys = chain_bug(9)
    rec = compare(sys)
    assert rec.extended.targets  # the extended run made target rechecks too
    assert built == [sys]
    compare(chain_bug(9))
    assert len(built) == 2


# ---------------------------------------------------------------------------
# Checked forward and inductive answers are kept per system

_EXACT = (QueryKind.FORWARD, QueryKind.INDUCTIVE)


@pytest.mark.parametrize(
    "make", [lambda: chain_bug(9), lambda: diamond_parity(9)], ids=["chain_bug", "diamond_parity"]
)
def test_compare_checks_each_exact_model_once(monkeypatch, make):
    finished = []
    real = solver_mod._finish_model

    def counting(q, model, strict):
        finished.append((q.kind.value, q.k))
        return real(q, model, strict)

    monkeypatch.setattr(solver_mod, "_finish_model", counting)
    rec = compare(make())
    sat = [
        (c.check, c.k)
        for r in (rec.plain, rec.extended)
        for it in r.iterations
        for c in it.checks
        if c.status == "sat" and c.check in ("forward", "inductive")
    ]
    exact = [f for f in finished if f[0] in ("forward", "inductive")]
    assert sorted(exact) == sorted(set(sat))
    assert len(sat) > len(exact)  # the extended engine read kept models


def _exact_answers(monkeypatch, run) -> list:
    """(kind, k, status, model) of every forward and inductive check run makes."""
    answers = []
    real = Solver.check

    def recording(self, q):
        v = real(self, q)
        if q.kind in _EXACT:
            answers.append((q.kind, q.k, v.status, v.model))
        return v

    with monkeypatch.context() as m:
        m.setattr(Solver, "check", recording)
        run()
    return answers


@pytest.mark.parametrize(
    "make", [lambda: chain_bug(9), lambda: diamond_parity(9)], ids=["chain_bug", "diamond_parity"]
)
def test_kept_models_equal_those_of_a_cold_run(monkeypatch, make):
    sys = make()
    run_plain(sys)
    warm = _exact_answers(monkeypatch, lambda: run_extended(sys))
    cold = _exact_answers(monkeypatch, lambda: run_extended(make()))
    assert warm == cold
    assert any(status is SolverStatus.SAT for _, _, status, _ in warm)


def test_a_mutated_model_does_not_change_the_next_answer():
    sys = chain_bug(5)
    for encode in (encode_forward_condition, encode_inductive_step):
        first = Solver(SolverConfig()).check(encode(sys, 3))
        kept = dict(first.model)
        first.model["x@1"] = 7
        first.model.pop("x@2")
        again = Solver(SolverConfig()).check(encode(sys, 3))
        assert again.model == kept


def test_an_exact_model_that_fails_the_recheck_is_not_kept(monkeypatch):
    # 0 -> 0 is no step of chain_bug, and 0 violates nothing
    sys = chain_bug(5)
    monkeypatch.setattr(solver_mod, "_search", lambda ex, q: ([(0,), (0,)], [()]))
    for _ in range(2):
        with pytest.raises(InternalError, match="model fails re-check for inductive k=2"):
            Solver(SolverConfig()).check(encode_inductive_step(sys, 2))
    assert solver_mod._executor(sys).models == {}


def test_naive_answers_when_inputs_break_the_cap():
    sys = _wide_input_system()
    assert solver_mod.ENUM_BIT_CAP == 24
    solver = Solver(SolverConfig())
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


# x may jump to any value, so every path from x=0 follows the transitions
_JUMPS = parse(
    """(system
  (var x (bv 3))
  (input c (bv 3))
  (init (= x #b000))
  (trans (= (next x) c))
  (prop not_five (not (= x #b101)))
  (halt false))""",
    "jumps",
)


def _decode_query(*goals, tids=None):
    targets = [
        Target(State({"x": g}), Trace((State({"x": g}),), ()), 1, tid)
        for g, tid in zip(goals, tids or range(1, len(goals) + 1))
    ]
    return encode_extended_base_case(_JUMPS, 4, targets)


def _model(q, xs):
    """The model of the path 0, *xs, with its definitions filled in."""
    xs = (0, *xs)
    model = {f"x@{i}": x for i, x in enumerate(xs, 1)}
    model.update({f"c@{i}": x for i, x in enumerate(xs[1:], 1)})
    for name, defn in q.marker_defs:
        model[name] = eval_expr(defn, model)
    assert eval_expr(q.assertion, model) is True
    return model


def test_decode_prefers_shallower_events():
    q = _decode_query(3)
    dec = decode_model(q, _model(q, [5, 3, 5]))
    assert [s["x"] for s in dec.trace.states] == [0, 5]
    assert dec.trace.violated_prop == "not_five" and dec.matched_target is None
    dec = decode_model(q, _model(q, [3, 5, 3]))
    assert [s["x"] for s in dec.trace.states] == [0, 3]
    assert dec.trace.inputs == (State({"c": 3}),)
    assert dec.trace.violated_prop is None and dec.matched_target == 1


def test_decode_prefers_violations_over_targets_at_same_depth():
    q = _decode_query(5, 2)
    dec = decode_model(q, _model(q, [1, 5, 2]))
    assert len(dec.trace.states) == 3
    assert dec.matched_target is None
    assert dec.trace.violated_prop == "not_five"
    # among targets that share a state, the least id is matched
    q = _decode_query(2, 2, tids=(9, 4))
    dec = decode_model(q, _model(q, [1, 2, 5]))
    assert len(dec.trace.states) == 3 and dec.matched_target == 4


def test_decode_matches_a_target_on_the_declared_variables():
    # as tgt1@@i does: a binding the system does not declare is ignored.
    # encode_extended_base_case refuses such a target, so the query is
    # built directly.
    extra = State({"x": 3, "zz": 1})
    q = Query(QueryKind.EXTENDED_BASE, 4, _JUMPS, (Target(extra, Trace((extra,), ()), 1, 1),))
    dec = decode_model(q, _model(q, [1, 3, 5]))
    assert len(dec.trace.states) == 3 and dec.matched_target == 1


@pytest.mark.parametrize("backend", ["enum", "external"])
@pytest.mark.parametrize("bindings", [{"x": 3, "zz": 1}, {}], ids=["extra", "missing"])
def test_a_target_binding_other_names_is_refused_for_every_backend(shim_cmd, backend, bindings):
    # before, the enum backend raised at check time ("state binds ('x',
    # 'zz')"), and the external one matched the target on x alone
    solver = Solver(SolverConfig() if backend == "enum" else _external(shim_cmd))
    good, bad = State({"x": 3}), State(bindings)
    kept = Target(good, Trace((good,), ()), 1, 1)
    assert solver.check(encode_extended_base_case(_JUMPS, 4, [kept])).status is SolverStatus.SAT
    with pytest.raises(InternalError, match=r"target 2 binds \("):
        solver.check(
            encode_extended_base_case(_JUMPS, 4, [kept, Target(bad, Trace((bad,), ()), 1, 2)])
        )


def test_decode_rejects_a_path_that_hits_nothing():
    q = _decode_query(3)
    model = _model(q, [1, 3, 5])
    # the path is now 0, 1, 2, 4; the stale tgt1@@3 and viol@@4 are not read
    model.update({"x@3": 2, "c@2": 2, "x@4": 4, "c@3": 4})
    with pytest.raises(ProtocolError, match="hits no violation or target"):
        decode_model(q, model)


def test_decode_of_a_reach_query_builds_no_formula():
    model = _model(_decode_query(3), [1, 3, 5])
    q = _decode_query(3)
    dec = decode_model(q, model)
    assert len(dec.trace.states) == 3 and dec.matched_target == 1
    assert "_formula" not in vars(q)


def test_decode_rejects_missing_state_value():
    q = _decode_query(3)
    model = _model(q, [1, 2, 5])
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


def test_resolve_rejects_a_bare_command_as_the_argument(monkeypatch):
    monkeypatch.delenv("KINDMC_SOLVER", raising=False)
    with pytest.raises(ConfigError, match="enum or external:<command>, got 'z5 --in'"):
        resolve_config("z5 --in")


def test_resolve_empty_command_rejected(monkeypatch):
    monkeypatch.delenv("KINDMC_SOLVER", raising=False)
    with pytest.raises(ConfigError, match="empty"):
        resolve_config("external:")
    with pytest.raises(ConfigError, match="empty"):
        resolve_config("external:   ")


def test_resolve_carries_options(monkeypatch):
    monkeypatch.delenv("KINDMC_SOLVER", raising=False)
    assert resolve_config("enum", timeout_ms=1234).timeout_ms == 1234


def test_config_rejects_unknown_backend():
    with pytest.raises(ConfigError, match="enum or external, got 'z3'"):
        SolverConfig(backend="z3")


def test_config_rejects_external_without_command():
    with pytest.raises(ConfigError, match="empty"):
        SolverConfig(backend="external")


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

