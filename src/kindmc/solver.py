"""Satisfiability checking for encoded queries.

Two backends:

  enum      built-in search over the concrete state space, backed by the
            memoized SystemExecutor. It answers from the query's question
            (kind, k, system, targets) and reads the formula only to
            re-check a satisfying model. Every query kind is one call to the
            breadth-first path search concrete.find_path: base cases look
            for a shortest initial path to a violation or a target, the
            forward condition for an initial path of exactly k states that
            ends in a non-halting state, and the inductive step for a path
            of exactly k states from any state, through good states, to a
            violation. Systems whose per-step footprint exceeds the bit cap
            fall back to plain enumeration of the unrolled variables when
            that fits, otherwise the result is unknown.

  external  a one-shot SMT-LIB 2 process: the serialized query on stdin,
            sat/unsat/unknown plus a get-value response on stdout. Output
            parsing is lenient; a missing or unreadable verdict yields
            unknown with a diagnostic rather than an exception.

Every satisfiable answer carries a full model (timed variables plus the
auxiliary booleans), and the model is re-checked against the query's full
formula before it is returned. For the built-in backend a failed
re-check is a bug and raises; for an external process it downgrades the
answer to unknown.
"""

from __future__ import annotations

import os
import shlex
import subprocess
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Optional, Sequence, Union

from .concrete import SystemExecutor, _domain, find_path
from .encoder import Marker, Query, QueryKind, serialize_smtlib
from .errors import ConfigError, InternalError, ParseError, ProtocolError
from .frontend import _read
from .ir import State, Trace, Value, VarDecl, eval_expr

Model = dict[str, Value]


class SolverStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolverVerdict:
    status: SolverStatus
    model: Optional[Model] = None
    diagnostic: str = ""


@dataclass(frozen=True)
class SolverConfig:
    backend: str = "enum"  # "enum" | "external"
    command: tuple[str, ...] = ()
    timeout_ms: int = 0
    enum_bit_cap: int = 24


def resolve_config(
    solver_arg: Optional[str] = None, timeout_ms: int = 0, enum_bit_cap: int = 24
) -> SolverConfig:
    """Build a SolverConfig from a --solver argument, falling back to the
    KINDMC_SOLVER environment variable, then to the built-in backend.
    Accepted forms: "enum", "external:<command line>", or (env only) a bare
    command line."""
    spec = solver_arg
    if spec is None:
        spec = os.environ.get("KINDMC_SOLVER") or None
    if spec is None or spec == "enum":
        return SolverConfig("enum", (), timeout_ms, enum_bit_cap)
    if spec.startswith("external:"):
        spec = spec[len("external:") :]
    cmd = tuple(shlex.split(spec))
    if not cmd:
        raise ConfigError("external solver command is empty")
    return SolverConfig("external", cmd, timeout_ms, enum_bit_cap)


# ---------------------------------------------------------------------------
# Session


class Solver:
    """A checking session. Reusing one session across iterations shares the
    per-system successor tables."""

    def __init__(self, cfg: SolverConfig) -> None:
        self.cfg = cfg
        self.calls = 0
        self._executors: dict[int, tuple[object, SystemExecutor]] = {}

    def check(self, q: Query) -> SolverVerdict:
        self.calls += 1
        if self.cfg.backend == "external":
            return _check_external(q, self.cfg)
        return self._check_enum(q)

    def _executor(self, q: Query) -> Optional[SystemExecutor]:
        key = id(q.system)
        hit = self._executors.get(key)
        if hit is not None:
            return hit[1]
        cap = self.cfg.enum_bit_cap
        if q.system.state_bits + q.system.input_bits > cap:
            return None
        ex = SystemExecutor(q.system, state_bit_cap=cap, input_bit_cap=cap)
        self._executors[key] = (q.system, ex)
        return ex

    def _check_enum(self, q: Query) -> SolverVerdict:
        ex = self._executor(q)
        if ex is None:
            return _naive_check(q, self.cfg)
        violated = ex.violated_prop
        if q.kind in (QueryKind.BASE, QueryKind.EXTENDED_BASE):
            targets = {ex.state_tuple(t.first_state) for t in q.targets}
            props = q.include_violations
            path = find_path(
                ex,
                ex.initial_states(),
                q.k,
                lambda s: s in targets or (props and violated(s) is not None),
            )
        elif q.kind is QueryKind.FORWARD:
            halt = ex.halt_fn
            path = find_path(ex, ex.initial_states(), q.k, lambda s: not halt(s), exact=True)
        elif q.kind is QueryKind.INDUCTIVE:
            path = find_path(
                ex,
                ex.all_states(),
                q.k,
                lambda s: violated(s) is not None,
                keep=lambda s: violated(s) is None,
                exact=True,
            )
        else:
            raise InternalError(f"no search for query kind {q.kind}")
        if path is None:
            return SolverVerdict(SolverStatus.UNSAT)
        return SolverVerdict(SolverStatus.SAT, _assemble_model(q, ex, *path))


def check(q: Query, cfg: Optional[SolverConfig] = None) -> SolverVerdict:
    return Solver(cfg or SolverConfig()).check(q)


# ---------------------------------------------------------------------------
# Model assembly (enum backend)


def _zero_inputs(ex: SystemExecutor) -> tuple[Value, ...]:
    return tuple(_domain(d.sort)[0] for d in ex.input_decls)


def _assemble_model(
    q: Query,
    ex: SystemExecutor,
    states: Sequence[tuple],
    inputs: Sequence[tuple],
) -> Model:
    """Timed-variable assignment from a concrete path, padded to length k by
    repeating the last state with the least inputs, plus the auxiliary
    booleans computed from their definitions."""
    k = q.k
    model: Model = {}
    pad_u = _zero_inputs(ex)
    for step in range(1, k + 1):
        s = states[step - 1] if step <= len(states) else states[-1]
        for i, name in enumerate(ex.state_names):
            model[f"{name}@{step}"] = s[i]
        if step < k:
            u = inputs[step - 1] if step - 1 < len(inputs) else pad_u
            for i, name in enumerate(ex.input_names):
                model[f"{name}@{step}"] = u[i]
    _finish_model(q, model, strict=True)
    return model


def _finish_model(q: Query, model: Model, strict: bool) -> Optional[str]:
    """Fill in auxiliary booleans from their definitions and re-check the
    main assertion. Returns a complaint (or raises when strict) if the
    model does not actually satisfy the query."""
    for name, defn in q.marker_defs:
        model[name] = eval_expr(defn, model)
    ok = eval_expr(q.assertion, model)
    if ok is not True:
        msg = f"model fails re-check for {q.kind.value} k={q.k}"
        if strict:
            raise InternalError(msg)
        return msg
    return None


# ---------------------------------------------------------------------------
# Naive enumeration fallback


def _naive_check(q: Query, cfg: SolverConfig) -> SolverVerdict:
    total_bits = sum(tv.sort.bits for tv in q.decls)
    if total_bits > cfg.enum_bit_cap:
        return SolverVerdict(
            SolverStatus.UNKNOWN,
            diagnostic=(
                f"query needs {total_bits} bits, enumeration cap is"
                f" {cfg.enum_bit_cap}; use an external solver"
            ),
        )
    domains = [_domain(tv.sort) for tv in q.decls]
    names = [tv.name for tv in q.decls]
    for combo in product(*domains):
        model: Model = dict(zip(names, combo))
        if _finish_model(q, model, strict=False) is None:
            return SolverVerdict(SolverStatus.SAT, model)
    return SolverVerdict(SolverStatus.UNSAT)


# ---------------------------------------------------------------------------
# External backend


def _check_external(q: Query, cfg: SolverConfig) -> SolverVerdict:
    doc = serialize_smtlib(q)
    timeout = cfg.timeout_ms / 1000.0 if cfg.timeout_ms > 0 else None
    try:
        proc = subprocess.run(
            list(cfg.command),
            input=doc,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except FileNotFoundError:
        raise ConfigError(f"solver command not found: {cfg.command[0]}") from None
    except subprocess.TimeoutExpired:
        return SolverVerdict(
            SolverStatus.UNKNOWN, diagnostic=f"solver timed out after {cfg.timeout_ms}ms"
        )
    lines = [line.strip() for line in proc.stdout.splitlines()]
    at = next((i for i, t in enumerate(lines) if t in ("sat", "unsat", "unknown")), None)
    if at is None:
        excerpt = (proc.stdout + proc.stderr).strip().splitlines()
        return SolverVerdict(
            SolverStatus.UNKNOWN,
            diagnostic="no sat/unsat verdict from solver: "
            + ("; ".join(excerpt[:3]) if excerpt else "empty output"),
        )
    if lines[at] == "unsat":
        return SolverVerdict(SolverStatus.UNSAT)
    if lines[at] == "unknown":
        return SolverVerdict(SolverStatus.UNKNOWN, diagnostic="solver answered unknown")
    raw = _parse_value_response("\n".join(lines[at + 1 :]))
    if raw is None:
        return SolverVerdict(
            SolverStatus.UNKNOWN, diagnostic="sat, but the model was unreadable"
        )
    model: Model = {}
    for tv in q.decls:
        if tv.name not in raw:
            return SolverVerdict(
                SolverStatus.UNKNOWN,
                diagnostic=f"sat, but the model has no value for {tv.name}",
            )
        v = raw[tv.name]
        if tv.sort.is_bool:
            if not isinstance(v, bool):
                return SolverVerdict(
                    SolverStatus.UNKNOWN,
                    diagnostic=f"sat, but {tv.name} has a non-boolean value",
                )
        elif isinstance(v, bool) or not isinstance(v, int) or not tv.sort.contains(v):
            return SolverVerdict(
                SolverStatus.UNKNOWN,
                diagnostic=f"sat, but {tv.name} is out of range for {tv.sort}",
            )
        model[tv.name] = v
    complaint = _finish_model(q, model, strict=False)
    if complaint is not None:
        return SolverVerdict(SolverStatus.UNKNOWN, diagnostic=complaint)
    return SolverVerdict(SolverStatus.SAT, model)


def _parse_value_response(text: str) -> Optional[Model]:
    """Parse a get-value response: ((name value) ...). Returns None when the
    text is not in that shape."""
    try:
        forms = _read(text)
    except ParseError:
        return None
    for form in forms:
        if form.is_atom or form.items is None:
            continue
        out: Model = {}
        ok = True
        for pair in form.items:
            if pair.is_atom or pair.items is None or len(pair.items) != 2:
                ok = False
                break
            name_node, val_node = pair.items
            if not name_node.is_atom:
                ok = False
                break
            val = _parse_value(val_node)
            if val is None:
                ok = False
                break
            out[name_node.text or ""] = val
        if ok and out:
            return out
    return None


def _parse_value(node) -> Optional[Value]:
    if node.is_atom:
        t = node.text or ""
        if t == "true":
            return True
        if t == "false":
            return False
        base = {"#b": 2, "#x": 16}.get(t[:2])
        if base is None or len(t) == 2:
            return None
        try:
            return int(t[2:], base)
        except ValueError:
            return None
    items = node.items or []
    # (_ bv<value> <width>)
    if (
        len(items) == 3
        and items[0].is_atom
        and items[0].text == "_"
        and items[1].is_atom
        and (items[1].text or "").startswith("bv")
    ):
        try:
            return int((items[1].text or "")[2:])
        except ValueError:
            return None
    return None


# ---------------------------------------------------------------------------
# Model decoding


@dataclass(frozen=True)
class DecodedModel:
    trace: Trace
    depth: int
    matched_target: Optional[int] = None


def _values_at(decls: Sequence[VarDecl], model: Model, step: int) -> State:
    try:
        return State({d.name: model[f"{d.name}@{step}"] for d in decls})
    except KeyError as e:
        raise ProtocolError(f"model has no value for {e.args[0]}") from None


def _path_in(q: Query, model: Model, n: int) -> tuple[tuple[State, ...], tuple[State, ...]]:
    """The model's first n states and the n-1 inputs between them."""
    sys = q.system
    states = tuple(_values_at(sys.state_vars, model, i) for i in range(1, n + 1))
    return states, tuple(_values_at(sys.input_vars, model, i) for i in range(1, n))


def _first_false_prop(q: Query, state: State) -> str:
    for p in q.system.props:
        if eval_expr(p.expr, state) is False:
            return p.name
    raise ProtocolError("final state violates no property")


def _marker_key(m: Marker) -> tuple[int, int, int]:
    return (m.depth, 0 if m.target_id is None else 1, m.target_id or 0)


def decode_model(q: Query, model: Model) -> DecodedModel:
    """Turn a satisfying assignment into a concrete trace.

    Base-case models name their event through the auxiliary booleans: the
    fired marker of least depth wins, property violations before target
    hits. Forward and inductive models decode to the full k-state path.
    """
    if q.kind in (QueryKind.BASE, QueryKind.EXTENDED_BASE):
        fired = [
            m
            for m in q.markers
            if model.get(m.name) is True and model.get(f"path@@{m.depth}") is True
        ]
        if not fired:
            raise ProtocolError("satisfiable base case but no fired marker")
        m = min(fired, key=_marker_key)
        states, inputs = _path_in(q, model, m.depth)
        if m.target_id is None:
            violated = _first_false_prop(q, states[-1])
            return DecodedModel(Trace(states, inputs, violated), m.depth)
        return DecodedModel(Trace(states, inputs), m.depth, matched_target=m.target_id)

    states, inputs = _path_in(q, model, q.k)
    if q.kind is QueryKind.INDUCTIVE:
        violated = _first_false_prop(q, states[-1])
        return DecodedModel(Trace(states, inputs, violated), q.k)
    return DecodedModel(Trace(states, inputs), q.k)
