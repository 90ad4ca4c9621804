"""Satisfiability checking for encoded queries.

Two backends:

  enum      built-in search over the concrete state space, backed by the
            SystemExecutor of the query's system. It answers from the
            query's question (kind, k, system, targets) and reads the
            formula only to re-check a satisfying model. Every query kind
            is a lookup on one of the executor's search chains
            (concrete.py): base cases take a shortest initial path to a
            violation or a target, the forward condition an initial path of
            exactly k states that ends in a non-halting state, and the
            inductive step a path of exactly k states from a good state,
            through good states, to a violation. Chains keep their layers,
            so each query grows them by at most the layers no earlier query
            needed. A forward or inductive formula depends on the system
            and k alone, so its answer is searched for once and kept on the
            executor (`answers`) with its model, once assembled and
            re-checked; each caller gets a copy of the model when it first
            reads the verdict's model. The executor is held in an
            ir.per_system slot, one per thread, so every session that
            queries the same system object in one thread, such as the two
            engines of a `compare`, shares its rows, layers, answers and
            checked models. Systems whose state and input bits per step
            exceed ENUM_BIT_CAP get no executor: they fall back to plain
            enumeration of the unrolled variables when those fit within
            the same cap, otherwise the result is unknown.

  external  a one-shot SMT-LIB 2 process: the serialized query on stdin,
            sat/unsat/unknown plus a get-value response on stdout. Output
            parsing is lenient; a missing or unreadable verdict yields
            unknown with a diagnostic rather than an exception.

Every satisfiable answer carries a full model (timed variables plus the
auxiliary booleans), re-checked against the query's full formula. Most
models are re-checked before they are returned: for a kept model, against
the equal formula of the query that first found it. A satisfiable base,
extended-base or target-recheck answer of the enum backend is checked
against the system's semantics instead, and comes already decoded
(SolverVerdict.decoded): its path replays through ir.replay_trace from an
initial state and ends at a goal of the query. The decoded answer names
the system object its trace was replayed on (DecodedModel.replayed_on),
and that replay stands for the engine's own when the trace is reported
as it is; a witness stitched from it is replayed again by the engine.
Its model, and with it the formula, is built and re-checked only on the
first read of `model`, so the engine, which reads the decoded answer,
builds neither. For the built-in backend a failed check is a bug and
raises, and the model is not kept; for an external process it downgrades
the answer to unknown.

A satisfiable inductive answer of the enum backend also carries the path
its kept, checked model was assembled from. Its decoded answer is built
from that path on the first read of `decoded`, by the rule decode_model
applies to the model, and `first_state` builds the path's first state
alone. The extended engine makes each target from that state and reads
the rest only when the target's suffix is read; the plain engine reads
neither.

A base-case answer is decided by its path alone, in one place
(_first_hit): the first state that violates a property or equals a
target's first state. The enum backend applies it to the search's path,
decode_model to a model's states. The auxiliary booleans are definitions
in the formula's SMT-LIB text; no decoder reads them.
"""

from __future__ import annotations

import os
import shlex
import subprocess
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Any, Callable, Iterable, Optional, Sequence

from .concrete import Path, SystemExecutor, _domain
from .encoder import Query, QueryKind, Target, serialize_smtlib
from .errors import ConfigError, InternalError, ParseError, ProtocolError
from .frontend import _read
from .ir import (
    State,
    Trace,
    TransitionSystem,
    Value,
    VarDecl,
    eval_expr,
    per_system,
    replay_trace,
)

Model = dict[str, Value]

# Bits the enum backend enumerates: a system's state and input bits per step
# for the executor, or all of a query's unrolled variables for the naive
# fallback.
ENUM_BIT_CAP = 24


class SolverStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SolverVerdict:
    """A solver's answer. A satisfiable answer of the enum backend builds
    its `model` on the first read, with `assemble`. A reach answer also
    carries `decoded`, its checked answer. An inductive answer carries its
    checked path instead, `path` = (query, state names, input names,
    (states, inputs)) with value tuples in the order of the names, and
    builds `decoded` from it on the first read; `first_state` builds the
    path's first state alone. The path holds no executor, so an unread
    answer keeps no search state alive."""

    __slots__ = ("status", "diagnostic", "_decoded", "_model", "_assemble", "_path")

    def __init__(
        self,
        status: SolverStatus,
        model: Optional[Model] = None,
        diagnostic: str = "",
        decoded: Optional[DecodedModel] = None,
        assemble: Optional[Callable[[], Model]] = None,
        path: Optional[tuple[Query, tuple[str, ...], tuple[str, ...], Path]] = None,
    ) -> None:
        self.status = status
        self.diagnostic = diagnostic
        self._decoded = decoded
        self._model = model
        self._assemble = assemble
        self._path = path

    @property
    def model(self) -> Optional[Model]:
        if self._assemble is not None:
            self._model = self._assemble()
            self._assemble = None
        return self._model

    @property
    def decoded(self) -> Optional[DecodedModel]:
        if self._decoded is None and self._path is not None:
            q, snames, inames, (states, inputs) = self._path
            self._decoded = _exact_answer(q, _states(snames, states), _states(inames, inputs))
        return self._decoded

    @property
    def first_state(self) -> Optional[State]:
        """The first state of the carried path, or None without one."""
        if self._path is None:
            return None
        _, snames, _, (states, _) = self._path
        return State(dict(zip(snames, states[0])))

    def __repr__(self) -> str:
        return f"SolverVerdict({self.status}, diagnostic={self.diagnostic!r})"


def _states(names: tuple[str, ...], values: Sequence[tuple]) -> tuple[State, ...]:
    return tuple(State(dict(zip(names, t))) for t in values)


@dataclass(frozen=True)
class SolverConfig:
    backend: str = "enum"  # "enum" | "external"
    command: tuple[str, ...] = ()
    timeout_ms: int = 0

    def __post_init__(self) -> None:
        if self.backend not in ("enum", "external"):
            raise ConfigError(f"solver backend must be enum or external, got {self.backend!r}")
        if self.backend == "external" and not self.command:
            raise ConfigError("external solver command is empty")
        if self.timeout_ms < 0:
            raise ConfigError(f"solver timeout must be at least 0 ms, got {self.timeout_ms}")


def resolve_config(solver_arg: Optional[str] = None, timeout_ms: int = 0) -> SolverConfig:
    """Build a SolverConfig from a --solver argument, falling back to the
    KINDMC_SOLVER environment variable, then to the built-in backend.
    Accepted forms: "enum", "external:<command line>", or (env only) a bare
    command line; a bare command line as the argument is a ConfigError."""
    spec = solver_arg
    if spec is None:
        spec = os.environ.get("KINDMC_SOLVER") or None
    elif spec != "enum" and not spec.startswith("external:"):
        raise ConfigError(f"--solver must be enum or external:<command>, got {spec!r}")
    if spec is None or spec == "enum":
        return SolverConfig("enum", (), timeout_ms)
    if spec.startswith("external:"):
        spec = spec[len("external:") :]
    try:
        command = tuple(shlex.split(spec))
    except ValueError as e:  # an unbalanced quote or a trailing escape
        raise ConfigError(f"cannot split solver command {spec!r}: {e}") from None
    return SolverConfig("external", command, timeout_ms)


# ---------------------------------------------------------------------------
# Session


# SystemExecutor is looked up in this module when a build happens, so a
# wrapper put here sees every build.
_executor = per_system(lambda sys: SystemExecutor(sys))

# Query kinds whose formula is fixed by the system and k alone.
_EXACT = (QueryKind.FORWARD, QueryKind.INDUCTIVE)


class Solver:
    """A checking session over one configuration."""

    def __init__(self, cfg: SolverConfig) -> None:
        self.cfg = cfg

    def check(self, q: Query) -> SolverVerdict:
        if self.cfg.backend == "external":
            return _check_external(q, self.cfg)
        return self._check_enum(q)

    def _check_enum(self, q: Query) -> SolverVerdict:
        if q.system.state_bits + q.system.input_bits > ENUM_BIT_CAP:
            return _naive_check(q)
        ex = _executor(q.system)
        if q.kind not in _EXACT:
            path = _search(ex, q)
            if path is None:
                return SolverVerdict(SolverStatus.UNSAT)
            return SolverVerdict(
                SolverStatus.SAT,
                decoded=_reach_answer(q, ex, *path),
                assemble=lambda: _assemble_model(q, ex, *path),
            )
        key = (q.kind, q.k)
        if key not in ex.answers:
            # the answer to such a formula, checked, is a fact of the system
            path = _search(ex, q)
            ex.answers[key] = None if path is None else (path, _assemble_model(q, ex, *path))
        answer = ex.answers[key]
        if answer is None:
            return SolverVerdict(SolverStatus.UNSAT)
        path, model = answer
        if q.kind is QueryKind.INDUCTIVE:
            return SolverVerdict(
                SolverStatus.SAT,
                assemble=model.copy,
                path=(q, ex.state_names, ex.input_names, path),
            )
        return SolverVerdict(SolverStatus.SAT, assemble=model.copy)


def _search(ex: SystemExecutor, q: Query) -> Optional[Path]:
    """The concrete path that answers q, or None when there is none."""
    if q.kind in (QueryKind.BASE, QueryKind.EXTENDED_BASE):
        targets = set(map(ex.target_tuple, q.targets))
        return ex.reach.path(q.k, targets, q.include_violations)
    if q.kind is QueryKind.FORWARD:
        return ex.forward.path(q.k)
    if q.kind is QueryKind.INDUCTIVE:
        return ex.inductive.path(q.k)
    raise InternalError(f"no search for query kind {q.kind}")


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


def _reach_answer(
    q: Query,
    ex: SystemExecutor,
    states: Sequence[tuple],
    inputs: Sequence[tuple],
) -> DecodedModel:
    """The answer of a base-case path, decided by _first_hit as decode_model
    decides it for the path's model. It is checked against the system's
    semantics, not the formula: the trace replays from an initial state
    (naming a property that is false at its end), and it ends at a goal of
    q. A target-recheck path that meets a violation first must replay on to
    a target."""
    hit = _first_hit(q, states, ex.target_tuple, ex.violated_prop)
    if hit is None or len(states) > q.k:
        raise InternalError(_recheck_failure(q))
    n, violated, tid = hit
    path = Trace(tuple(map(ex.state_obj, states)), tuple(map(ex.input_obj, inputs)))
    trace = Trace(path.states[:n], path.inputs[: n - 1], violated)
    ok = replay_trace(q.system, trace)
    if violated is not None and not q.include_violations:
        goals = set(map(ex.target_tuple, q.targets))
        ok = ok and states[-1] in goals and replay_trace(q.system, path)
    if not ok:
        raise InternalError(_recheck_failure(q))
    return DecodedModel(trace, tid, replayed_on=q.system)


def _recheck_failure(q: Query) -> str:
    return f"model fails re-check for {q.kind.value} k={q.k}"


def _finish_model(q: Query, model: Model, strict: bool) -> Optional[str]:
    """Fill in auxiliary booleans from their definitions and re-check the
    main assertion. Returns a complaint (or raises when strict) if the
    model does not actually satisfy the query."""
    for name, defn in q.marker_defs:
        model[name] = eval_expr(defn, model)
    ok = eval_expr(q.assertion, model)
    if ok is not True:
        msg = _recheck_failure(q)
        if strict:
            raise InternalError(msg)
        return msg
    return None


# ---------------------------------------------------------------------------
# Naive enumeration fallback


def _naive_check(q: Query) -> SolverVerdict:
    total_bits = sum(tv.sort.bits for tv in q.decls)
    if total_bits > ENUM_BIT_CAP:
        return SolverVerdict(
            SolverStatus.UNKNOWN,
            diagnostic=(
                f"query needs {total_bits} bits, enumeration cap is"
                f" {ENUM_BIT_CAP}; use an external solver"
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
    """A decoded answer. `replayed_on` is the system object `trace` was
    replayed on and passed, when the solver replayed it: the enum backend's
    base-case answers. It takes no part in equality or repr."""

    trace: Trace
    matched_target: Optional[int] = None
    replayed_on: Optional[TransitionSystem] = field(default=None, compare=False, repr=False)


def _values_at(decls: Sequence[VarDecl], model: Model, step: int) -> State:
    try:
        return State({d.name: model[f"{d.name}@{step}"] for d in decls})
    except KeyError as e:
        raise ProtocolError(f"model has no value for {e.args[0]}") from None


def _path_in(q: Query, model: Model) -> tuple[tuple[State, ...], tuple[State, ...]]:
    """The model's k states and the k-1 inputs between them."""
    sys, k = q.system, q.k
    states = tuple(_values_at(sys.state_vars, model, i) for i in range(1, k + 1))
    return states, tuple(_values_at(sys.input_vars, model, i) for i in range(1, k))


def _first_false_prop(q: Query, state: State) -> Optional[str]:
    for p in q.system.props:
        if eval_expr(p.expr, state) is False:
            return p.name
    return None


def _first_hit(
    q: Query,
    states: Iterable,
    key: Callable[[Target], Any],
    violated_prop: Callable[[Any], Optional[str]],
) -> Optional[tuple[int, Optional[str], Optional[int]]]:
    """Where a base-case path answers q: at the first of `states` that
    violates a property or equals a target's first state, which `key`
    gives in the form of `states`. Returns that state's 1-based position,
    the first false property and the matched tid, or None when no state
    hits. A violation wins; otherwise the least such tid is matched."""
    tids: dict = {}
    for t in q.targets:
        s = key(t)
        tids[s] = min(t.tid, tids.get(s, t.tid))
    for n, s in enumerate(states, 1):
        violated = violated_prop(s)
        if violated is not None:
            return n, violated, None
        if s in tids:
            return n, None, tids[s]
    return None


def decode_model(q: Query, model: Model) -> DecodedModel:
    """Turn a satisfying assignment into a concrete trace.

    A base-case model decodes to its path up to the first state that
    violates a property or equals a target's first state (_first_hit), the
    rule the enum backend answers by. Forward and inductive models decode
    to the full k-state path.
    """
    states, inputs = _path_in(q, model)
    if q.kind not in _EXACT:
        # a target matches on the declared state variables, as in the formula
        decl = q.system.state_vars
        hit = _first_hit(
            q,
            states,
            lambda t: State({d.name: t.first_state[d.name] for d in decl}),
            lambda s: _first_false_prop(q, s),
        )
        if hit is None:
            raise ProtocolError("satisfiable base case, but its path hits no violation or target")
        n, violated, tid = hit
        return DecodedModel(Trace(states[:n], inputs[: n - 1], violated), tid)
    return _exact_answer(q, states, inputs)


def _exact_answer(q: Query, states: tuple[State, ...], inputs: tuple[State, ...]) -> DecodedModel:
    """A forward or inductive answer: its full k-state path, ending, for
    the inductive step, in the first property false at its last state."""
    if q.kind is QueryKind.INDUCTIVE:
        violated = _first_false_prop(q, states[-1])
        if violated is None:
            raise ProtocolError("final state violates no property")
        return DecodedModel(Trace(states, inputs, violated))
    return DecodedModel(Trace(states, inputs))
