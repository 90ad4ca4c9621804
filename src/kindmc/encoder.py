"""Unrolling of transition systems into per-iteration solver queries.

States along a path are numbered 1..k. A state variable x at step i becomes
the symbol `x@i`; an input consumed by the transition from step i to i+1
becomes `c@i` (so inputs exist for steps 1..k-1 only). User identifiers
cannot contain '@', so timed names never collide.

Auxiliary booleans use a double '@':

  path@@i   the transition relation holds along steps 1..i
  viol@@i   some property is false at step i
  tgt<t>@@i state i equals target t's first state

Each auxiliary symbol comes with a defining equality, kept separate from the
main assertion so a model immediately reveals where on the path something
fired. The four query kinds:

  base           init(s1) and, for some i <= k, path to i with viol@@i
  extended-base  like base, but a step may also hit a target state
  forward        init(s1), full path to k, halt(s_k) false
  inductive      path of k states, properties hold at 1..k-1, fail at k

A Query holds only the question: kind, k, system, targets and whether
violations count. Its formula (decls, markers, marker_defs, assertion) is
built from those on first read, by whichever consumer needs it:
serialize_smtlib for an external solver, the re-check of a satisfying
model, the naive enumeration fallback, and decode_model. The enum backend
answers from the question alone, so an unsatisfiable answer there never
builds a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from . import ir
from .errors import InternalError
from .ir import BOOL, Expr, Sort, State, TransitionSystem, VarRole


class QueryKind(Enum):
    BASE = "base"
    EXTENDED_BASE = "extended-base"
    FORWARD = "forward"
    INDUCTIVE = "inductive"


@dataclass(frozen=True)
class TimedVar:
    base: str
    step: int
    sort: Sort
    role: VarRole

    @property
    def name(self) -> str:
        return f"{self.base}@{self.step}"


@dataclass(frozen=True)
class Marker:
    """A boolean the decoder inspects. target_id is None for violation
    markers."""

    name: str
    depth: int
    target_id: Optional[int] = None


@dataclass(frozen=True)
class Target:
    """A reachability goal harvested from an inductive-step counterexample:
    first_state is the state the bad suffix starts from, suffix the whole
    path (with its inputs) to the property violation."""

    first_state: State
    suffix: "ir.Trace"
    born_at_k: int
    tid: int


class _Formula(NamedTuple):
    markers: tuple[Marker, ...]
    marker_defs: tuple[tuple[str, Expr], ...]
    assertion: Expr


@dataclass(frozen=True)
class Query:
    """The question a solver is asked. Its SMT formula (decls, markers,
    marker_defs, assertion) is built from these fields on first read."""

    kind: QueryKind
    k: int
    system: TransitionSystem
    targets: tuple[Target, ...] = ()
    include_violations: bool = True

    @cached_property
    def decls(self) -> tuple[TimedVar, ...]:
        return _decls(self.system, self.k)

    @cached_property
    def _formula(self) -> _Formula:
        return _FORMULA[self.kind](self)

    markers = property(lambda self: self._formula.markers)
    marker_defs = property(lambda self: self._formula.marker_defs)
    assertion = property(lambda self: self._formula.assertion)


# ---------------------------------------------------------------------------
# Timed expressions


def timed(e: Expr, step: int) -> Expr:
    """Rewrite variables to step-indexed symbols: x -> x@step for state and
    input variables, (next x) -> x@(step+1)."""
    if e.op == "const":
        return e
    if e.op == "var":
        return ir.var(f"{e.name}@{step}", e.sort)
    if e.op == "next":
        return ir.var(f"{e.name}@{step + 1}", e.sort)
    return Expr(e.op, e.sort, tuple(timed(a, step) for a in e.args), e.name, e.value)


def _value_const(v: ir.Value, sort: Sort) -> Expr:
    if sort.is_bool:
        return ir.TRUE if v else ir.FALSE
    return ir.const(int(v), sort)


def state_equals(sys: TransitionSystem, step: int, state: State) -> Expr:
    """s_step equals the given concrete state, as a conjunction over state
    variables."""
    parts = []
    for d in sys.state_vars:
        if d.name not in state:
            raise InternalError(f"target state missing variable {d.name!r}")
        parts.append(
            ir.eq(ir.var(f"{d.name}@{step}", d.sort), _value_const(state[d.name], d.sort))
        )
    return ir.conj(parts)


def props_conj(sys: TransitionSystem) -> Expr:
    return ir.conj([p.expr for p in sys.props])


def _decls(sys: TransitionSystem, k: int) -> tuple[TimedVar, ...]:
    out: list[TimedVar] = []
    for step in range(1, k + 1):
        for d in sys.state_vars:
            out.append(TimedVar(d.name, step, d.sort, VarRole.STATE))
        if step < k:
            for d in sys.input_vars:
                out.append(TimedVar(d.name, step, d.sort, VarRole.INPUT))
    return tuple(out)


def _path_defs(sys: TransitionSystem, k: int) -> list[tuple[str, Expr]]:
    defs: list[tuple[str, Expr]] = [("path@@1", ir.TRUE)]
    for i in range(1, k):
        defs.append(
            (f"path@@{i + 1}", ir.and_(ir.var(f"path@@{i}", BOOL), timed(sys.trans, i)))
        )
    return defs


def _path_conj(sys: TransitionSystem, k: int) -> list[Expr]:
    return [timed(sys.trans, i) for i in range(1, k)]


# ---------------------------------------------------------------------------
# Query builders


def encode_base_case(sys: TransitionSystem, k: int) -> Query:
    _check_k(k)
    return Query(QueryKind.BASE, k, sys)


def encode_extended_base_case(
    sys: TransitionSystem,
    k: int,
    targets: Sequence[Target],
    include_violations: bool = True,
) -> Query:
    _check_k(k)
    return Query(QueryKind.EXTENDED_BASE, k, sys, tuple(targets), include_violations)


def encode_forward_condition(sys: TransitionSystem, k: int) -> Query:
    _check_k(k)
    return Query(QueryKind.FORWARD, k, sys)


def encode_inductive_step(sys: TransitionSystem, k: int) -> Query:
    _check_k(k)
    return Query(QueryKind.INDUCTIVE, k, sys)


def _check_k(k: int) -> None:
    if k < 1:
        raise InternalError(f"query depth must be at least 1, got {k}")


# ---------------------------------------------------------------------------
# Formula builders, one per query kind


def _reach_formula(q: Query) -> _Formula:
    sys, k, targets = q.system, q.k, q.targets
    bad = ir.not_(props_conj(sys))
    defs = _path_defs(sys, k)
    markers: list[Marker] = []
    for i in range(1, k + 1):
        name = f"viol@@{i}"
        defs.append((name, timed(bad, i)))
        markers.append(Marker(name, i))
    for t in targets:
        for i in range(1, k + 1):
            name = f"tgt{t.tid}@@{i}"
            defs.append((name, state_equals(sys, i, t.first_state)))
            markers.append(Marker(name, i, t.tid))
    disjuncts = []
    for i in range(1, k + 1):
        hits = []
        if q.include_violations:
            hits.append(ir.var(f"viol@@{i}", BOOL))
        hits.extend(ir.var(f"tgt{t.tid}@@{i}", BOOL) for t in targets)
        disjuncts.append(ir.conj([ir.var(f"path@@{i}", BOOL), ir.disj(hits)]))
    assertion = ir.conj([timed(sys.init, 1), ir.disj(disjuncts)])
    return _Formula(tuple(markers), tuple(defs), assertion)


def _forward_formula(q: Query) -> _Formula:
    sys, k = q.system, q.k
    parts = [timed(sys.init, 1)]
    parts.extend(_path_conj(sys, k))
    parts.append(ir.not_(timed(sys.halt, k)))
    return _Formula((), (), ir.conj(parts))


def _inductive_formula(q: Query) -> _Formula:
    sys, k = q.system, q.k
    phi = props_conj(sys)
    parts: list[Expr] = []
    parts.extend(_path_conj(sys, k))
    parts.extend(timed(phi, i) for i in range(1, k))
    parts.append(ir.not_(timed(phi, k)))
    return _Formula((), (), ir.conj(parts))


_FORMULA = {
    QueryKind.BASE: _reach_formula,
    QueryKind.EXTENDED_BASE: _reach_formula,
    QueryKind.FORWARD: _forward_formula,
    QueryKind.INDUCTIVE: _inductive_formula,
}


# ---------------------------------------------------------------------------
# SMT-LIB serialization


def _smt_sort(sort: Sort) -> str:
    return "Bool" if sort.is_bool else f"(_ BitVec {sort.width})"


_SMT_OP = {
    "not": "not",
    "and": "and",
    "or": "or",
    "implies": "=>",
    "iff": "=",
    "ite": "ite",
    "=": "=",
    "bvnot": "bvnot",
    "bvadd": "bvadd",
    "bvsub": "bvsub",
    "bvmul": "bvmul",
    "bvand": "bvand",
    "bvor": "bvor",
    "bvxor": "bvxor",
    "bvule": "bvule",
    "bvult": "bvult",
    "bvuge": "bvuge",
    "bvugt": "bvugt",
}


def smt_expr(e: Expr) -> str:
    if e.op == "const":
        if e.sort.is_bool:
            return "true" if e.value else "false"
        return "#b" + format(int(e.value), f"0{e.sort.width}b")
    if e.op == "var":
        return e.name
    if e.op == "next":
        raise InternalError("next() must be timed away before serialization")
    op = _SMT_OP.get(e.op)
    if op is None:
        raise InternalError(f"no SMT-LIB rendering for operator {e.op!r}")
    return "(" + " ".join([op] + [smt_expr(a) for a in e.args]) + ")"


def serialize_smtlib(q: Query) -> str:
    """Deterministic one-shot SMT-LIB 2 document for the query."""
    lines = [
        "(set-option :produce-models true)",
        "(set-logic QF_BV)",
        f"; {q.kind.value} k={q.k}",
    ]
    names: list[str] = []
    for tv in q.decls:
        names.append(tv.name)
        lines.append(f"(declare-const {tv.name} {_smt_sort(tv.sort)})")
    for name, _ in q.marker_defs:
        names.append(name)
        lines.append(f"(declare-const {name} Bool)")
    for name, defn in q.marker_defs:
        lines.append(f"(assert (= {name} {smt_expr(defn)}))")
    lines.append(f"(assert {smt_expr(q.assertion)})")
    lines.append("(check-sat)")
    if names:
        lines.append(f"(get-value ({' '.join(names)}))")
    lines.append("(exit)")
    return "\n".join(lines) + "\n"
