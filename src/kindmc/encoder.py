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
main assertion (marker_defs). They are definitions of the SMT-LIB text only:
no decoder reads them, since a base-case answer is decided from its path
(solver.decode_model). The four query kinds:

  base           init(s1) and, for some i <= k, path to i with viol@@i
  extended-base  like base, but a step may also hit a target state
  forward        init(s1), full path to k, halt(s_k) false
  inductive      path of k states, properties hold at 1..k-1, fail at k

A Query holds only the question: kind, k, system, targets and whether
violations count. Its formula (decls, marker_defs, assertion) is built
from those on first read, by whichever consumer needs it: serialize_smtlib
for an external solver, the re-check of a satisfying model and the naive
enumeration fallback. The enum backend answers from the question alone, so
an unsatisfiable answer there never builds a formula. Nor does a
satisfiable base case there, until its model is read: the backend checks
the answer's path against the system's semantics and decodes it from the
path. Target ids must be distinct within a query, since each names its
definitions, and each target's first state binds exactly the system's
state variables, so that every backend matches it alike.

Formulas are assembled from shared timed subterms: timed(trans, i),
timed(init, 1), timed(halt, k), and the property conjunction phi and its
negation at step i. Each is built once per system, on first use, and every
later query of that system reuses the same object, so a run of k iterations
builds each step's transition relation once rather than once per
satisfiable answer. The cache is an ir.per_system slot, one per thread: it
holds the last system the thread queried and its subterms until the thread
queries a different system object. A target's state equality at step i is
built anew by each extended base case formula: a run on the enum backend
builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from . import ir
from .errors import InternalError
from .ir import BOOL, Expr, Sort, State, TransitionSystem


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

    @property
    def name(self) -> str:
        return f"{self.base}@{self.step}"


class Target:
    """A reachability goal harvested from an inductive-step counterexample:
    first_state is the state the bad suffix starts from, suffix the whole
    path (with its inputs) to the property violation.

    A base case reads only first_state. So the engine makes a target with
    `on_read`, from its first state and a function that builds the suffix:
    the suffix is built on its first read, then kept. Equality, hashing
    and repr are over (first_state, suffix, born_at_k, tid), as for the
    frozen dataclass this class replaced, so they read the suffix.

    `_checked` is the state_vars of the system whose variables first_state
    was last found to bind, so that an engine, which hands every query all
    its targets, has each checked once per system."""

    __slots__ = ("first_state", "born_at_k", "tid", "_suffix", "_build", "_checked")

    def __init__(self, first_state: State, suffix: "ir.Trace", born_at_k: int, tid: int) -> None:
        self.first_state = first_state
        self.born_at_k = born_at_k
        self.tid = tid
        self._suffix = suffix
        self._build: Optional[Callable[[], "ir.Trace"]] = None
        self._checked: Optional[tuple] = None

    @classmethod
    def on_read(
        cls, first_state: State, build: Callable[[], "ir.Trace"], born_at_k: int, tid: int
    ) -> "Target":
        t = cls(first_state, None, born_at_k, tid)  # type: ignore[arg-type]
        t._build = build
        return t

    @property
    def suffix(self) -> "ir.Trace":
        if self._build is not None:
            self._suffix = self._build()
            self._build = None
        return self._suffix

    def _key(self) -> tuple:
        return (self.first_state, self.suffix, self.born_at_k, self.tid)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Target(first_state={self.first_state!r}, suffix={self.suffix!r},"
            f" born_at_k={self.born_at_k!r}, tid={self.tid!r})"
        )


class _Formula(NamedTuple):
    marker_defs: tuple[tuple[str, Expr], ...]
    assertion: Expr


@dataclass(frozen=True)
class Query:
    """The question a solver is asked. Its SMT formula (decls, marker_defs,
    assertion) is built from these fields on first read."""

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


def state_equals(sys: TransitionSystem, step: int, state: State) -> Expr:
    """s_step equals the given concrete state, as a conjunction over state
    variables."""
    values = state.as_dict()
    parts = []
    for d in sys.state_vars:
        if d.name not in values:
            raise InternalError(f"target state missing variable {d.name!r}")
        parts.append(ir.eq(ir.var(f"{d.name}@{step}", d.sort), ir.const(values[d.name], d.sort)))
    return ir.conj(parts)


def props_conj(sys: TransitionSystem) -> Expr:
    return ir.conj([p.expr for p in sys.props])


def _decls(sys: TransitionSystem, k: int) -> tuple[TimedVar, ...]:
    out: list[TimedVar] = []
    for step in range(1, k + 1):
        for d in sys.state_vars:
            out.append(TimedVar(d.name, step, d.sort))
        if step < k:
            for d in sys.input_vars:
                out.append(TimedVar(d.name, step, d.sort))
    return tuple(out)


class _TimedTerms(dict):
    """The timed sections of one system, keyed by (section, step): each
    `timed(section, step)` is built on first lookup and then shared by every
    query of the system."""

    def __init__(self, sys: TransitionSystem) -> None:
        super().__init__()
        phi = props_conj(sys)
        self._sections = {
            "init": sys.init,
            "trans": sys.trans,
            "halt": sys.halt,
            "phi": phi,
            "bad": ir.not_(phi),
        }

    def __missing__(self, key: tuple[str, int]) -> Expr:
        section, step = key
        e = self[key] = timed(self._sections[section], step)
        return e


_terms = ir.per_system(_TimedTerms)


def _path_defs(at: _TimedTerms, k: int) -> list[tuple[str, Expr]]:
    defs: list[tuple[str, Expr]] = [("path@@1", ir.TRUE)]
    for i in range(1, k):
        defs.append((f"path@@{i + 1}", ir.and_(ir.var(f"path@@{i}", BOOL), at["trans", i])))
    return defs


def _path_conj(at: _TimedTerms, k: int) -> list[Expr]:
    return [at["trans", i] for i in range(1, k)]


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
    svars = sys.state_vars
    tids: set[int] = set()
    for t in targets:
        if t.tid in tids:
            raise InternalError(f"target id {t.tid} is used by two targets")
        if t._checked is not svars:
            declared = tuple(sorted(d.name for d in svars))
            if t.first_state.names() != declared:
                raise InternalError(
                    f"target {t.tid} binds {t.first_state.names()}, system declares {declared}"
                )
            t._checked = svars
        tids.add(t.tid)
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
    at = _terms(sys)
    defs = _path_defs(at, k)
    defs.extend((f"viol@@{i}", at["bad", i]) for i in range(1, k + 1))
    for t in targets:
        defs.extend(
            (f"tgt{t.tid}@@{i}", state_equals(sys, i, t.first_state)) for i in range(1, k + 1)
        )
    disjuncts = []
    for i in range(1, k + 1):
        hits = []
        if q.include_violations:
            hits.append(ir.var(f"viol@@{i}", BOOL))
        hits.extend(ir.var(f"tgt{t.tid}@@{i}", BOOL) for t in targets)
        disjuncts.append(ir.conj([ir.var(f"path@@{i}", BOOL), ir.disj(hits)]))
    assertion = ir.conj([at["init", 1], ir.disj(disjuncts)])
    return _Formula(tuple(defs), assertion)


def _forward_formula(q: Query) -> _Formula:
    at, k = _terms(q.system), q.k
    parts = [at["init", 1]]
    parts.extend(_path_conj(at, k))
    parts.append(ir.not_(at["halt", k]))
    return _Formula((), ir.conj(parts))


def _inductive_formula(q: Query) -> _Formula:
    at, k = _terms(q.system), q.k
    parts: list[Expr] = []
    parts.extend(_path_conj(at, k))
    parts.extend(at["phi", i] for i in range(1, k))
    parts.append(at["bad", k])
    return _Formula((), ir.conj(parts))


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
