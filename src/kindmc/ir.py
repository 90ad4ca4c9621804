"""Core intermediate representation: sorts, expressions, transition systems,
states, traces, and the reference evaluator.

Value conventions: Bool values are Python bools, bit-vector values are
non-negative Python ints below 2**width. All bit-vector arithmetic is
unsigned with wrap-around (mod 2**width).

The reference evaluator, eval_expr, checks every model and replays every
trace (replay_trace). It dispatches on one table, _EVAL, that maps each
operator to a small function; each function evaluates its operands through
the table again, so an expression level costs exactly one Python frame.
It interprets the Expr tree directly and keeps nothing between calls, so
it stays independent of the executor's compiled closures in concrete.py.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar, Union

from .errors import InternalError, SortError, ValidationError

Value = Union[bool, int]
T = TypeVar("T")

MAX_WIDTH = 64

# Deepest expression accepted, counted in nodes from the root to a leaf. The
# reader bounds parenthesis nesting by the same number and validate() bounds
# expressions built in Python, so no recursive pass overruns the stack.
MAX_NESTING = 200

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True)
class Sort:
    """Bool or a fixed-width unsigned bit-vector. width == 0 means Bool."""

    width: int

    def __post_init__(self) -> None:
        if self.width < 0 or self.width > MAX_WIDTH:
            raise SortError(f"bit-vector width must be 1..{MAX_WIDTH}, got {self.width}")

    @property
    def is_bool(self) -> bool:
        return self.width == 0

    @property
    def bits(self) -> int:
        """Number of bits needed to enumerate values of this sort."""
        return 1 if self.is_bool else self.width

    def num_values(self) -> int:
        return 2 if self.is_bool else 1 << self.width

    def contains(self, v: Value) -> bool:
        if self.is_bool:
            return isinstance(v, bool)
        return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < (1 << self.width)

    def __str__(self) -> str:
        return "bool" if self.is_bool else f"(bv {self.width})"


BOOL = Sort(0)


def bitvec(width: int) -> Sort:
    """The bit-vector sort of the given width: one shared object per width,
    so sorts compare by identity first."""
    if width < 1:
        raise SortError(f"bit-vector width must be at least 1, got {width}")
    if width <= MAX_WIDTH:
        return _BITVECS[width]
    return Sort(width)  # raises


_BITVECS = tuple(Sort(w) for w in range(MAX_WIDTH + 1))


# ---------------------------------------------------------------------------
# Expressions
#
# A single node class keyed by an op string keeps construction, evaluation,
# and serialization in one obvious place each. Every node carries its sort,
# computed by the constructor functions below; building through them is the
# only supported path and guarantees well-sortedness by construction.


@dataclass(frozen=True)
class Expr:
    op: str
    sort: Sort
    args: tuple["Expr", ...] = ()
    name: str = ""        # payload for var / next
    value: Value = False  # payload for const


def const(value: Value, sort: Sort) -> Expr:
    if not sort.contains(value if not sort.is_bool else bool(value)):
        raise SortError(f"constant {value!r} does not fit sort {sort}")
    if sort.is_bool:
        value = bool(value)
    return Expr("const", sort, value=value)


TRUE = const(True, BOOL)
FALSE = const(False, BOOL)


def bv_const(value: int, width: int) -> Expr:
    return const(value, bitvec(width))


def var(name: str, sort: Sort) -> Expr:
    if not name:
        raise ValidationError("variable reference needs a name")
    return Expr("var", sort, name=name)


def next_var(name: str, sort: Sort) -> Expr:
    """Reference to a state variable in the successor state. Only valid in trans."""
    if not name:
        raise ValidationError("next reference needs a name")
    return Expr("next", sort, name=name)


def _need_bool(e: Expr, op: str) -> None:
    if not e.sort.is_bool:
        raise SortError(f"operand of {op} has sort {e.sort}, expected bool")


def _need_same_bv(a: Expr, b: Expr, op: str) -> Sort:
    if a.sort.is_bool or b.sort.is_bool:
        raise SortError(f"operand of {op} has sort bool, expected a bit-vector")
    if a.sort != b.sort:
        raise SortError(f"operands of {op} have sorts {a.sort} and {b.sort}")
    return a.sort


def not_(a: Expr) -> Expr:
    _need_bool(a, "not")
    return Expr("not", BOOL, (a,))


def and_(*args: Expr) -> Expr:
    if len(args) < 2:
        raise SortError("and takes at least two operands")
    for a in args:
        _need_bool(a, "and")
    return Expr("and", BOOL, tuple(args))


def or_(*args: Expr) -> Expr:
    if len(args) < 2:
        raise SortError("or takes at least two operands")
    for a in args:
        _need_bool(a, "or")
    return Expr("or", BOOL, tuple(args))


def implies(a: Expr, b: Expr) -> Expr:
    _need_bool(a, "implies")
    _need_bool(b, "implies")
    return Expr("implies", BOOL, (a, b))


def iff(a: Expr, b: Expr) -> Expr:
    _need_bool(a, "iff")
    _need_bool(b, "iff")
    return Expr("iff", BOOL, (a, b))


def ite(c: Expr, t: Expr, e: Expr) -> Expr:
    _need_bool(c, "ite")
    if t.sort != e.sort:
        raise SortError(f"ite branches have sorts {t.sort} and {e.sort}")
    return Expr("ite", t.sort, (c, t, e))


def eq(a: Expr, b: Expr) -> Expr:
    if a.sort != b.sort:
        raise SortError(f"operands of = have sorts {a.sort} and {b.sort}")
    return Expr("=", BOOL, (a, b))


def bvnot(a: Expr) -> Expr:
    if a.sort.is_bool:
        raise SortError("operand of bvnot has sort bool, expected a bit-vector")
    return Expr("bvnot", a.sort, (a,))


def _bv_bin(op: str, a: Expr, b: Expr) -> Expr:
    return Expr(op, _need_same_bv(a, b, op), (a, b))


def _bv_cmp(op: str, a: Expr, b: Expr) -> Expr:
    _need_same_bv(a, b, op)
    return Expr(op, BOOL, (a, b))


def bvadd(a: Expr, b: Expr) -> Expr:
    return _bv_bin("bvadd", a, b)


def bvsub(a: Expr, b: Expr) -> Expr:
    return _bv_bin("bvsub", a, b)


def bvmul(a: Expr, b: Expr) -> Expr:
    return _bv_bin("bvmul", a, b)


def bvand(a: Expr, b: Expr) -> Expr:
    return _bv_bin("bvand", a, b)


def bvor(a: Expr, b: Expr) -> Expr:
    return _bv_bin("bvor", a, b)


def bvxor(a: Expr, b: Expr) -> Expr:
    return _bv_bin("bvxor", a, b)


def bvule(a: Expr, b: Expr) -> Expr:
    return _bv_cmp("bvule", a, b)


def bvult(a: Expr, b: Expr) -> Expr:
    return _bv_cmp("bvult", a, b)


def bvuge(a: Expr, b: Expr) -> Expr:
    return _bv_cmp("bvuge", a, b)


def bvugt(a: Expr, b: Expr) -> Expr:
    return _bv_cmp("bvugt", a, b)


def conj(parts: Iterable[Expr]) -> Expr:
    """Conjunction folding trivial cases: () -> true, (x,) -> x."""
    kept = []
    for p in parts:
        if p.op == "const" and p.sort.is_bool:
            if not p.value:
                return FALSE
            continue
        kept.append(p)
    if not kept:
        return TRUE
    if len(kept) == 1:
        return kept[0]
    return and_(*kept)


def disj(parts: Iterable[Expr]) -> Expr:
    """Disjunction folding trivial cases: () -> false, (x,) -> x."""
    kept = []
    for p in parts:
        if p.op == "const" and p.sort.is_bool:
            if p.value:
                return TRUE
            continue
        kept.append(p)
    if not kept:
        return FALSE
    if len(kept) == 1:
        return kept[0]
    return or_(*kept)


def walk(e: Expr) -> Iterator[Expr]:
    """Every node, in pre-order, without recursion."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        if n.args:
            stack.extend(n.args[::-1])


def free_names(e: Expr) -> set[str]:
    """Names of plain (non-next) variable references."""
    return {n.name for n in walk(e) if n.op == "var"}


def next_names(e: Expr) -> set[str]:
    return {n.name for n in walk(e) if n.op == "next"}


# ---------------------------------------------------------------------------
# Systems


class VarRole(Enum):
    STATE = "state"
    INPUT = "input"


@dataclass(frozen=True)
class VarDecl:
    name: str
    sort: Sort
    role: VarRole

    def __post_init__(self) -> None:
        if not IDENT_RE.match(self.name):
            raise ValidationError(
                f"invalid identifier {self.name!r}: must match [A-Za-z_][A-Za-z0-9_]*"
            )


@dataclass(frozen=True)
class Prop:
    """A named safety property over state variables."""

    name: str
    expr: Expr


@dataclass(frozen=True)
class TransitionSystem:
    """A symbolic finite transition system.

    vars holds state and input declarations in declaration order. init, the
    props, and halt range over state variables only; trans may additionally
    reference input variables and next(x) for state variables x.

    A system is validated when it is built: constructing an ill-formed one
    raises ValidationError or SortError, so every instance is well-formed.
    The variable lists and bit counts are computed once, on first read;
    equality and hashing use the fields alone.
    """

    vars: tuple[VarDecl, ...]
    init: Expr
    trans: Expr
    props: tuple[Prop, ...]
    halt: Expr
    name: str = field(default="system", compare=False)

    def __post_init__(self) -> None:
        self.validate()

    @cached_property
    def state_vars(self) -> tuple[VarDecl, ...]:
        return tuple(v for v in self.vars if v.role is VarRole.STATE)

    @cached_property
    def input_vars(self) -> tuple[VarDecl, ...]:
        return tuple(v for v in self.vars if v.role is VarRole.INPUT)

    @cached_property
    def state_bits(self) -> int:
        return sum(v.sort.bits for v in self.state_vars)

    @cached_property
    def input_bits(self) -> int:
        return sum(v.sort.bits for v in self.input_vars)

    def validate(self) -> None:
        """Raise ValidationError if the system is not well-formed."""
        seen: set[str] = set()
        for v in self.vars:
            if v.name in seen:
                raise ValidationError(f"duplicate declaration of {v.name!r}")
            seen.add(v.name)
        if not self.state_vars:
            raise ValidationError("a system needs at least one state variable")
        if not self.props:
            raise ValidationError("a system needs at least one property")
        pnames: set[str] = set()
        for p in self.props:
            if not IDENT_RE.match(p.name):
                raise ValidationError(f"invalid property name {p.name!r}")
            if p.name in pnames:
                raise ValidationError(f"duplicate property name {p.name!r}")
            pnames.add(p.name)
        state = {v.name: v.sort for v in self.state_vars}
        inputs = {v.name: v.sort for v in self.input_vars}
        self._check_expr(self.init, "init", state, inputs, allow_input=False, allow_next=False)
        self._check_expr(self.trans, "trans", state, inputs, allow_input=True, allow_next=True)
        for p in self.props:
            self._check_expr(p.expr, f"prop {p.name}", state, inputs, False, False)
        self._check_expr(self.halt, "halt", state, inputs, False, False)
        for section in (self.init, self.trans, self.halt):
            if not section.sort.is_bool:
                raise ValidationError("init, trans, and halt must be boolean")
        for p in self.props:
            if not p.expr.sort.is_bool:
                raise ValidationError(f"prop {p.name} must be boolean")

    def _check_expr(
        self,
        e: Expr,
        where: str,
        state: Mapping[str, Sort],
        inputs: Mapping[str, Sort],
        allow_input: bool,
        allow_next: bool,
    ) -> None:
        """Check e's nesting bound and its variable references in one walk,
        a level at a time and without recursion. A nesting error comes
        before any reference error; a bad reference is then reported by
        _check_refs, which meets the first one in pre-order."""
        plain = {**state, **inputs} if allow_input else state
        nexts = state if allow_next else {}
        leaves: list[Expr] = []
        level, d = [e], 0
        while level:
            d += 1
            if d > MAX_NESTING:
                raise ValidationError(f"{where} is nested deeper than {MAX_NESTING} levels")
            leaves += [n for n in level if not n.args]
            level = [a for n in level for a in n.args]
        for n in leaves:
            op = n.op
            if op == "var":
                if plain.get(n.name) != n.sort:
                    break
            elif op == "next" and nexts.get(n.name) != n.sort:
                break
        else:
            return
        self._check_refs(e, where, state, inputs, allow_input, allow_next)

    @staticmethod
    def _check_refs(
        e: Expr,
        where: str,
        state: Mapping[str, Sort],
        inputs: Mapping[str, Sort],
        allow_input: bool,
        allow_next: bool,
    ) -> None:
        for n in walk(e):
            if n.op == "var":
                if n.name in state:
                    declared = state[n.name]
                elif n.name in inputs:
                    if not allow_input:
                        raise ValidationError(
                            f"input variable {n.name!r} referenced in {where}"
                        )
                    declared = inputs[n.name]
                else:
                    raise ValidationError(f"undeclared variable {n.name!r} in {where}")
                if declared != n.sort:
                    raise SortError(
                        f"{where}: {n.name} has declared sort {declared}, used as {n.sort}"
                    )
            elif n.op == "next":
                if not allow_next:
                    raise ValidationError(f"next({n.name}) outside trans, in {where}")
                if n.name not in state:
                    raise ValidationError(
                        f"next({n.name}) does not name a state variable, in {where}"
                    )
                if state[n.name] != n.sort:
                    raise SortError(
                        f"{where}: next({n.name}) has declared sort {state[n.name]},"
                        f" used as {n.sort}"
                    )


def per_system(build: Callable[[TransitionSystem], T]) -> Callable[[TransitionSystem], T]:
    """A one-slot cache per thread: the returned get(sys) gives build(sys)
    for the last system object this thread passed, and builds again when
    passed another object.

    One slot is enough, since every query of a run asks about one system
    and `compare` runs both engines on the same object, in one thread. A
    value is only ever used by the thread that built it, so it needs no
    lock: another thread asking about the same object builds its own. The
    slot is keyed by identity, because systems hash by value, recursively;
    it holds its system strongly, so that system's id cannot be reused
    while it is there.
    """
    slots = threading.local()

    def get(sys: TransitionSystem) -> T:
        held = getattr(slots, "held", None)
        if held is None or held[0] is not sys:
            held = slots.held = (sys, build(sys))
        return held[1]

    return get


# ---------------------------------------------------------------------------
# States and traces


class State:
    """An immutable total assignment of values to variable names.

    Also used for per-step input valuations. Hashable, so it can key sets
    and dicts in explicit-state search.
    """

    __slots__ = ("_items",)

    def __init__(self, bindings: Mapping[str, Value]) -> None:
        object.__setattr__(self, "_items", tuple(sorted(bindings.items())))

    def as_dict(self) -> dict[str, Value]:
        return dict(self._items)

    def names(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self._items)

    def __getitem__(self, name: str) -> Value:
        for k, v in self._items:
            if k == name:
                return v
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(k == name for k, _ in self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={_fmt_value(v)}" for k, v in self._items)
        return f"State({body})"


def _fmt_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def states_equal(a: State, b: State) -> bool:
    """Equality over identical variable sets; differing sets indicate a bug."""
    if a.names() != b.names():
        raise InternalError(f"states bind different variables: {a.names()} vs {b.names()}")
    return a == b


@dataclass(frozen=True)
class Trace:
    """A finite execution: n states and the n-1 input valuations between them."""

    states: tuple[State, ...]
    inputs: tuple[State, ...]
    violated_prop: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.states:
            raise ValidationError("a trace needs at least one state")
        if len(self.inputs) != len(self.states) - 1:
            raise ValidationError(
                f"trace has {len(self.states)} states but {len(self.inputs)} input steps"
            )

    def __len__(self) -> int:
        return len(self.states)


# ---------------------------------------------------------------------------
# Evaluation

_Env = Mapping[str, Value]
_NO_BINDINGS: _Env = MappingProxyType({})
_MASKS = tuple((1 << w) - 1 for w in range(MAX_WIDTH + 1))


def eval_expr(
    e: Expr,
    state: _Env | State,
    inputs: _Env | State | None = None,
    next_state: _Env | State | None = None,
) -> Value:
    """Evaluate an expression under concrete bindings.

    A plain name is looked up in state, then in inputs; a next(x) reference
    in next_state. An unbound name indicates a validation bug upstream and
    raises InternalError rather than returning a default, as does an
    operator the evaluator does not know.
    """
    env = _bindings(state)
    if inputs is not None:
        env = {**_bindings(inputs), **env}
    nxt = _NO_BINDINGS if next_state is None else _bindings(next_state)
    return _evaluate(e, env, nxt)


def _evaluate(e: Expr, env: _Env, nxt: _Env) -> Value:
    try:
        return _EVAL[e.op](e, env, nxt)
    except KeyError as exc:
        # _var and _next turn a missing name into InternalError, so a
        # KeyError here is an op that _EVAL lacks
        raise InternalError(f"unknown operator {exc.args[0]!r}") from None


def _bindings(b: _Env | State) -> _Env:
    return b.as_dict() if isinstance(b, State) else b


# One function per operator, each called as f(e, env, nxt): env binds the
# plain names, nxt the next-state names. Each evaluates its operands through
# _EVAL itself, so an expression level costs one Python frame.


def _const(e: Expr, env: _Env, nxt: _Env) -> Value:
    return e.value


def _var(e: Expr, env: _Env, nxt: _Env) -> Value:
    try:
        return env[e.name]
    except KeyError:
        raise InternalError(f"unbound variable {e.name!r} during evaluation") from None


def _next(e: Expr, env: _Env, nxt: _Env) -> Value:
    try:
        return nxt[e.name]
    except KeyError:
        raise InternalError(f"unbound next({e.name}) during evaluation") from None


def _not(e: Expr, env: _Env, nxt: _Env) -> Value:
    a = e.args[0]
    return not _EVAL[a.op](a, env, nxt)


def _and(e: Expr, env: _Env, nxt: _Env) -> Value:
    for a in e.args:
        if not _EVAL[a.op](a, env, nxt):
            return False
    return True


def _or(e: Expr, env: _Env, nxt: _Env) -> Value:
    for a in e.args:
        if _EVAL[a.op](a, env, nxt):
            return True
    return False


def _implies(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return not _EVAL[a.op](a, env, nxt) or bool(_EVAL[b.op](b, env, nxt))


def _iff(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return (not _EVAL[a.op](a, env, nxt)) == (not _EVAL[b.op](b, env, nxt))


def _ite(e: Expr, env: _Env, nxt: _Env) -> Value:
    c, t, f = e.args
    if _EVAL[c.op](c, env, nxt):
        return _EVAL[t.op](t, env, nxt)
    return _EVAL[f.op](f, env, nxt)


def _eq(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return _EVAL[a.op](a, env, nxt) == _EVAL[b.op](b, env, nxt)


def _bvnot(e: Expr, env: _Env, nxt: _Env) -> Value:
    a = e.args[0]
    return _MASKS[e.sort.width] ^ _EVAL[a.op](a, env, nxt)


def _bvadd(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return (_EVAL[a.op](a, env, nxt) + _EVAL[b.op](b, env, nxt)) & _MASKS[e.sort.width]


def _bvsub(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return (_EVAL[a.op](a, env, nxt) - _EVAL[b.op](b, env, nxt)) & _MASKS[e.sort.width]


def _bvmul(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return (_EVAL[a.op](a, env, nxt) * _EVAL[b.op](b, env, nxt)) & _MASKS[e.sort.width]


def _bvand(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return _EVAL[a.op](a, env, nxt) & _EVAL[b.op](b, env, nxt)


def _bvor(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return _EVAL[a.op](a, env, nxt) | _EVAL[b.op](b, env, nxt)


def _bvxor(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return _EVAL[a.op](a, env, nxt) ^ _EVAL[b.op](b, env, nxt)


def _bvule(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return _EVAL[a.op](a, env, nxt) <= _EVAL[b.op](b, env, nxt)


def _bvult(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return _EVAL[a.op](a, env, nxt) < _EVAL[b.op](b, env, nxt)


def _bvuge(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return _EVAL[a.op](a, env, nxt) >= _EVAL[b.op](b, env, nxt)


def _bvugt(e: Expr, env: _Env, nxt: _Env) -> Value:
    a, b = e.args
    return _EVAL[a.op](a, env, nxt) > _EVAL[b.op](b, env, nxt)


_EVAL: dict[str, Callable[..., Value]] = {
    "const": _const,
    "var": _var,
    "next": _next,
    "not": _not,
    "and": _and,
    "or": _or,
    "implies": _implies,
    "iff": _iff,
    "ite": _ite,
    "=": _eq,
    "bvnot": _bvnot,
    "bvadd": _bvadd,
    "bvsub": _bvsub,
    "bvmul": _bvmul,
    "bvand": _bvand,
    "bvor": _bvor,
    "bvxor": _bvxor,
    "bvule": _bvule,
    "bvult": _bvult,
    "bvuge": _bvuge,
    "bvugt": _bvugt,
}


# ---------------------------------------------------------------------------
# Trace replay


@dataclass(frozen=True)
class ReplayVerdict:
    ok: bool
    reason: Optional[str] = None
    index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def replay_trace(sys: TransitionSystem, trace: Trace) -> ReplayVerdict:
    """Check a trace against a system, step by step.

    Verifies that every state binds exactly the state variables with in-range
    values, that state 0 satisfies init, that every step satisfies trans
    under its recorded inputs, and that violated_prop, when set, names a
    property that is false at the final state. Malformed traces yield an
    invalid verdict with a reason; this function does not raise. To replay
    a path that need not start in an initial state, such as an inductive
    step's suffix, replay it against the system with init replaced by true.
    """
    svars = sys.state_vars
    ivars = sys.input_vars
    snames = tuple(sorted(v.name for v in svars))
    inames = tuple(sorted(v.name for v in ivars))
    sorts = {v.name: v.sort for v in sys.vars}
    # each State once as a dict, its names checked on the dict's keys: a
    # State looks a name up by a linear scan
    states: list[dict[str, Value]] = []
    inputs: list[dict[str, Value]] = []
    try:
        for i, st in enumerate(trace.states):
            values = st.as_dict()
            if tuple(values) != snames:
                return ReplayVerdict(False, f"state {i} binds {st.names()}, expected {snames}", i)
            for n in snames:
                if not sorts[n].contains(values[n]):
                    return ReplayVerdict(False, f"state {i}: {n}={values[n]!r} out of range", i)
            states.append(values)
        for i, iv in enumerate(trace.inputs):
            values = iv.as_dict()
            if tuple(values) != inames:
                return ReplayVerdict(False, f"inputs {i} bind {iv.names()}, expected {inames}", i)
            for n in inames:
                if not sorts[n].contains(values[n]):
                    return ReplayVerdict(False, f"inputs {i}: {n}={values[n]!r} out of range", i)
            inputs.append(values)
        if not _evaluate(sys.init, states[0], _NO_BINDINGS):
            return ReplayVerdict(False, "state 0 does not satisfy init", 0)
        for i in range(len(states) - 1):
            env = {**inputs[i], **states[i]}
            if not _evaluate(sys.trans, env, states[i + 1]):
                return ReplayVerdict(False, f"step {i} -> {i + 1} does not satisfy trans", i)
        if trace.violated_prop is not None:
            match = [p for p in sys.props if p.name == trace.violated_prop]
            if not match:
                return ReplayVerdict(False, f"unknown property {trace.violated_prop!r}")
            last = len(states) - 1
            if _evaluate(match[0].expr, states[last], _NO_BINDINGS):
                return ReplayVerdict(
                    False, f"property {trace.violated_prop} holds at final state", last
                )
        return ReplayVerdict(True)
    except (InternalError, SortError, ValidationError) as exc:
        return ReplayVerdict(False, f"evaluation failed: {exc}")
