"""Concrete-state execution of a transition system.

Expressions are compiled to nested closures over value tuples, and the
transition relation is split into definitional assignments (conjuncts of the
form (= (next x) e) with a next-free right-hand side) plus a residual
predicate. Successor enumeration then only iterates over input valuations and
genuinely unconstrained next variables, which keeps explicit-state search
usable at the widths the benchmark families need.

Enumeration order contract, relied on for determinism everywhere: value
tuples follow variable declaration order, and enumeration is ascending with
the first declared variable most significant (itertools.product order).
Bool orders as false < true.

A SystemExecutor keeps per-state rows, each filled on its first lookup and
then read by dict lookups alone: a state's distinct next states in
discovery order, the good ones among them (those satisfying every
property), and its first bad one. So no edge is interpreted in Python
again after its first visit, however many queries walk it.

Only the properties are compiled when an executor is built. Each other
section is compiled on first use and then kept: init when the initial
states are first enumerated, the transition relation (its next-state
definitions and residual) on the first `successors` call, and halt on
the first read of `halt_fn`. A run whose bug lies in an initial state
compiles neither trans nor halt.

The initial states and the good states are each computed once, in
enumeration order, from the definitional conjuncts (= x e) of init and of
the property conjunction: only the variables these leave free are
enumerated, the defined ones are computed in dependency order, and every
candidate is then tested against the whole formula. With no definitions,
the product of the domains is filtered as it stands.

Each executor also keeps three search chains, the one breadth-first path
search behind the enum backend: shortest paths from the initial states
(base cases), paths of exactly k states from the initial states (the
forward condition) and paths of exactly k states from the good states,
through good states, to a violation (the inductive step). A chain keeps
its layers, each built from the rows of the one before, so a query at
depth k adds at most the layers no earlier query needed: one per
iteration of the engine, not k. The answer of an exact chain at each
depth is a fact of the system: the solver keeps it, with its checked
model, in `answers`. The shortest-path chain numbers its states in
discovery order and answers with the goal of least number. A
layer maps each state to its first parent, the first state of the
previous layer whose row holds it, so a path is rebuilt, once a goal is
found, by following these links back to a root. Ties go to the first
state discovered, so the enumeration order above fixes every witness.

The executor enumerates whatever it is given: its callers bound the
state and input bits first (the solver's enum backend, the oracle, and
lint_halt_sink below). lint_halt_sink checks that halting states are
sinks, which a forward-condition proof relies on.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from functools import cached_property
from itertools import chain, compress, count, filterfalse, islice, product, repeat
from operator import contains, itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import InternalError
from .ir import (
    Expr,
    Sort,
    State,
    TransitionSystem,
    Value,
    VarDecl,
    conj,
    free_names,
    next_names,
)

EvalFn = Callable[..., Value]

# lint_halt_sink enumerates every state, so it gives up on larger systems.
HALT_SINK_BIT_CAP = 16


def _domain(sort: Sort) -> Sequence[Value]:
    if sort.is_bool:
        return (False, True)
    return range(sort.num_values())


def compile_expr(
    e: Expr,
    slots: Mapping[str, int],
    next_slots: Optional[Mapping[str, int]] = None,
) -> EvalFn:
    """Compile to a closure fn(env, nxt=None) over value tuples.

    slots maps plain variable names to indices in env; next_slots maps state
    variable names to indices in nxt. Same value conventions as eval_expr.
    """
    op = e.op
    if op == "const":
        v = e.value
        return lambda env, nxt=None: v
    if op == "var":
        i = slots[e.name]
        return lambda env, nxt=None: env[i]
    if op == "next":
        if next_slots is None:
            raise InternalError(f"next({e.name}) compiled without next slots")
        j = next_slots[e.name]
        return lambda env, nxt=None: nxt[j]
    fs = tuple(compile_expr(a, slots, next_slots) for a in e.args)
    if op == "not":
        (f0,) = fs
        return lambda env, nxt=None: not f0(env, nxt)
    if op == "and":
        return lambda env, nxt=None: all(f(env, nxt) for f in fs)
    if op == "or":
        return lambda env, nxt=None: any(f(env, nxt) for f in fs)
    if op == "implies":
        fa, fb = fs
        return lambda env, nxt=None: (not fa(env, nxt)) or bool(fb(env, nxt))
    if op == "iff":
        fa, fb = fs
        return lambda env, nxt=None: bool(fa(env, nxt)) == bool(fb(env, nxt))
    if op == "ite":
        fc, ft, fe = fs
        return lambda env, nxt=None: ft(env, nxt) if fc(env, nxt) else fe(env, nxt)
    if op == "=":
        fa, fb = fs
        return lambda env, nxt=None: fa(env, nxt) == fb(env, nxt)
    if op == "bvnot":
        (f0,) = fs
        mask = (1 << e.sort.width) - 1
        return lambda env, nxt=None: mask ^ f0(env, nxt)
    fa, fb = fs
    if op == "bvadd":
        mask = (1 << e.sort.width) - 1
        return lambda env, nxt=None: (fa(env, nxt) + fb(env, nxt)) & mask
    if op == "bvsub":
        mask = (1 << e.sort.width) - 1
        return lambda env, nxt=None: (fa(env, nxt) - fb(env, nxt)) & mask
    if op == "bvmul":
        mask = (1 << e.sort.width) - 1
        return lambda env, nxt=None: (fa(env, nxt) * fb(env, nxt)) & mask
    if op == "bvand":
        return lambda env, nxt=None: fa(env, nxt) & fb(env, nxt)
    if op == "bvor":
        return lambda env, nxt=None: fa(env, nxt) | fb(env, nxt)
    if op == "bvxor":
        return lambda env, nxt=None: fa(env, nxt) ^ fb(env, nxt)
    if op == "bvule":
        return lambda env, nxt=None: fa(env, nxt) <= fb(env, nxt)
    if op == "bvult":
        return lambda env, nxt=None: fa(env, nxt) < fb(env, nxt)
    if op == "bvuge":
        return lambda env, nxt=None: fa(env, nxt) >= fb(env, nxt)
    if op == "bvugt":
        return lambda env, nxt=None: fa(env, nxt) > fb(env, nxt)
    raise InternalError(f"unknown operator {op!r}")


def _flatten_and(e: Expr) -> list[Expr]:
    if e.op == "and":
        out: list[Expr] = []
        for a in e.args:
            out.extend(_flatten_and(a))
        return out
    if e.op == "const" and e.sort.is_bool and e.value:
        return []
    return [e]


def _as_definition(c: Expr, kind: str) -> Optional[tuple[str, Expr]]:
    """Match (= target rhs) or (= rhs target) where target is a next(x)
    reference (kind 'next') or a plain variable (kind 'var') and rhs has no
    next references."""
    if c.op != "=":
        return None
    l, r = c.args
    for lhs, rhs in ((l, r), (r, l)):
        if lhs.op == kind and not next_names(rhs):
            return lhs.name, rhs
    return None


class _Trans(NamedTuple):
    """A transition relation as successors reads it, compiled."""

    next_defs: tuple[tuple[int, EvalFn], ...]  # (slot, rhs) in trans order
    free_next: tuple[int, ...]  # slots no definition fixes
    free_domains: tuple[Sequence[Value], ...]  # their domains
    residual: tuple[EvalFn, ...]


class SystemExecutor:
    """Memoized concrete semantics for one system.

    The system is well-formed already, since TransitionSystem validates
    itself when built, and small enough to enumerate, since every caller
    checks its bits first. State and input valuations are plain tuples in
    declaration order.
    """

    def __init__(self, sys: TransitionSystem) -> None:
        self.system = sys
        self.state_decls: tuple[VarDecl, ...] = sys.state_vars
        self.input_decls: tuple[VarDecl, ...] = sys.input_vars
        self.state_names = tuple(v.name for v in self.state_decls)
        self.input_names = tuple(v.name for v in self.input_decls)
        self._state_slots = {n: i for i, n in enumerate(self.state_names)}
        nstate = len(self.state_names)
        # trans env = state values followed by input values
        self._step_slots = dict(self._state_slots)
        for i, n in enumerate(self.input_names):
            self._step_slots[n] = nstate + i
        self._state_domains = tuple(_domain(v.sort) for v in self.state_decls)
        self._input_space: tuple[tuple[Value, ...], ...] = tuple(
            product(*(_domain(v.sort) for v in self.input_decls))
        )

        self.prop_fns: tuple[tuple[str, EvalFn], ...] = tuple(
            (p.name, compile_expr(p.expr, self._state_slots)) for p in sys.props
        )

        self._succ_memo: dict[tuple, tuple[tuple[tuple, tuple], ...]] = {}
        self._initial: Optional[tuple[tuple, ...]] = None
        self._good: Optional[tuple[tuple, ...]] = None
        self._good_set: frozenset[tuple] = frozenset()
        self._targets: dict[int, tuple[object, tuple]] = {}  # id -> (target, tuple)
        # forward and inductive answers, facts of the system, kept by the
        # solver: (query kind, k) -> None or (path, checked model)
        self.answers: dict[tuple, Optional[tuple[Path, dict[str, Value]]]] = {}
        self.next_rows = _Rows(self, SystemExecutor._next_row)
        self.good_rows = _Rows(self, SystemExecutor._good_row)
        self.bad_rows = _Rows(self, SystemExecutor._bad_row)
        # the enum backend's searches: base cases, the forward condition
        # and the inductive step (at k = 1, a single bad state)
        self.reach = _ReachChain(self)
        self.forward = _ExactChain(
            self,
            SystemExecutor.initial_states,
            self.next_rows,
            self.next_rows,
            _running,
            SystemExecutor.initial_states,
        )
        self.inductive = _ExactChain(
            self,
            SystemExecutor.good_states,
            self.good_rows,
            self.bad_rows,
            _violating,
            SystemExecutor.all_states,
        )

    # -- sections compiled on first use

    @cached_property
    def halt_fn(self) -> EvalFn:
        return compile_expr(self.system.halt, self._state_slots)

    @cached_property
    def _trans(self) -> _Trans:
        """The transition relation, split into next-state definitions and a
        residual predicate, compiled."""
        defs: dict[str, Expr] = {}
        residual: list[Expr] = []
        for c in _flatten_and(self.system.trans):
            d = _as_definition(c, "next")
            if d is not None and d[0] not in defs:
                defs[d[0]] = d[1]
            else:
                residual.append(c)
        free = tuple(i for i, n in enumerate(self.state_names) if n not in defs)
        return _Trans(
            tuple(
                (self._state_slots[n], compile_expr(rhs, self._step_slots))
                for n, rhs in defs.items()
            ),
            free,
            tuple(self._state_domains[i] for i in free),
            tuple(compile_expr(c, self._step_slots, self._state_slots) for c in residual),
        )

    # -- structure extraction

    def _split_defs(self, e: Expr) -> tuple[list[tuple[str, Expr]], list[str]]:
        """Topologically ordered definitional conjuncts (= x rhs) of e, and
        the state names left free (assigned by enumeration)."""
        candidates: dict[str, Expr] = {}
        for c in _flatten_and(e):
            d = _as_definition(c, "var")
            if d is not None and d[0] in self._state_slots and d[0] not in candidates:
                candidates[d[0]] = d[1]
        if not candidates:
            return [], list(self.state_names)
        # a dependency is resolvable once defined, or immediately if it can
        # never be defined (then enumeration assigns it before any defs run)
        never_defined = set(self.state_names) - candidates.keys()
        defs: list[tuple[str, Expr]] = []
        defined: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, rhs in candidates.items():
                if name in defined:
                    continue
                if free_names(rhs) <= defined | never_defined:
                    defs.append((name, rhs))
                    defined.add(name)
                    changed = True
        free = [n for n in self.state_names if n not in defined]
        return defs, free

    # -- enumeration

    def _solutions(self, e: Expr, tests: Iterable[EvalFn]) -> tuple[tuple, ...]:
        """The states that pass every test, in ascending declaration order,
        where the tests together mean e. The definitional conjuncts of e fix
        some variables from the others, so only the rest are enumerated and
        the tests check each candidate against the whole of e. With nothing
        defined, the product is ascending already."""
        defs, free = self._split_defs(e)
        states = self._candidates(defs, free) if defs else self.all_states()
        for test in tests:
            states = filter(test, states)
        return tuple(sorted(states)) if defs else tuple(states)

    def _candidates(self, defs: list[tuple[str, Expr]], free: list[str]) -> Iterator[tuple]:
        """One state per valuation of the free names, the defined ones
        computed from it."""
        free_idx = [self._state_slots[n] for n in free]
        def_fns = [(self._state_slots[n], compile_expr(rhs, self._state_slots)) for n, rhs in defs]
        scratch: list[Value] = [d[0] for d in self._state_domains]
        for combo in product(*(self._state_domains[i] for i in free_idx)):
            for pos, v in zip(free_idx, combo):
                scratch[pos] = v
            # definitions may depend on each other; run in topological order
            for pos, fn in def_fns:
                scratch[pos] = fn(scratch)
            yield tuple(scratch)

    def initial_states(self) -> tuple[tuple, ...]:
        """All states satisfying init, in ascending declaration order."""
        if self._initial is None:
            init = self.system.init
            self._initial = self._solutions(init, (compile_expr(init, self._state_slots),))
        return self._initial

    def successors(self, s: tuple) -> tuple[tuple[tuple, tuple], ...]:
        """All (input valuation, next state) pairs reachable in one step."""
        hit = self._succ_memo.get(s)
        if hit is not None:
            return hit
        out: list[tuple[tuple, tuple]] = []
        next_defs, free_next, free_domains, residual = self._trans
        for u in self._input_space:
            env = s + u
            base: list[Value] = list(s)
            for pos, fn in next_defs:
                base[pos] = fn(env)
            for combo in product(*free_domains) if free_domains else (tuple(),):
                for pos, v in zip(free_next, combo):
                    base[pos] = v
                nxt = tuple(base)
                if all(fn(env, nxt) for fn in residual):
                    out.append((u, nxt))
        result = tuple(out)
        self._succ_memo[s] = result
        return result

    def all_states(self) -> Iterator[tuple]:
        """Every state of the declared domains, in ascending order."""
        return product(*self._state_domains)

    def good_states(self) -> tuple[tuple, ...]:
        """Every state that satisfies all properties, in ascending order."""
        if self._good is None:
            props = conj([p.expr for p in self.system.props])
            good = self._solutions(props, (fn for _, fn in self.prop_fns))
            self._good_set = frozenset(good)
            self._good = good
        return self._good

    # -- rows, filled on first lookup

    def _next_row(self, s: tuple) -> tuple[tuple, ...]:
        return tuple(dict.fromkeys(map(itemgetter(1), self.successors(s))))

    def _good_row(self, s: tuple) -> tuple[tuple, ...]:
        self.good_states()
        return tuple(filter(self._good_set.__contains__, self.next_rows[s]))

    def _bad_row(self, s: tuple) -> tuple[tuple, ...]:
        self.good_states()
        return tuple(islice(filterfalse(self._good_set.__contains__, self.next_rows[s]), 1))

    # -- conversions

    def state_obj(self, t: tuple) -> State:
        return State(dict(zip(self.state_names, t)))

    def input_obj(self, t: tuple) -> State:
        return State(dict(zip(self.input_names, t)))

    def target_tuple(self, target) -> tuple:
        """The value tuple of a target's first state, found once per target
        and executor. Targets are keyed by identity, since a target
        compares by value and reads its suffix to do so, and each is held
        here, so its id is not reused while it is a key."""
        hit = self._targets.get(id(target))
        if hit is None:
            hit = self._targets[id(target)] = (target, self.state_tuple(target.first_state))
        return hit[1]

    def state_tuple(self, st: State) -> tuple:
        """The value tuple of a state that binds exactly the state names."""
        if st.names() != tuple(sorted(self.state_names)):
            raise InternalError(
                f"state binds {st.names()}, system declares {tuple(sorted(self.state_names))}"
            )
        return tuple(st[n] for n in self.state_names)

    def violated_prop(self, t: tuple) -> Optional[str]:
        """Name of the first declared property false at this state, if any."""
        for name, fn in self.prop_fns:
            if not fn(t):
                return name
        return None


# ---------------------------------------------------------------------------
# Rows


class _Rows(dict):
    """state -> tuple of states, each row made by fill(executor, state) on
    its first lookup, so that map(rows.__getitem__, states) runs without a
    Python frame once the rows are filled. The executor is held weakly:
    it owns the rows, and a cycle would keep both alive until the cyclic
    garbage collector ran."""

    __slots__ = ("_ex", "_fill")

    def __init__(
        self,
        ex: SystemExecutor,
        fill: Callable[[SystemExecutor, tuple], tuple[tuple, ...]],
    ) -> None:
        super().__init__()
        self._ex = weakref.ref(ex)
        self._fill = fill

    def __missing__(self, s: tuple) -> tuple[tuple, ...]:
        row = self[s] = self._fill(self._ex(), s)
        return row


# ---------------------------------------------------------------------------
# Layered search chains

Path = tuple[list[tuple], list[tuple]]
Layer = dict[tuple, Optional[tuple]]  # state -> first parent, None at a root


def _violating(ex: SystemExecutor) -> Callable[[tuple], bool]:
    violated = ex.violated_prop
    return lambda s: violated(s) is not None


def _running(ex: SystemExecutor) -> Callable[[tuple], bool]:
    halt = ex.halt_fn
    return lambda s: not halt(s)


class _Chain:
    """Breadth-first layers from fixed roots, kept and grown one layer at a
    time: a query at depth k adds only the layers up to k that no earlier
    query needed. Layer j holds the states at depth j in discovery
    order, each expanded into rows[state], and maps each state to its
    first parent: the first state of layer j - 1 whose row holds it (None
    at a root). Growth stops at the first empty layer.

    The executor is held weakly, as by _Rows."""

    __slots__ = ("_ex", "_roots", "_rows", "layers")

    def __init__(
        self,
        ex: SystemExecutor,
        roots: Callable[[SystemExecutor], Iterable[tuple]],
        rows: Mapping[tuple, tuple[tuple, ...]],
    ) -> None:
        self._ex = weakref.ref(ex)
        self._roots = roots
        self._rows = rows
        self.layers: list[Layer] = []

    def _grow(self, n: int) -> int:
        """Hold n layers, or fewer ending in an empty one; returns how many
        of the first n are held."""
        layers = self.layers
        if not layers:
            self._add(dict.fromkeys(self._roots(self._ex())))
        while len(layers) < n and layers[-1]:
            self._add(self._step(layers[-1]))
        return min(n, len(layers))

    def _step(self, layer: Layer) -> Layer:
        """The states the rows of layer offer, in discovery order, each
        mapped to its first parent. Writing the links in reverse leaves
        each state's first one."""
        rows = list(map(self._rows.__getitem__, layer))
        children = list(chain.from_iterable(rows))
        parents = chain.from_iterable(map(repeat, reversed(layer), map(len, reversed(rows))))
        step = dict.fromkeys(children)
        step.update(zip(reversed(children), parents))
        return step

    def _add(self, layer: Layer) -> None:
        self.layers.append(layer)


class _ReachChain(_Chain):
    """Shortest paths: a state is discovered once, at its least depth, and
    numbered in discovery order. The answer within depth k is the goal
    state of least number among the first k layers, the one a search that
    tests each layer in turn finds first. Besides the numbers, the chain
    keeps the first violating state, so a query costs a lookup per target."""

    __slots__ = ("_index", "_ends", "_scanned", "_bad")

    def __init__(self, ex: SystemExecutor) -> None:
        super().__init__(ex, SystemExecutor.initial_states, ex.next_rows)
        self._index: dict[tuple, int] = {}
        self._ends: list[int] = []  # states discovered up to each layer
        self._scanned = 0  # layers searched for a violation so far
        self._bad: Optional[tuple] = None  # the first violating state found

    def _step(self, layer: Layer) -> Layer:
        """The next layer without the states an earlier one numbered."""
        step = super()._step(layer)
        fresh = list(filterfalse(self._index.__contains__, step))
        return dict(zip(fresh, map(step.__getitem__, fresh)))

    def _add(self, layer: Layer) -> None:
        index = self._index
        index.update(zip(layer, count(len(index))))
        self._ends.append(len(index))
        self.layers.append(layer)

    def path(self, k: int, targets: Collection[tuple], violations: bool) -> Optional[Path]:
        """A shortest path of at most k states from an initial state to a
        target state or, with violations, to a state violating a property;
        ties go to the first state discovered. None when there is none."""
        n = self._grow(k)
        index, bound = self._index, self._ends[n - 1]
        found = [(index[t], t) for t in targets if index.get(t, bound) < bound]
        if violations:
            while self._bad is None and self._scanned < n:
                layer = self.layers[self._scanned]
                self._scanned += 1
                self._bad = next(filter(_violating(self._ex()), layer), None)
            if self._bad is not None and index[self._bad] < bound:
                found.append((index[self._bad], self._bad))
        if not found:
            return None
        number, hit = min(found)
        depth = bisect_right(self._ends, number)
        return _rebuild(self._ex(), hit, self.layers[depth][hit], self.layers[:depth])


class _ExactChain(_Chain):
    """Paths of exactly k states: each layer keeps every state reached at
    its depth, and the goal is tested only at depth k, among the states
    that last_rows (which may leave out states that cannot be goals, but
    keeps each row's order) offers from layer k - 1. A one-state path is
    the first goal among singles."""

    __slots__ = ("_last_rows", "_goal", "_singles")

    def __init__(
        self,
        ex: SystemExecutor,
        roots: Callable[[SystemExecutor], Iterable[tuple]],
        rows: Mapping[tuple, tuple[tuple, ...]],
        last_rows: Mapping[tuple, tuple[tuple, ...]],
        goal: Callable[[SystemExecutor], Callable[[tuple], bool]],
        singles: Callable[[SystemExecutor], Iterable[tuple]],
    ) -> None:
        super().__init__(ex, roots, rows)
        self._last_rows = last_rows
        self._goal = goal
        self._singles = singles

    def path(self, k: int) -> Optional[Path]:
        """The first path of exactly k states from a root to a goal, or
        None."""
        ex = self._ex()
        goal = self._goal(ex)
        if k == 1:
            hit = next(filter(goal, self._singles(ex)), None)
            return None if hit is None else ([hit], [])
        if self._grow(k - 1) < k - 1 or not self.layers[k - 2]:
            return None
        layer, row = self.layers[k - 2], self._last_rows.__getitem__
        hit = next(filter(goal, chain.from_iterable(map(row, layer))), None)
        if hit is None:
            return None
        # its first parent: a second scan of filled rows, at C speed
        parent = next(compress(layer, map(contains, map(row, layer), repeat(hit))))
        return _rebuild(ex, hit, parent, self.layers[: k - 1])


def _rebuild(
    ex: SystemExecutor, state: tuple, parent: Optional[tuple], layers: Sequence[Layer]
) -> tuple[list[tuple], list[tuple]]:
    """The path ending at state, whose first parent, in the last of layers,
    is parent: each step follows the first-parent links back to a root, and
    takes the first input leading along it. That is the edge the search
    discovered each state by."""
    states = [state]
    inputs: list[tuple] = []
    for layer in reversed(layers):
        inputs.append(next(u for u, ns in ex.successors(parent) if ns == state))
        states.append(parent)
        state, parent = parent, layer[parent]
    states.reverse()
    inputs.reverse()
    return states, inputs


def lint_halt_sink(sys: TransitionSystem) -> Optional[bool]:
    """True if every halting state only steps to itself, False if some
    halting state can move, None when the state or input space is over
    HALT_SINK_BIT_CAP bits. A forward-condition proof is only meaningful
    when halting states are sinks; the engine warns otherwise."""
    cap = HALT_SINK_BIT_CAP
    if sys.state_bits > cap or sys.input_bits > cap:
        return None
    ex = SystemExecutor(sys)
    for s in ex.all_states():
        if ex.halt_fn(s) and any(nxt != s for _, nxt in ex.successors(s)):
            return False
    return True
