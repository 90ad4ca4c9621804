"""The table-driven path search against the per-edge search it replaced.

`reference_find_path` below is the breadth-first search the enum backend
used before the executor kept per-state rows: it interprets every edge of
every layer in Python, tests goals as it discovers states and records a
link per state. `reference_search` maps a query onto it as the backend did.
On the fixed families and on 800 random systems, for every query shape at
k = 1..8, `solver._search` must return the very same path: states and
inputs, not just the same length.

The executor keeps its search layers, and exact searches their answers,
from one query to the next, so the later tests ask in other orders, on
interleaved systems and from several threads, and check that an executor
is freed with its slot.
"""

from __future__ import annotations

import gc
import random
import threading
import weakref
from dataclasses import replace
from sys import getswitchinterval, setswitchinterval
from typing import Callable, Iterable, Mapping, Optional, Sequence

import pytest

from kindmc import frontend
from kindmc.concrete import SystemExecutor
from kindmc.encoder import (
    Query,
    QueryKind,
    Target,
    encode_base_case,
    encode_extended_base_case,
    encode_forward_condition,
    encode_inductive_step,
)
from kindmc.engine import VerificationReport, run_extended, run_plain
from kindmc.ir import Trace
from kindmc.solver import Solver, SolverConfig, _executor, _search

from randsys import corpus
from systems import (
    deadlock_chain,
    halt_sink,
    identity_spurious,
    input_chain,
    moving_halt,
    saturating,
)

Link = Optional[tuple[tuple, tuple]]  # (previous state, input) or None at a root
Path = Optional[tuple[list[tuple], list[tuple]]]


def reference_find_path(
    ex: SystemExecutor,
    roots: Iterable[tuple],
    k: int,
    goal: Callable[[tuple], bool],
    keep: Optional[Callable[[tuple], bool]] = None,
    exact: bool = False,
) -> Path:
    """Breadth-first search from distinct roots for the first discovered
    goal state, one edge at a time; only states that pass keep are
    expanded. Ties go to the first state discovered."""
    layers: list[dict[tuple, Link]] = []
    seen: set[tuple] = set()
    layer: dict[tuple, Link]
    if exact and k > 1:
        layer = dict.fromkeys(roots if keep is None else filter(keep, roots))
    else:
        layer = {}
        for s in roots:
            if goal(s):
                return [s], []
            if k > 1:
                seen.add(s)
                if keep is None or keep(s):
                    layer[s] = None
    for depth in range(2, k + 1):
        if not layer:
            return None
        layers.append(layer)
        frontier, layer = layer, {}
        last = depth == k
        for s in frontier:
            for u, ns in ex.successors(s):
                if exact:
                    if last:
                        if goal(ns):
                            return _unwind(ns, (s, u), layers)
                        continue
                    if ns in layer:
                        continue
                elif ns in seen:
                    continue
                else:
                    seen.add(ns)
                    if goal(ns):
                        return _unwind(ns, (s, u), layers)
                if not last and (keep is None or keep(ns)):
                    layer[ns] = (s, u)
    return None


def _unwind(
    state: tuple, link: Link, layers: Sequence[Mapping[tuple, Link]]
) -> tuple[list[tuple], list[tuple]]:
    states = [state]
    inputs: list[tuple] = []
    for layer in reversed(layers):
        if link is None:
            break
        prev, u = link
        states.append(prev)
        inputs.append(u)
        link = layer[prev]
    states.reverse()
    inputs.reverse()
    return states, inputs


def reference_search(ex: SystemExecutor, q: Query) -> Path:
    violated = ex.violated_prop
    if q.kind in (QueryKind.BASE, QueryKind.EXTENDED_BASE):
        targets = {ex.state_tuple(t.first_state) for t in q.targets}
        props = q.include_violations
        return reference_find_path(
            ex,
            ex.initial_states(),
            q.k,
            lambda s: s in targets or (props and violated(s) is not None),
        )
    if q.kind is QueryKind.FORWARD:
        halt = ex.halt_fn
        return reference_find_path(
            ex, ex.initial_states(), q.k, lambda s: not halt(s), exact=True
        )
    return reference_find_path(
        ex,
        ex.all_states(),
        q.k,
        lambda s: violated(s) is not None,
        keep=lambda s: violated(s) is None,
        exact=True,
    )


def _targets(ex: SystemExecutor) -> tuple[Target, ...]:
    """Up to three targets spread over the state space, the last state
    among them: the extended base case's goals besides violations."""
    states = list(ex.all_states())
    picks = dict.fromkeys(states[len(states) * i // 3] for i in (1, 2)) | {states[-1]: None}
    out = []
    for tid, t in enumerate(picks, 1):
        st = ex.state_obj(t)
        out.append(Target(st, Trace((st,), ()), 1, tid))
    return tuple(out)


def _queries(ex: SystemExecutor, k: int) -> list[Query]:
    sys, targets = ex.system, _targets(ex)
    return [
        encode_base_case(sys, k),
        encode_extended_base_case(sys, k, targets),
        encode_extended_base_case(sys, k, targets, include_violations=False),
        encode_forward_condition(sys, k),
        encode_inductive_step(sys, k),
    ]


FIXED = [
    frontend.chain_bug(9),
    frontend.const_check(12),
    frontend.diamond_parity(9),
    frontend.accumulator(4, "buggy"),
    frontend.accumulator(4, "safe"),
    saturating(),
    halt_sink(),
    identity_spurious(),
    moving_halt(),
    deadlock_chain(),
    input_chain(6),
]


def _agree(systems) -> tuple[int, int]:
    """Searches made and paths found; fails on the first disagreement."""
    searches = found = 0
    for sys in systems:
        # one executor per side, so the reference reads no filled row
        ex, ref = SystemExecutor(sys), SystemExecutor(sys)
        for k in range(1, 9):
            for q in _queries(ex, k):
                got, want = _search(ex, q), reference_search(ref, q)
                assert got == want, (sys.name, q.kind, q.include_violations, k)
                searches += 1
                found += got is not None
    return searches, found


def test_fixed_families_match_the_per_edge_search():
    searches, found = _agree(FIXED)
    assert searches == len(FIXED) * 8 * 5
    assert 0 < found < searches


def test_random_systems_match_the_per_edge_search():
    systems = corpus(seed=20260817, n=800, max_state_bits=8)
    searches, found = _agree(systems)
    assert searches == 800 * 8 * 5
    assert 0 < found < searches


@pytest.mark.parametrize("k", [2, 5])
def test_rows_are_filled_once_and_reused(k):
    ex = SystemExecutor(frontend.diamond_parity(9))
    q = encode_inductive_step(ex.system, k)
    first = _search(ex, q)
    rows = {name: dict(getattr(ex, name)) for name in ("next_rows", "good_rows", "bad_rows")}
    assert _search(ex, q) == first
    for name, before in rows.items():
        after = getattr(ex, name)
        assert after.keys() == before.keys()
        assert all(after[s] is row for s, row in before.items())


# ---------------------------------------------------------------------------
# Held layers and answers


def _asked(order: str, seed: int) -> list[int]:
    """The depths asked of one executor, in the given order."""
    if order == "descending":
        return list(range(8, 0, -1))
    if order == "shuffled":
        ks = list(range(1, 9))
        random.Random(seed).shuffle(ks)
        return ks
    return [k for k in range(1, 9) for _ in range(2)]


@pytest.mark.parametrize("order", ["descending", "shuffled", "twice"])
def test_paths_do_not_depend_on_the_order_of_queries(order):
    systems = FIXED + corpus(seed=20261018, n=200, max_state_bits=8)
    for i, sys in enumerate(systems):
        ex, ref = SystemExecutor(sys), SystemExecutor(sys)
        for k in _asked(order, i):
            for q in _queries(ex, k):
                assert _search(ex, q) == reference_search(ref, q), (sys.name, q.kind, k)


def test_interleaved_systems_get_their_own_answers():
    a, b = frontend.diamond_parity(9), frontend.const_check(12)
    refs = {id(a): SystemExecutor(a), id(b): SystemExecutor(b)}
    for k in range(1, 9):
        for qa, qb in zip(_queries(_executor(a), k), _queries(_executor(b), k)):
            for q in (qa, qb, qa):
                want = reference_search(refs[id(q.system)], q)
                assert _search(_executor(q.system), q) == want, (q.system.name, q.kind, k)


def test_an_executor_is_freed_when_its_slot_moves():
    a, b = frontend.diamond_parity(9), saturating()
    solver = Solver(SolverConfig())
    collecting = gc.isenabled()
    gc.disable()  # only reference counting may free it
    try:
        for k in range(1, 6):
            for q in _queries(_executor(a), k):
                solver.check(q)
        held = weakref.ref(_executor(a))
        assert held().reach.layers and held().inductive.layers
        solver.check(encode_base_case(b, 2))
        assert held() is None
    finally:
        if collecting:
            gc.enable()


def _untimed(r: VerificationReport) -> VerificationReport:
    iterations = tuple(
        replace(it, checks=tuple(replace(c, time_ms=0.0) for c in it.checks))
        for it in r.iterations
    )
    return replace(r, iterations=iterations, wall_ms=0.0)


@pytest.mark.parametrize("make", [lambda: frontend.chain_bug(30), lambda: frontend.const_check(20)])
def test_threads_running_both_engines_on_one_system_agree(make):
    # each round starts on a new system object, so the threads race to
    # build its executor and grow the same chains
    runs = (run_plain, run_extended, run_extended, run_plain)
    want = [_untimed(run(make())) for run in runs]
    old = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for _ in range(20):
            sys, got = make(), [None] * len(runs)

            def work(i):
                got[i] = _untimed(runs[i](sys))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == want
    finally:
        setswitchinterval(old)
