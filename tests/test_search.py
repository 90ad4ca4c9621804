"""The table-driven path search against the per-edge search it replaced.

`reference_find_path` below is the breadth-first search the enum backend
used before the executor kept per-state rows: it interprets every edge of
every layer in Python, tests goals as it discovers states and records a
link per state. `reference_search` maps a query onto it as the backend did.
On the fixed families and on 800 random systems, for every query shape at
k = 1..8, `solver._search` must return the very same path: states and
inputs, not just the same length.
"""

from __future__ import annotations

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
from kindmc.ir import Trace
from kindmc.solver import _search

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
