"""Ground-truth exploration, independent of the induction engine.

A plain breadth-first search over concrete states, usable as a reference
answer for anything the engine claims on systems small enough to explore
outright. Shares only the compiled executor with the rest of the package;
no unrolling, no solver, no induction. It keeps its own search loop rather
than using the executor's search chains, which the enum backend answers
from: a fault in that search then shows up as a disagreement with the
oracle instead of being repeated on both sides.

The executor enumerates whatever it is given, so the oracle refuses a
system over its bit caps before building one: DEFAULT_STATE_BIT_CAP state
bits (bfs_check's state_bit_cap, which the CLI's `oracle --cap` sets) and
DEFAULT_INPUT_BIT_CAP input bits per step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .concrete import SystemExecutor
from .errors import ConfigError
from .ir import Trace, TransitionSystem

DEFAULT_STATE_BIT_CAP = 20
DEFAULT_INPUT_BIT_CAP = 16


class OracleVerdict(Enum):
    UNSAFE = "unsafe"
    SAFE_WITHIN_EXPLORED = "safe-within-explored-space"


@dataclass(frozen=True)
class OracleResult:
    verdict: OracleVerdict
    trace: Optional[Trace]
    explored: int  # distinct states discovered
    depth: int  # states on the longest path considered


def bfs_check(sys: TransitionSystem, state_bit_cap: int = DEFAULT_STATE_BIT_CAP) -> OracleResult:
    """Explore the full reachable space breadth-first. Returns a shortest
    violating trace if any reachable state breaks a property, otherwise
    reports the space safe with the exploration statistics."""
    ex = _executor(sys, state_bit_cap)
    found, depth, parent = _bfs(ex)
    if found is None:
        return OracleResult(OracleVerdict.SAFE_WITHIN_EXPLORED, None, len(parent), depth)
    return OracleResult(
        OracleVerdict.UNSAFE, _trace_to(ex, found, parent), len(parent), depth
    )


def _executor(sys: TransitionSystem, state_bit_cap: int) -> SystemExecutor:
    """The executor of sys, once its bits are known to be within the caps."""
    if sys.state_bits > state_bit_cap:
        raise ConfigError(f"system has {sys.state_bits} state bits, cap is {state_bit_cap}")
    if sys.input_bits > DEFAULT_INPUT_BIT_CAP:
        raise ConfigError(
            f"system has {sys.input_bits} input bits per step, cap is {DEFAULT_INPUT_BIT_CAP}"
        )
    return SystemExecutor(sys)


def _bfs(
    ex: SystemExecutor,
) -> tuple[Optional[tuple], int, dict[tuple, Optional[tuple[tuple, tuple]]]]:
    """Breadth-first over the reachable states, testing the properties as
    each state leaves the queue. Returns the first violating state (or
    None), its depth (or the deepest depth explored) and the parent link of
    every discovered state."""
    parent: dict[tuple, Optional[tuple[tuple, tuple]]] = {}
    queue: deque[tuple[tuple, int]] = deque()
    for s in ex.initial_states():
        if s not in parent:
            parent[s] = None
            queue.append((s, 1))
    max_depth = 0
    while queue:
        s, depth = queue.popleft()
        max_depth = max(max_depth, depth)
        if ex.violated_prop(s) is not None:
            return s, depth, parent
        for u, ns in ex.successors(s):
            if ns not in parent:
                parent[ns] = (s, u)
                queue.append((ns, depth + 1))
    return None, max_depth, parent


def _trace_to(
    ex: SystemExecutor,
    state: tuple,
    parent: dict[tuple, Optional[tuple[tuple, tuple]]],
) -> Trace:
    states = [state]
    inputs: list[tuple] = []
    cur = state
    while True:
        link = parent[cur]
        if link is None:
            break
        prev, u = link
        states.append(prev)
        inputs.append(u)
        cur = prev
    states.reverse()
    inputs.reverse()
    return Trace(
        tuple(ex.state_obj(s) for s in states),
        tuple(ex.input_obj(u) for u in inputs),
        ex.violated_prop(state),
    )
