"""Spans and counters recorded from outside the program.

`Tracer` replaces module and class attributes of kindmc with wrappers
that record one span per call: (name, start, end, parent, run id, detail).
Spans stay in memory until the run ends. `Counter` wraps the encoder and
the successor function but times nothing; it counts the work a pass
does, including the successor expansions, which are far too frequent to
span. Both are context managers: leaving the `with` block puts every
attribute back and checks that it did.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict
from typing import Callable, NamedTuple

from kindmc import concrete, engine, frontend, ir, solver

ENGINE_ROOTS = ("run_plain", "run_extended")

# (owner, attribute, span name, layer). The engine module looks its
# helpers up as globals at call time, so replacing the engine module's
# attribute intercepts the engine's calls.
LAYER_POINTS = (
    (engine, "run_plain", "engine.run_plain", "engine"),
    (engine, "run_extended", "engine.run_extended", "engine"),
    (engine, "decode_model", "engine.decode", "engine"),
    (engine, "replay_trace", "engine.replay", "engine"),
    (engine, "stitch", "engine.stitch", "engine"),
    (engine, "lint_halt_sink", "engine.halt_sink", "engine"),
    (engine, "encode_base_case", "encoder.encode", "encoder"),
    (engine, "encode_extended_base_case", "encoder.encode", "encoder"),
    (engine, "encode_forward_condition", "encoder.encode", "encoder"),
    (engine, "encode_inductive_step", "encoder.encode", "encoder"),
    (solver.Solver, "check", "solver.check", "solver"),
    (solver, "eval_expr", "solver.eval_expr", "solver"),
    (solver, "SystemExecutor", "concrete.executor_build", "concrete"),
    (concrete.SystemExecutor, "initial_states", "concrete.initial_states", "concrete"),
    (frontend, "parse", "frontend.parse", "frontend"),
)

LAYER_OF = {name: layer for _, _, name, layer in LAYER_POINTS}


def query_kind(q) -> str:
    """base, extended-base, forward, inductive or target-recheck."""
    if not q.include_violations:
        return "target-recheck"
    return q.kind.value


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: int
    detail: str


class _Patcher:
    """Replaces attributes while active: `with patcher:` installs the
    wrappers, and leaving the block puts every original back."""

    def __init__(self) -> None:
        self._points: list[tuple[object, str, Callable[[Callable], Callable]]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _add(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._points.append((owner, attr, make))

    def __enter__(self):
        for owner, attr, make in self._points:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {attr}")


def _detail(name: str, args: tuple, result) -> str:
    if name == "encoder.encode":
        return query_kind(result)
    if name == "solver.check":
        return f"{query_kind(args[1])} {result.status.value}"
    return ""


class Tracer(_Patcher):
    """Records a span for every call through the given layer points.
    With `roots_only`, only the engine runs are wrapped: the untraced
    passes use that to time each engine from outside."""

    def __init__(self, roots_only: bool = False) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        for owner, attr, name, _ in LAYER_POINTS:
            if not roots_only or attr in ENGINE_ROOTS:
                self._add(owner, attr, lambda fn, name=name: self._wrap(fn, name))

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # type: ignore[arg-type]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, start, clock(), parent, self.run, "raised")
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = Span(name, start, end, parent, self.run, _detail(name, args, result))
            return result

        return traced


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds each layer spent in its own spans, outside their child
    spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[LAYER_OF[s.name]] += (s.end - s.start) - child[i]
    return out


class Counter(_Patcher):
    """Counts work at the layer boundaries without timing it: queries
    encoded and their sizes (the nodes of the assertion and of the marker
    definitions), the targets they carry, successor
    expansions and the distinct states they were asked for."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        counts, seen = self.counts, self._seen

        def encoder(fn):
            def counted(*args, **kwargs):
                q = fn(*args, **kwargs)
                kind = query_kind(q)
                exprs = (q.assertion, *(d for _, d in q.marker_defs))
                counts[f"encoder.assertion_nodes.{kind}"] += sum(
                    1 for e in exprs for _ in ir.walk(e)
                )
                counts["encoder.targets_encoded"] += len(q.targets)
                return q

            return counted

        def successors(fn):
            def counted(ex, s):
                counts["concrete.successors_calls"] += 1
                states = seen.setdefault(ex, set())
                if s not in states:
                    states.add(s)
                    counts["concrete.succ_distinct_states"] += 1
                return fn(ex, s)

            return counted

        for attr in (
            "encode_base_case",
            "encode_extended_base_case",
            "encode_forward_condition",
            "encode_inductive_step",
        ):
            self._add(engine, attr, encoder)
        self._add(concrete.SystemExecutor, "successors", successors)
