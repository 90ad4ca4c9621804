"""Every parse outcome, pinned by one SHA-256.

The outcome of parsing a text is the system's canonical text
(`format_system`) or the `ParseError`'s message, line and column; any
other package error is pinned by its type and message. The texts are:

  - the `benchmarks/*.kts` files;
  - the random corpus the benchmark parses, `corpus(1, 1000, 8)`;
  - a system that declares a variable named `true`;
  - seeded character mutations of those texts, each one to three
    insertions or replacements of a tab, CR, LF, form feed, no-break
    space, `;`, a paren or `true`.

So a change to the reader or the elaborator that moves any verdict,
message or position moves the digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from kindmc import frontend
from kindmc.errors import KindmcError, ParseError

from randsys import corpus

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

TRUE_VAR = """\
(system
  (var true bool)
  (var x (bv 2))
  (init (and (= x 0) true))
  (trans (= (next x) (ite true (bvadd x 1) x)))
  (prop p (not (= x 3)))
  (halt false))
"""

# what a mutation inserts, or puts in place of one character
INSERTS = ("\t", "\r", "\n", "\f", "\u00a0", ";", "(", ")", "true", " true ")
MUTANTS = 3600

DIGEST = "92081bad95fa1a6b510606576034790943e90200a58be972a770b6d49caa3104"


def outcome(text: str) -> list:
    try:
        return ["ok", frontend.format_system(frontend.parse(text))]
    except ParseError as e:
        return ["ParseError", e.message, e.line, e.col]
    except KindmcError as e:
        return [type(e).__name__, str(e)]


def mutants(texts: list[str], seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            piece = rng.choice(INSERTS)
            cut = i + (rng.random() < 0.5 and i < len(text))
            text = text[:i] + piece + text[cut:]
        out.append(text)
    return out


def texts() -> list[str]:
    bench = [p.read_text() for p in sorted(BENCHMARKS.glob("*.kts"))]
    corp = [frontend.format_system(s) for s in corpus(1, 1000, max_state_bits=8)]
    base = bench + corp + [TRUE_VAR]
    return base + mutants(bench + corp[:40] + [TRUE_VAR], seed=23, n=MUTANTS)


def parse_digest() -> str:
    h = hashlib.sha256()
    for text in texts():
        h.update(json.dumps(outcome(text), separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_parse_outcomes_are_unchanged():
    assert parse_digest() == DIGEST
