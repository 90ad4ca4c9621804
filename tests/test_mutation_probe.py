"""Robustness probe: seeded token mutations of the benchmark files.

Each mutant is the text of a `benchmarks/*.kts` file with one to three
tokens replaced, deleted, duplicated or swapped with their neighbour, or
with a bit of a literal flipped. Most mutants are rejected as input; the
rest parse and are verified. Either
way `verify` must end in a verdict or an input error (exit 0-3), and
`compare` in a comparison or an input error (exit 0 or 3): never an
internal error, a discrepancy or an exception.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from pathlib import Path

from kindmc.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
TOKEN = re.compile(r"[()]|[^\s()]+")


def mutants(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    texts = [p.read_text() for p in sorted(BENCH_DIR.glob("*.kts"))]
    pool = sorted({t for text in texts for t in TOKEN.findall(text)})
    atoms = [t for t in pool if t not in "()"]
    out = []
    for _ in range(n):
        toks = TOKEN.findall(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(toks))
            op = rng.randrange(5)
            if op == 4:
                # flip a bit of a literal: the mutant keeps its sorts
                lits = [j for j, t in enumerate(toks) if t.startswith("#b")]
                if lits:
                    j = rng.choice(lits)
                    b = rng.randrange(2, len(toks[j]))
                    toks[j] = toks[j][:b] + "10"[int(toks[j][b])] + toks[j][b + 1 :]
            elif op == 0:
                # an atom for an atom, so more mutants still parse
                toks[i] = rng.choice(pool if toks[i] in "()" else atoms)
            elif op == 1:
                del toks[i]
            elif op == 2:
                toks.insert(i, toks[i])
            elif i + 1 < len(toks):
                toks[i], toks[i + 1] = toks[i + 1], toks[i]
        out.append(" ".join(toks))
    return out


def test_mutated_benchmarks_never_end_in_an_internal_error(tmp_path, capsys):
    codes: Counter = Counter()
    for i, text in enumerate(mutants(seed=7, n=300)):
        f = tmp_path / f"m{i}.kts"
        f.write_text(text)
        verify = main(["verify", str(f), "--max-k", "6"])
        compare = main(["compare", str(f), "--max-k", "6"])
        capsys.readouterr()
        assert verify in (0, 1, 2, 3), (verify, text)
        assert compare in (0, 3), (compare, text)
        assert (verify == 3) == (compare == 3), text
        codes[verify] += 1
    # the probe reaches the engines, not only the reader
    assert codes[0] + codes[1] + codes[2] >= 10, codes
