"""The SMT-LIB text of every query shape, pinned by one SHA-256 per system.

For each system and each TargetRecheck mode, the targets of an extended run
go into the extended-base and target-recheck queries, and every query of
every shape at k = 1..4 is serialized. A change to the encoder that alters
a single byte of any of them changes the system's digest.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from kindmc.encoder import (
    encode_base_case,
    encode_extended_base_case,
    encode_forward_condition,
    encode_inductive_step,
    serialize_smtlib,
)
from kindmc.engine import EngineConfig, TargetRecheck, run_extended
from kindmc.frontend import chain_bug, const_check, diamond_parity, parse_file

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

DIGESTS = {
    "accumulator_buggy4.kts": "a5b8ed222b385b0dd745e22009d1efabc94cf3be8dde66ceaed68e7f8cd2b7e8",
    "accumulator_safe4.kts": "c1fd33edf1d5393c07779bb226a12f8b344a134ed4a04c60fd5e8371f28f95e6",
    "chain5.kts": "6d5e232b024afce46f6bba55c918437ebe644c9d01db9b54c1603e5b0c71c647",
    "const8.kts": "e6d7aeedf5a711c2da82addb2f30077d7ed029ce12a5d74c0b9c460657c7611b",
    "diamond9.kts": "6e132d63cdb70b73d4d9a65df51c429a6ff5c04462bdf248e193f5ba8792f186",
    "halt_sink.kts": "a58b0155b250e974423d937cdd4025835e8034c4bf495a49c866a0e04186851d",
    "saturating.kts": "01f5ed90f100a4d04f6edae44aa7d36b1f3aec48606e1a79c21ee44942094312",
    # const8.kts and diamond9.kts are these generators' output, so they share
    # a digest
    "chain_bug(9)": "161c4ab4e1d813292da51254772f8703d8d7889f7d1a21c81c82e710bb8adcc8",
    "const_check(8)": "e6d7aeedf5a711c2da82addb2f30077d7ed029ce12a5d74c0b9c460657c7611b",
    "diamond_parity(9)": "6e132d63cdb70b73d4d9a65df51c429a6ff5c04462bdf248e193f5ba8792f186",
}


def _system(name):
    makers = {
        "chain_bug(9)": lambda: chain_bug(9),
        "const_check(8)": lambda: const_check(8),
        "diamond_parity(9)": lambda: diamond_parity(9),
    }
    return makers[name]() if name in makers else parse_file(BENCHMARKS / name)


def smtlib_digest(sys) -> str:
    h = hashlib.sha256()
    for mode in TargetRecheck:
        targets = run_extended(sys, EngineConfig(max_k=8, target_recheck=mode)).targets
        for k in range(1, 5):
            for q in (
                encode_base_case(sys, k),
                encode_extended_base_case(sys, k, targets),
                encode_extended_base_case(sys, k, targets, include_violations=False),
                encode_forward_condition(sys, k),
                encode_inductive_step(sys, k),
            ):
                h.update(serialize_smtlib(q).encode())
    return h.hexdigest()


def test_every_benchmark_file_is_pinned():
    assert {p.name for p in BENCHMARKS.glob("*.kts")} <= set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_smtlib_text_is_unchanged(name):
    assert smtlib_digest(_system(name)) == DIGESTS[name]
