"""Seeded random transition systems for cross-checking independent
implementations against each other. Everything here is deterministic in
the seed."""

from __future__ import annotations

import random
from typing import Optional

from kindmc import ir
from kindmc.errors import SortError
from kindmc.ir import BOOL, Expr, Prop, Sort, TransitionSystem, VarDecl, VarRole, bitvec

_BV_BIN = (ir.bvadd, ir.bvsub, ir.bvmul, ir.bvand, ir.bvor, ir.bvxor)
_BV_CMP = (ir.bvule, ir.bvult, ir.bvuge, ir.bvugt)


def _rand_expr(rng: random.Random, sort: Sort, leaves: list[Expr], depth: int) -> Expr:
    """A random well-sorted expression over the given leaf variables."""
    of_sort = [v for v in leaves if v.sort == sort]
    if depth <= 0 or rng.random() < 0.3:
        if of_sort and rng.random() < 0.7:
            return rng.choice(of_sort)
        if sort.is_bool:
            return ir.TRUE if rng.random() < 0.5 else ir.FALSE
        return ir.const(rng.randrange(sort.num_values()), sort)
    if sort.is_bool:
        bvs = sorted({v.sort for v in leaves if not v.sort.is_bool}, key=lambda s: s.width)
        roll = rng.random()
        if roll < 0.3 and bvs:
            s = rng.choice(bvs)
            op = rng.choice(_BV_CMP + (ir.eq,))
            return op(_rand_expr(rng, s, leaves, depth - 1), _rand_expr(rng, s, leaves, depth - 1))
        if roll < 0.5:
            return ir.not_(_rand_expr(rng, BOOL, leaves, depth - 1))
        if roll < 0.8:
            op = ir.and_ if rng.random() < 0.5 else ir.or_
            return op(
                _rand_expr(rng, BOOL, leaves, depth - 1),
                _rand_expr(rng, BOOL, leaves, depth - 1),
            )
        return ir.ite(
            _rand_expr(rng, BOOL, leaves, depth - 1),
            _rand_expr(rng, BOOL, leaves, depth - 1),
            _rand_expr(rng, BOOL, leaves, depth - 1),
        )
    if rng.random() < 0.3:
        return ir.ite(
            _rand_expr(rng, BOOL, leaves, depth - 1),
            _rand_expr(rng, sort, leaves, depth - 1),
            _rand_expr(rng, sort, leaves, depth - 1),
        )
    op = rng.choice(_BV_BIN)
    return op(_rand_expr(rng, sort, leaves, depth - 1), _rand_expr(rng, sort, leaves, depth - 1))


def _with_definitions(rng: random.Random, e: Expr, state: list[Expr]) -> Expr:
    """e behind one or two definitional conjuncts (= v rhs) or (= rhs v).
    A right-hand side mentions only other state variables, so chains,
    two-variable cycles and variables defined twice all occur."""
    parts = []
    for _ in range(rng.randint(1, 2)):
        v = rng.choice(state)
        rhs = _rand_expr(rng, v.sort, [w for w in state if w is not v], 2)
        parts.append(ir.eq(v, rhs) if rng.random() < 0.7 else ir.eq(rhs, v))
    return ir.conj([*parts, e])


def make_system(
    rng: random.Random,
    max_state_bits: int = 8,
    allow_input: bool = True,
    allow_residual: bool = True,
    name: str = "random",
    definitional_props: bool = False,
) -> TransitionSystem:
    """One random system: mostly definitional transitions, occasional
    residual constraints (which can create deadlocks), constant or free
    initial values, one or two random properties, halt fixed at false.
    With definitional_props, each property is given definitional conjuncts
    half of the time; without it, the random numbers drawn are those drawn
    before the option existed, so seeded corpora stay as they were."""
    decls: list[VarDecl] = []
    bits = 0
    n_state = rng.randint(1, 3)
    for i in range(n_state):
        if rng.random() < 0.25:
            sort = BOOL
        else:
            sort = bitvec(rng.randint(1, 3))
        if bits + sort.bits > max_state_bits:
            sort = BOOL
        bits += sort.bits
        decls.append(VarDecl(f"v{i}", sort, VarRole.STATE))
    if allow_input and rng.random() < 0.5:
        decls.append(VarDecl("inp", BOOL if rng.random() < 0.7 else bitvec(2), VarRole.INPUT))

    state = [ir.var(d.name, d.sort) for d in decls if d.role is VarRole.STATE]
    step = [ir.var(d.name, d.sort) for d in decls]

    init_parts: list[Expr] = []
    for v in state:
        roll = rng.random()
        if roll < 0.55:
            if v.sort.is_bool:
                init_parts.append(ir.eq(v, ir.TRUE if rng.random() < 0.5 else ir.FALSE))
            else:
                init_parts.append(ir.eq(v, ir.const(rng.randrange(v.sort.num_values()), v.sort)))
        elif roll < 0.7 and not v.sort.is_bool and v.sort.width > 1:
            init_parts.append(ir.bvule(v, ir.const(rng.randrange(1, v.sort.num_values()), v.sort)))
        # otherwise the variable starts free
    init = ir.conj(init_parts)

    trans_parts: list[Expr] = []
    for d in (d for d in decls if d.role is VarRole.STATE):
        nv = ir.next_var(d.name, d.sort)
        if rng.random() < 0.85:
            trans_parts.append(ir.eq(nv, _rand_expr(rng, d.sort, step, 2)))
        elif allow_residual and not d.sort.is_bool:
            trans_parts.append(
                ir.bvule(nv, ir.const(rng.randrange(1, d.sort.num_values()), d.sort))
            )
        else:
            trans_parts.append(ir.eq(nv, _rand_expr(rng, d.sort, step, 1)))
    trans = ir.conj(trans_parts)

    props = tuple(
        Prop(f"p{i}", _rand_expr(rng, BOOL, state, 2)) for i in range(rng.randint(1, 2))
    )
    if definitional_props:
        props = tuple(
            Prop(p.name, _with_definitions(rng, p.expr, state)) if rng.random() < 0.5 else p
            for p in props
        )

    return TransitionSystem(tuple(decls), init, trans, props, ir.FALSE, name=name)


def corpus(
    seed: int,
    n: int,
    max_state_bits: int = 8,
    allow_input: bool = True,
    allow_residual: bool = True,
    definitional_props: bool = False,
) -> list[TransitionSystem]:
    rng = random.Random(seed)
    out: list[TransitionSystem] = []
    while len(out) < n:
        try:
            out.append(
                make_system(
                    rng,
                    max_state_bits=max_state_bits,
                    allow_input=allow_input,
                    allow_residual=allow_residual,
                    name=f"random_{seed}_{len(out)}",
                    definitional_props=definitional_props,
                )
            )
        except SortError:
            continue
    return out
