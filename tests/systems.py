"""Hand-built systems shared across test modules."""

from __future__ import annotations

from kindmc import ir
from kindmc.ir import (
    BOOL,
    Prop,
    TransitionSystem,
    VarDecl,
    VarRole,
    bitvec,
)


def saturating() -> TransitionSystem:
    """4-bit counter that sticks at 7. The bound x <= 7 holds on every
    reachable state but not on all states, so the proof needs one step of
    strengthening: correct at k=2 via the inductive step."""
    w = 4
    x = ir.var("x", bitvec(w))
    return TransitionSystem(
        vars=(VarDecl("x", bitvec(w), VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, w)),
        trans=ir.eq(
            ir.next_var("x", bitvec(w)),
            ir.ite(ir.bvult(x, ir.bv_const(7, w)), ir.bvadd(x, ir.bv_const(1, w)), x),
        ),
        props=(Prop("saturated_low", ir.bvule(x, ir.bv_const(7, w))),),
        halt=ir.FALSE,
        name="saturating",
    )


def halt_sink() -> TransitionSystem:
    """Counts 0..7 and freezes; halting is exactly x=7. The property only
    breaks at the unreachable 15, and induction never closes because bad
    suffixes live above 8; the forward condition closes at k=8 once every
    initial 8-state path ends halted."""
    w = 4
    x = ir.var("x", bitvec(w))
    seven = ir.bv_const(7, w)
    return TransitionSystem(
        vars=(VarDecl("x", bitvec(w), VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, w)),
        trans=ir.eq(
            ir.next_var("x", bitvec(w)),
            ir.ite(ir.eq(x, seven), x, ir.bvadd(x, ir.bv_const(1, w))),
        ),
        props=(Prop("below_top", ir.not_(ir.eq(x, ir.bv_const(15, w)))),),
        halt=ir.eq(x, seven),
        name="halt_sink",
    )


def identity_spurious() -> TransitionSystem:
    """Nothing ever moves, x=3 violates but is unreachable. The inductive
    step at k=1 hands the extended engine a spurious target; at k=2 the
    identity transition makes the step close, so both engines prove the
    system correct and the target never matches."""
    w = 2
    x = ir.var("x", bitvec(w))
    return TransitionSystem(
        vars=(VarDecl("x", bitvec(w), VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, w)),
        trans=ir.eq(ir.next_var("x", bitvec(w)), x),
        props=(Prop("not_three", ir.not_(ir.eq(x, ir.bv_const(3, w)))),),
        halt=ir.FALSE,
        name="identity_spurious",
    )


def moving_halt() -> TransitionSystem:
    """Halting states keep moving: x wraps 0,1,2,3,0,... and halt is x=1.
    The forward condition closes at k=2 and the proof leans on halting
    being final, which it is not here, so the engine must warn."""
    w = 2
    x = ir.var("x", bitvec(w))
    return TransitionSystem(
        vars=(VarDecl("x", bitvec(w), VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, w)),
        trans=ir.eq(ir.next_var("x", bitvec(w)), ir.bvadd(x, ir.bv_const(1, w))),
        props=(Prop("not_three", ir.not_(ir.eq(x, ir.bv_const(3, w)))),),
        halt=ir.eq(x, ir.bv_const(1, w)),
        name="moving_halt",
    )


def deadlock_chain() -> TransitionSystem:
    """Counts 0,1,2 and then deadlocks: the transition demands x+1 while
    also demanding the successor stay below 3, so x=2 has no successor at
    all. The violation at x=2 must still be found by base cases with
    k > 3, which only works because short paths count."""
    w = 2
    x = ir.var("x", bitvec(w))
    nx = ir.next_var("x", bitvec(w))
    return TransitionSystem(
        vars=(VarDecl("x", bitvec(w), VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, w)),
        trans=ir.and_(
            ir.eq(nx, ir.bvadd(x, ir.bv_const(1, w))),
            ir.bvule(nx, ir.bv_const(2, w)),
        ),
        props=(Prop("below_two", ir.not_(ir.eq(x, ir.bv_const(2, w)))),),
        halt=ir.FALSE,
        name="deadlock_chain",
    )


def input_chain(d: int) -> TransitionSystem:
    """x moves up only when the input says so; reaching d needs d pushes,
    so the shortest counterexample is d+1 states and every witness carries
    meaningful input values."""
    w = max(1, (d + 1).bit_length())
    x = ir.var("x", bitvec(w))
    c = ir.var("c", BOOL)
    return TransitionSystem(
        vars=(
            VarDecl("x", bitvec(w), VarRole.STATE),
            VarDecl("c", BOOL, VarRole.INPUT),
        ),
        init=ir.eq(x, ir.bv_const(0, w)),
        trans=ir.eq(
            ir.next_var("x", bitvec(w)),
            ir.ite(c, ir.bvadd(x, ir.bv_const(1, w)), x),
        ),
        props=(Prop("below_limit", ir.not_(ir.eq(x, ir.bv_const(d, w)))),),
        halt=ir.FALSE,
        name=f"input_chain_d{d}",
    )


def not_chain(depth: int) -> ir.Expr:
    """x <= 3 over a 2-bit x under depth - 2 `not`s: an expression `depth`
    nodes deep. An even number of `not`s keeps it true everywhere."""
    prop = ir.bvule(ir.var("x", bitvec(2)), ir.bv_const(3, 2))
    for _ in range(depth - 2):
        prop = ir.not_(prop)
    return prop


def nested_not(depth: int) -> TransitionSystem:
    """A 2-bit stuck counter whose property is not_chain(depth). An odd
    number of `not`s makes the initial state a bug."""
    x = ir.var("x", bitvec(2))
    return TransitionSystem(
        vars=(VarDecl("x", bitvec(2), VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, 2)),
        trans=ir.eq(ir.next_var("x", bitvec(2)), x),
        props=(Prop("deep", not_chain(depth)),),
        halt=ir.FALSE,
        name=f"nested_not_{depth}",
    )


def _definitional(name: str, *props: tuple[str, ir.Expr]) -> TransitionSystem:
    """Three 3-bit counters a, b, c and a bool f, stepping a+1, b+a, c^b
    and not f, under the given properties. The initial states are the good
    states, so init has the properties' definitions too."""
    w = 3
    a, b, c = (ir.var(n, bitvec(w)) for n in "abc")
    f = ir.var("f", BOOL)
    return TransitionSystem(
        vars=(
            *(VarDecl(n, bitvec(w), VarRole.STATE) for n in "abc"),
            VarDecl("f", BOOL, VarRole.STATE),
        ),
        init=ir.conj([e for _, e in props]),
        trans=ir.conj(
            [
                ir.eq(ir.next_var("a", bitvec(w)), ir.bvadd(a, ir.bv_const(1, w))),
                ir.eq(ir.next_var("b", bitvec(w)), ir.bvadd(b, a)),
                ir.eq(ir.next_var("c", bitvec(w)), ir.bvxor(c, b)),
                ir.eq(ir.next_var("f", BOOL), ir.not_(f)),
            ]
        ),
        props=tuple(Prop(n, e) for n, e in props),
        halt=ir.FALSE,
        name=name,
    )


def definitional_props() -> dict[str, TransitionSystem]:
    """Systems whose property conjunction defines some variables, keyed by
    the case each covers, with the names its definitions fix."""
    w = 3
    a, b, c = (ir.var(n, bitvec(w)) for n in "abc")
    f = ir.var("f", BOOL)
    one, five = ir.bv_const(1, w), ir.bv_const(5, w)
    return {
        # c from b, b from a: the order of the conjuncts is not the order
        # the definitions run in
        "chain": _definitional(
            "def_chain",
            ("p", ir.conj([ir.eq(c, ir.bvadd(b, one)), ir.eq(ir.bvmul(a, a), b), ir.bvule(a, five)])),
        ),
        # a from b and b from a: neither can run first, so both stay free
        "cycle": _definitional(
            "def_cycle",
            ("p", ir.conj([ir.eq(a, ir.bvadd(b, one)), ir.eq(b, ir.bvadd(a, ir.bv_const(7, w)))])),
        ),
        # the second definition of a is only a constraint
        "twice": _definitional(
            "def_twice",
            ("p", ir.conj([ir.eq(a, ir.bvadd(b, one)), ir.eq(a, ir.bvsub(c, one))])),
        ),
        "constrained": _definitional(
            "def_constrained",
            ("p", ir.conj([ir.eq(a, ir.bvadd(b, c)), ir.bvult(a, ir.bv_const(4, w))])),
        ),
        "one_of_several": _definitional(
            "def_one_of_several",
            ("low", ir.bvule(a, ir.bv_const(6, w))),
            ("mix", ir.conj([ir.eq(b, ir.bvxor(a, five)), ir.not_(ir.eq(c, b))])),
            ("any", ir.or_(f, ir.bvuge(c, one))),
        ),
        "bool": _definitional(
            "def_bool",
            ("p", ir.conj([ir.eq(f, ir.bvult(a, b)), ir.or_(ir.not_(f), ir.eq(c, a))])),
        ),
    }
