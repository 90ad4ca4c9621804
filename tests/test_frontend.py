"""Input language: reader, elaboration, printer, benchmark generators."""

from __future__ import annotations

from pathlib import Path

import pytest

from kindmc import ir
from kindmc.errors import ConfigError, ParseError
from kindmc.frontend import (
    BenchmarkSpec,
    accumulator,
    chain_bug,
    const_check,
    diamond_parity,
    format_expr,
    format_system,
    generate_benchmark,
    parse,
    parse_file,
)
from kindmc.ir import BOOL, bitvec

from randsys import corpus

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

GOOD = """\
(system
  (var x (bv 3))
  (input c bool)
  (init (= x 0))
  (trans (= (next x) (ite c (bvadd x 1) x)))
  (prop below (not (= x 5)))
  (halt false))
"""


def test_parse_minimal_system():
    sys = parse(GOOD, name="demo")
    assert sys.name == "demo"
    assert [v.name for v in sys.state_vars] == ["x"]
    assert [v.name for v in sys.input_vars] == ["c"]
    assert {v.name: v.sort for v in sys.vars}["x"] == bitvec(3)
    assert sys.props[0].name == "below"
    # decimal literals picked up the sibling's width
    assert sys.init == ir.eq(ir.var("x", bitvec(3)), ir.bv_const(0, 3))


def test_comments_and_whitespace():
    src = "; leading comment\n(system (var x bool) ; trailing\n (init x)\n" \
          " (trans (= (next x) x)) (prop p x) (halt false))\n"
    sys = parse(src)
    assert {v.name: v.sort for v in sys.vars}["x"] == BOOL


# ---------------------------------------------------------------------------
# Reader and elaboration errors. Each case records where the error must be
# reported, pinning the position bookkeeping.

_ERRORS = [
    ("", "one (system", 1, 1),
    ("(system", "unclosed", 1, 1),
    ("(system))", "unexpected ')'", 1, 9),
    ("(system (var x bool)) extra", "one (system", 1, 23),
    ("(foo)", "expected (system", 1, 1),
    ("x", "expected (system", 1, 1),
    ("(system (frob x))", "unknown section", 1, 9),
    ("(system (var x))", "expected (var", 1, 9),
    ("(system (var x (bv 0)))", "width must be", 1, 20),
    ("(system (var x (bv 65)))", "width must be", 1, 20),
    ("(system (var x (bv two)))", "expected a sort", 1, 16),
    ("(system (var x word))", "unknown sort", 1, 16),
    ("(system (var x@1 bool))", "invalid identifier", 1, 14),
    ("(system (var x bool) (var x bool))", "duplicate declaration", 1, 27),
    ("(system (var x bool) (input x bool))", "duplicate declaration", 1, 29),
    ("(system (var x bool) (init x) (init x))", "duplicate init", 1, 31),
    ("(system (var x bool) (prop p! x))", "invalid property name", 1, 28),
    ("(system (var x bool) (prop p x) (prop p x))", "duplicate property", 1, 39),
    ("(system (var x (bv 3)) (init (= x #x" + "f" * 17 + ")) (trans true) (prop p true)"
     " (halt false))", "width must be 1..64, got 68", 1, 35),
    ("(system (var x (bv 3)) (init (= x #b" + "1" * 65 + ")) (trans true) (prop p true)"
     " (halt false))", "width must be 1..64, got 65", 1, 35),
    # a tab and a CR are one column each; lines count LFs only
    ("(system\t(tab x))", "unknown section 'tab'", 1, 9),
    ("(system\r(cr x))", "unknown section 'cr'", 1, 9),
    ("\n\n  (system\n\t(nl x))", "unknown section 'nl'", 4, 2),
    # a form feed and a no-break space are not whitespace: they stay in an atom
    ("(system (var x bool)\f(init x))", "expected a (var|input|init|trans|prop|halt ...) section",
     1, 21),
    ("(system (init\xa0x))", "unknown section 'init\\xa0x'", 1, 9),
    # a comment may end the input without a newline
    ("(system (cmt x)) ; )", "unknown section 'cmt'", 1, 9),
    ("(system)\n  )", "2:3: unexpected ')'", 2, 3),
    # an unclosed list is reported at its innermost open paren
    ("(system\n  (var x (bv 3)", "unclosed '('", 2, 3),
]


@pytest.mark.parametrize("src,msg,line,col", _ERRORS, ids=[e[1] for e in _ERRORS])
def test_structural_errors(src, msg, line, col):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert msg in str(exc.value)
    assert exc.value.line == line
    assert exc.value.col == col


def _wrap(init="true", trans="true", prop="true", halt="false", decls="(var x (bv 3)) (input c bool)"):
    return (
        f"(system {decls}\n"
        f"  (init {init})\n"
        f"  (trans {trans})\n"
        f"  (prop p {prop})\n"
        f"  (halt {halt}))\n"
    )


_EXPR_ERRORS = [
    (_wrap(init="(= y 0)"), "undeclared variable 'y'"),
    (_wrap(init="(= c true)"), "input variable 'c' not allowed in init"),
    (_wrap(prop="c"), "input variable 'c' not allowed in prop p"),
    (_wrap(halt="c"), "input variable 'c' not allowed in halt"),
    (_wrap(init="(= (next x) 0)"), "next(x) outside trans"),
    (_wrap(trans="(= (next c) 0)"), "does not name a state variable"),
    (_wrap(trans="(= (next (bvadd x 1)) 0)"), "next takes a state variable name"),
    (_wrap(init="(= 1 2)"), "cannot infer bit-vector width"),
    (_wrap(init="5"), "integer literal where bool expected"),
    (_wrap(init="(bvule (bvadd 1 2) (bvadd 3 4))"), "cannot infer bit-vector width"),
    (_wrap(init="(= x 8)"), "literal 8 does not fit (bv 3)"),
    (_wrap(init="(= x true)"), "sort error"),
    (_wrap(init="(= x #b01)"), "sort error"),
    (_wrap(init="(and x true)"), "sort error"),
    (_wrap(trans="(bvadd c c)"), "sort bool"),
    (_wrap(init="(bvule x)"), "takes 2 operand(s)"),
    (_wrap(init="(not)"), "takes 1 operand(s)"),
    (_wrap(init="(and x)"), "at least two"),
    (_wrap(init="(frobnicate x)"), "unknown operator"),
    (_wrap(init="()"), "expected an operator application"),
    (_wrap(init="x", decls="(input c bool) (var x bool)", trans="(= (next x) x)", prop="x"),
     None),  # order of declarations does not matter
    # which error wins: ite's condition before its branches, the left operand
    # before the right, and every operand before the result sort
    (_wrap(init="(ite cnd thn els)"), "undeclared variable 'cnd'"),
    (_wrap(init="(and l1 r1)"), "undeclared variable 'l1'"),
    (_wrap(init="(= l2 r2)"), "undeclared variable 'l2'"),
    (_wrap(init="(= x (bvadd l3 r3))"), "undeclared variable 'l3'"),
    (_wrap(init="(bvule l4 r4)"), "undeclared variable 'l4'"),
    (_wrap(init="(= 1 r5)"), "undeclared variable 'r5'"),
    (_wrap(trans="(bvule c r6)"), "undeclared variable 'r6'"),
    (_wrap(init="(bvadd o7 1)"), "undeclared variable 'o7'"),
    # arity before operand sorts
    (_wrap(init="(not y z)"), "not takes 1 operand(s), got 2"),
    (_wrap(init="(ite y z)"), "ite takes 3 operand(s), got 2"),
    (_wrap(init="(or y)"), "or takes at least two operands"),
    # next's own checks, in order: arity, a name, inside trans, a state variable
    (_wrap(trans="(= (next x x) x)"), "next takes 1 operand(s), got 2"),
    (_wrap(init="(= (next (x)) 0)"), "2:18: next takes a state variable name"),
    (_wrap(init="(= (next y) 0)"), "next(y) outside trans"),
    # where a bit-vector operand error is reported: a literal no sibling gives
    # a width at the last one tried, bvnot's at its operand
    (_wrap(trans="(bvnot c)"), "3:17: sort error: operand of bvnot has sort bool"),
    (_wrap(trans="(= 123 (bvnot (ite c 1 2)))"), "3:24: cannot infer bit-vector width"),
    (_wrap(init="(= 123 (bvadd 4 5))"), "2:25: cannot infer bit-vector width"),
]


@pytest.mark.parametrize(
    "src,msg", _EXPR_ERRORS, ids=[e[1] or "decl-order-ok" for e in _EXPR_ERRORS]
)
def test_expression_errors(src, msg):
    if msg is None:
        parse(src)
        return
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert msg in str(exc.value)


def test_missing_sections():
    base = "(system (var x bool) {body})"
    cases = [
        ("(trans true) (prop p x) (halt false)", "missing init"),
        ("(init x) (prop p x) (halt false)", "missing trans"),
        ("(init x) (trans true) (prop p x)", "missing halt"),
        ("(init x) (trans true) (halt false)", "missing prop"),
    ]
    for body, msg in cases:
        with pytest.raises(ParseError, match=msg):
            parse(base.format(body=body))
    with pytest.raises(ParseError, match="state variable"):
        parse("(system (input c bool) (init true) (trans true) (prop p true) (halt false))")


def test_error_positions_multiline():
    src = "(system\n  (var x (bv 3))\n  (init (= x 0))\n  (trans (= (next x) x))\n" \
          "  (prop p (= x y))\n  (halt false))\n"
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.line == 5
    assert exc.value.col == 16
    assert str(exc.value).startswith("5:16:")


# ---------------------------------------------------------------------------
# Literals


def test_sized_literals_carry_width():
    sys = parse(_wrap(init="(= x #b101)"))
    assert sys.init.args[1] == ir.bv_const(5, 3)
    sys = parse(_wrap(init="(= x #b010)"))
    assert sys.init.args[1].sort == bitvec(3)
    # hex digit = 4 bits; needs a (bv 8) variable to match
    sys = parse(_wrap(decls="(var x (bv 8)) (input c bool)", init="(= x #x2f)"))
    assert sys.init.args[1] == ir.bv_const(0x2F, 8)


def test_decimal_takes_width_from_either_side():
    a = parse(_wrap(init="(= x 5)"))
    b = parse(_wrap(init="(= 5 x)"))
    assert a.init.args[0] == b.init.args[1]
    assert a.init.args[1] == b.init.args[0]


def test_decimal_in_nested_context():
    sys = parse(_wrap(trans="(= (next x) (bvadd x 1))"))
    plus = sys.trans.args[1]
    assert plus.args[1] == ir.bv_const(1, 3)
    # expected sort flows through ite branches
    sys = parse(_wrap(trans="(= (next x) (ite c 1 x))"))
    assert sys.trans.args[1].args[1] == ir.bv_const(1, 3)
    # an operand takes its width from its sibling, in either order, through
    # width-preserving operators; only when neither side has one is it an
    # error (see _EXPR_ERRORS)
    three = ir.bvadd(ir.bv_const(1, 3), ir.bv_const(2, 3))
    sys = parse(_wrap(init="(bvule x (bvadd 1 2))"))
    assert sys.init.args[1] == three
    sys = parse(_wrap(init="(bvule (bvadd 1 2) x)"))
    assert sys.init.args[0] == three
    sys = parse(_wrap(trans="(bvule (bvnot (ite c 1 2)) x)"))
    c = ir.var("c", BOOL)
    assert sys.trans.args[0] == ir.bvnot(ir.ite(c, ir.bv_const(1, 3), ir.bv_const(2, 3)))


def test_bool_atoms():
    sys = parse(_wrap(init="(iff true false)"))
    assert sys.init == ir.iff(ir.TRUE, ir.FALSE)


# ---------------------------------------------------------------------------
# Printer


def test_format_expr_forms():
    x = ir.var("x", bitvec(3))
    assert format_expr(ir.bv_const(5, 3)) == "#b101"
    assert format_expr(ir.TRUE) == "true"
    assert format_expr(ir.next_var("x", bitvec(3))) == "(next x)"
    assert format_expr(ir.bvadd(x, ir.bv_const(1, 3))) == "(bvadd x #b001)"
    assert format_expr(ir.eq(x, x)) == "(= x x)"


def test_round_trip_hand_written():
    sys = parse(GOOD)
    assert parse(format_system(sys)) == sys


def test_round_trip_random_corpus():
    for sys in corpus(seed=99, n=60, max_state_bits=8):
        text = format_system(sys)
        again = parse(text)
        assert again == sys, text
        assert format_system(again) == text


def test_round_trip_generated_benchmarks():
    for sys in (
        chain_bug(5),
        diamond_parity(9),
        const_check(8),
        accumulator(4, "safe"),
        accumulator(4, "buggy"),
    ):
        assert parse(format_system(sys)) == sys


# ---------------------------------------------------------------------------
# Benchmark generators


def test_generator_shapes():
    s = chain_bug(5)
    assert s.name == "chain_bug_d5"
    assert s.state_bits == 3
    assert [p.name for p in s.props] == ["below_limit"]

    d = diamond_parity(9)
    assert [v.name for v in d.input_vars] == ["c"]
    assert [p.name for p in d.props] == ["parity_even"]

    c = const_check(8)
    assert [v.name for v in c.state_vars] == ["i", "done"]

    a = accumulator(4, "buggy")
    assert [p.name for p in a.props] == ["sum_is_twice_i", "final_sum_ok", "sum_below_target"]
    assert a.halt != ir.FALSE


def test_generate_benchmark_dispatch():
    assert generate_benchmark(BenchmarkSpec("chain_bug", 3)) == chain_bug(3)
    assert generate_benchmark(BenchmarkSpec("accumulator", 4, "safe")) == accumulator(4, "safe")


def test_generator_config_errors():
    with pytest.raises(ConfigError, match="unknown benchmark family"):
        generate_benchmark(BenchmarkSpec("nope", 3))
    with pytest.raises(ConfigError, match="at least 1"):
        generate_benchmark(BenchmarkSpec("chain_bug", 0))
    with pytest.raises(ConfigError, match="variant"):
        generate_benchmark(BenchmarkSpec("accumulator", 4))
    with pytest.raises(ConfigError, match="variant"):
        generate_benchmark(BenchmarkSpec("accumulator", 4, "exploding"))
    with pytest.raises(ConfigError, match="no variant"):
        generate_benchmark(BenchmarkSpec("chain_bug", 3, "safe"))


def test_bundled_benchmark_files_parse():
    files = sorted(BENCH_DIR.glob("*.kts"))
    assert len(files) >= 7
    for f in files:
        sys = parse_file(f)
        assert sys.name == f.stem


def test_bundled_chain_matches_generator():
    assert parse_file(BENCH_DIR / "chain5.kts") == chain_bug(5)
    assert parse_file(BENCH_DIR / "const8.kts") == const_check(8)
    assert parse_file(BENCH_DIR / "diamond9.kts") == diamond_parity(9)
