"""Input language and benchmark generators.

The input format is a single s-expression:

    (system
      (var x (bv 3))
      (input c bool)
      (init (= x 0))
      (trans (= (next x) (bvadd x 1)))
      (prop p1 (not (= x 5)))
      (halt false))

`;` starts a comment running to end of line. Sections may appear in any
order; var/input/prop repeat, init/trans/halt appear exactly once. Decimal
integer literals take their width from context (the other operand or the
expected sort); where no context exists that is a width-ambiguity error.
Sized literals #b0101 / #x1f carry their own width. Identifiers match
[A-Za-z_][A-Za-z0-9_]* (so '@' can never appear; the encoder uses it for
timed variable names).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from . import ir
from .errors import ConfigError, ParseError
from .ir import (
    BOOL,
    Expr,
    Prop,
    Sort,
    TransitionSystem,
    VarDecl,
    VarRole,
    bitvec,
)

# ---------------------------------------------------------------------------
# Reader


@dataclass
class SNode:
    """An s-expression node with its source position."""

    line: int
    col: int
    text: Optional[str] = None
    items: Optional[list["SNode"]] = None

    @property
    def is_atom(self) -> bool:
        return self.text is not None


_ATOM_END = set("() \t\r\n;")


def _tokenize(src: str) -> list[tuple[str, int, int]]:
    toks: list[tuple[str, int, int]] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and src[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append((ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            scol = col
            while i < n and src[i] not in _ATOM_END:
                i += 1
                col += 1
            toks.append((src[start:i], line, scol))
    return toks


MAX_NESTING = 200


def _read(src: str) -> list[SNode]:
    """S-expressions at most MAX_NESTING deep, so no recursive pass overruns the stack."""
    toks = _tokenize(src)
    pos = 0

    def read_one(depth: int) -> SNode:
        nonlocal pos
        if pos >= len(toks):
            raise ParseError("unexpected end of input", *_last_pos(toks))
        text, line, col = toks[pos]
        pos += 1
        if text == "(":
            if depth == MAX_NESTING:
                raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", line, col)
            items: list[SNode] = []
            while True:
                if pos >= len(toks):
                    raise ParseError("unclosed '('", line, col)
                if toks[pos][0] == ")":
                    pos += 1
                    return SNode(line, col, items=items)
                items.append(read_one(depth + 1))
        if text == ")":
            raise ParseError("unexpected ')'", line, col)
        return SNode(line, col, text=text)

    forms: list[SNode] = []
    while pos < len(toks):
        forms.append(read_one(0))
    return forms


def _last_pos(toks: list[tuple[str, int, int]]) -> tuple[int, int]:
    if not toks:
        return 1, 1
    _, line, col = toks[-1]
    return line, col


# ---------------------------------------------------------------------------
# Elaboration

_DEC_RE = re.compile(r"[0-9]+\Z")
_HEX_RE = re.compile(r"#x[0-9a-fA-F]+\Z")
_BIN_RE = re.compile(r"#b[01]+\Z")


class _AmbiguousLiteral(Exception):
    def __init__(self, node: SNode) -> None:
        self.node = node


@dataclass
class _Env:
    state: dict[str, Sort]
    inputs: dict[str, Sort]
    allow_next: bool
    allow_input: bool
    where: str


def _elab_sort(node: SNode) -> Sort:
    if node.is_atom:
        if node.text == "bool":
            return BOOL
        raise ParseError(f"unknown sort {node.text!r}", node.line, node.col)
    items = node.items or []
    if len(items) == 2 and items[0].is_atom and items[0].text == "bv":
        w = items[1]
        if w.is_atom and _DEC_RE.match(w.text or ""):
            width = int(w.text)  # type: ignore[arg-type]
            if not 1 <= width <= ir.MAX_WIDTH:
                raise ParseError(
                    f"bit-vector width must be 1..{ir.MAX_WIDTH}, got {width}",
                    w.line,
                    w.col,
                )
            return bitvec(width)
    raise ParseError("expected a sort: bool or (bv <width>)", node.line, node.col)


def _expect_sort(e: Expr, expected: Optional[Sort], node: SNode) -> Expr:
    if expected is not None and e.sort != expected:
        raise ParseError(
            f"sort error: expression has sort {e.sort}, expected {expected}",
            node.line,
            node.col,
        )
    return e


def _elab_pair(
    a: SNode, b: SNode, env: _Env, expected: Optional[Sort]
) -> tuple[Expr, Expr]:
    """Elaborate two operands that must share a sort, inferring literal
    widths from the sibling when needed."""
    try:
        ea = _elab(a, env, expected)
    except _AmbiguousLiteral:
        eb = _elab(b, env, expected)
        return _elab(a, env, eb.sort), eb
    return ea, _elab(b, env, ea.sort)


def _elab(node: SNode, env: _Env, expected: Optional[Sort]) -> Expr:
    if node.is_atom:
        text = node.text or ""
        if text == "true":
            return _expect_sort(ir.TRUE, expected, node)
        if text == "false":
            return _expect_sort(ir.FALSE, expected, node)
        if _DEC_RE.match(text):
            if expected is None:
                raise _AmbiguousLiteral(node)
            if expected.is_bool:
                raise ParseError(
                    f"sort error: integer literal where bool expected", node.line, node.col
                )
            value = int(text)
            if value >= expected.num_values():
                raise ParseError(
                    f"literal {value} does not fit {expected}", node.line, node.col
                )
            return ir.const(value, expected)
        if _HEX_RE.match(text):
            return _expect_sort(
                ir.const(int(text[2:], 16), bitvec(4 * (len(text) - 2))), expected, node
            )
        if _BIN_RE.match(text):
            return _expect_sort(
                ir.const(int(text[2:], 2), bitvec(len(text) - 2)), expected, node
            )
        if text in env.state:
            return _expect_sort(ir.var(text, env.state[text]), expected, node)
        if text in env.inputs:
            if not env.allow_input:
                raise ParseError(
                    f"input variable {text!r} not allowed in {env.where}",
                    node.line,
                    node.col,
                )
            return _expect_sort(ir.var(text, env.inputs[text]), expected, node)
        raise ParseError(f"undeclared variable {text!r}", node.line, node.col)

    items = node.items or []
    if not items or not items[0].is_atom:
        raise ParseError("expected an operator application", node.line, node.col)
    op = items[0].text or ""
    args = items[1:]

    def arity(n: int) -> None:
        if len(args) != n:
            raise ParseError(f"{op} takes {n} operand(s), got {len(args)}", node.line, node.col)

    if op == "next":
        arity(1)
        ref = args[0]
        if not ref.is_atom:
            raise ParseError("next takes a state variable name", ref.line, ref.col)
        name = ref.text or ""
        if not env.allow_next:
            raise ParseError(f"next({name}) outside trans", node.line, node.col)
        if name not in env.state:
            raise ParseError(
                f"next({name}) does not name a state variable", ref.line, ref.col
            )
        return _expect_sort(ir.next_var(name, env.state[name]), expected, node)
    if op == "not":
        arity(1)
        return _expect_sort(ir.not_(_elab(args[0], env, BOOL)), expected, node)
    if op in ("and", "or"):
        if len(args) < 2:
            raise ParseError(f"{op} takes at least two operands", node.line, node.col)
        parts = tuple(_elab(a, env, BOOL) for a in args)
        built = ir.and_(*parts) if op == "and" else ir.or_(*parts)
        return _expect_sort(built, expected, node)
    if op in ("implies", "iff"):
        arity(2)
        ea, eb = (_elab(a, env, BOOL) for a in args)
        built = ir.implies(ea, eb) if op == "implies" else ir.iff(ea, eb)
        return _expect_sort(built, expected, node)
    if op == "ite":
        arity(3)
        c = _elab(args[0], env, BOOL)
        t, e = _elab_pair(args[1], args[2], env, expected)
        return _expect_sort(ir.ite(c, t, e), expected, node)
    if op == "=":
        arity(2)
        ea, eb = _elab_pair(args[0], args[1], env, None)
        return _expect_sort(ir.eq(ea, eb), expected, node)
    if op == "bvnot":
        arity(1)
        hint = expected if expected is not None and not expected.is_bool else None
        try:
            inner = _elab(args[0], env, hint)
        except _AmbiguousLiteral:
            raise ParseError(
                "cannot infer bit-vector width for literal", args[0].line, args[0].col
            ) from None
        if inner.sort.is_bool:
            raise ParseError(
                f"sort error: operand of bvnot has sort bool", args[0].line, args[0].col
            )
        return _expect_sort(ir.bvnot(inner), expected, node)
    if op in ("bvadd", "bvsub", "bvmul", "bvand", "bvor", "bvxor"):
        arity(2)
        hint = expected if expected is not None and not expected.is_bool else None
        try:
            ea, eb = _elab_pair(args[0], args[1], env, hint)
        except _AmbiguousLiteral as exc:
            raise ParseError(
                "cannot infer bit-vector width for literal", exc.node.line, exc.node.col
            ) from None
        if ea.sort.is_bool:
            raise ParseError(
                f"sort error: operand of {op} has sort bool, expected a bit-vector",
                args[0].line,
                args[0].col,
            )
        return _expect_sort(Expr(op, ea.sort, (ea, eb)), expected, node)
    if op in ("bvule", "bvult", "bvuge", "bvugt"):
        arity(2)
        try:
            ea, eb = _elab_pair(args[0], args[1], env, None)
        except _AmbiguousLiteral as exc:
            raise ParseError(
                "cannot infer bit-vector width for literal", exc.node.line, exc.node.col
            ) from None
        if ea.sort.is_bool:
            raise ParseError(
                f"sort error: operand of {op} has sort bool, expected a bit-vector",
                args[0].line,
                args[0].col,
            )
        return _expect_sort(Expr(op, BOOL, (ea, eb)), expected, node)
    raise ParseError(f"unknown operator {op!r}", node.line, node.col)


def _elab_toplevel_literal(node: SNode, env: _Env, expected: Sort) -> Expr:
    try:
        return _elab(node, env, expected)
    except _AmbiguousLiteral as exc:
        raise ParseError(
            "cannot infer bit-vector width for literal", exc.node.line, exc.node.col
        ) from None


def parse(text: str, name: str = "system") -> TransitionSystem:
    """Parse .kts source text into a validated TransitionSystem."""
    forms = _read(text)
    if len(forms) != 1:
        pos = forms[1] if len(forms) > 1 else SNode(1, 1, text="")
        raise ParseError(
            f"expected exactly one (system ...) form, got {len(forms)}", pos.line, pos.col
        )
    top = forms[0]
    if top.is_atom or not top.items or not top.items[0].is_atom or top.items[0].text != "system":
        raise ParseError("expected (system ...)", top.line, top.col)

    decls: list[VarDecl] = []
    names: set[str] = set()
    init_node: Optional[SNode] = None
    trans_node: Optional[SNode] = None
    halt_node: Optional[SNode] = None
    prop_nodes: list[tuple[str, SNode]] = []
    prop_names: set[str] = set()

    for sec in top.items[1:]:
        if sec.is_atom or not sec.items or not sec.items[0].is_atom:
            raise ParseError("expected a (var|input|init|trans|prop|halt ...) section",
                             sec.line, sec.col)
        head = sec.items[0].text or ""
        body = sec.items[1:]
        if head in ("var", "input"):
            if len(body) != 2 or not body[0].is_atom:
                raise ParseError(f"expected ({head} <name> <sort>)", sec.line, sec.col)
            vname = body[0].text or ""
            if not ir.IDENT_RE.match(vname):
                raise ParseError(
                    f"invalid identifier {vname!r}: must match [A-Za-z_][A-Za-z0-9_]*",
                    body[0].line,
                    body[0].col,
                )
            if vname in names:
                raise ParseError(f"duplicate declaration of {vname!r}", body[0].line, body[0].col)
            names.add(vname)
            role = VarRole.STATE if head == "var" else VarRole.INPUT
            decls.append(VarDecl(vname, _elab_sort(body[1]), role))
        elif head in ("init", "trans", "halt"):
            if len(body) != 1:
                raise ParseError(f"expected ({head} <expr>)", sec.line, sec.col)
            if head == "init":
                if init_node is not None:
                    raise ParseError("duplicate init section", sec.line, sec.col)
                init_node = body[0]
            elif head == "trans":
                if trans_node is not None:
                    raise ParseError("duplicate trans section", sec.line, sec.col)
                trans_node = body[0]
            else:
                if halt_node is not None:
                    raise ParseError("duplicate halt section", sec.line, sec.col)
                halt_node = body[0]
        elif head == "prop":
            if len(body) != 2 or not body[0].is_atom:
                raise ParseError("expected (prop <name> <expr>)", sec.line, sec.col)
            pname = body[0].text or ""
            if not ir.IDENT_RE.match(pname):
                raise ParseError(f"invalid property name {pname!r}", body[0].line, body[0].col)
            if pname in prop_names:
                raise ParseError(f"duplicate property name {pname!r}", body[0].line, body[0].col)
            prop_names.add(pname)
            prop_nodes.append((pname, body[1]))
        else:
            raise ParseError(f"unknown section {head!r}", sec.line, sec.col)

    if init_node is None:
        raise ParseError("missing init section", top.line, top.col)
    if trans_node is None:
        raise ParseError("missing trans section", top.line, top.col)
    if halt_node is None:
        raise ParseError("missing halt section", top.line, top.col)
    if not prop_nodes:
        raise ParseError("missing prop section (at least one is required)", top.line, top.col)
    if not any(d.role is VarRole.STATE for d in decls):
        raise ParseError("a system needs at least one state variable", top.line, top.col)

    state = {d.name: d.sort for d in decls if d.role is VarRole.STATE}
    inputs = {d.name: d.sort for d in decls if d.role is VarRole.INPUT}

    init = _elab_toplevel_literal(
        init_node, _Env(state, inputs, False, False, "init"), BOOL
    )
    trans = _elab_toplevel_literal(
        trans_node, _Env(state, inputs, True, True, "trans"), BOOL
    )
    halt = _elab_toplevel_literal(
        halt_node, _Env(state, inputs, False, False, "halt"), BOOL
    )
    props = tuple(
        Prop(pname, _elab_toplevel_literal(pnode, _Env(state, inputs, False, False, f"prop {pname}"), BOOL))
        for pname, pnode in prop_nodes
    )

    sys = TransitionSystem(tuple(decls), init, trans, props, halt, name=name)
    sys.validate()
    return sys


def parse_file(path: Union[str, Path]) -> TransitionSystem:
    p = Path(path)
    return parse(p.read_text(encoding="utf-8"), name=p.stem)


# ---------------------------------------------------------------------------
# Printer


def format_expr(e: Expr) -> str:
    if e.op == "const":
        if e.sort.is_bool:
            return "true" if e.value else "false"
        return "#b" + format(int(e.value), f"0{e.sort.width}b")
    if e.op == "var":
        return e.name
    if e.op == "next":
        return f"(next {e.name})"
    return "(" + " ".join([e.op] + [format_expr(a) for a in e.args]) + ")"


def format_system(sys: TransitionSystem) -> str:
    """Canonical .kts text. parse(format_system(s)) reproduces s exactly."""
    lines = ["(system"]
    for d in sys.vars:
        head = "var" if d.role is VarRole.STATE else "input"
        lines.append(f"  ({head} {d.name} {d.sort})")
    lines.append(f"  (init {format_expr(sys.init)})")
    lines.append(f"  (trans {format_expr(sys.trans)})")
    for p in sys.props:
        lines.append(f"  (prop {p.name} {format_expr(p.expr)})")
    lines.append(f"  (halt {format_expr(sys.halt)}))")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Benchmark generators


@dataclass(frozen=True)
class BenchmarkSpec:
    """family: chain_bug | diamond_parity | const_check | accumulator.
    d is the depth parameter; variant selects safe/buggy for accumulator."""

    family: str
    d: int
    variant: str = ""


def _width_for(max_value: int) -> int:
    w = max(1, max_value.bit_length())
    if w > ir.MAX_WIDTH:
        raise ConfigError(f"parameter needs {w}-bit values, limit is {ir.MAX_WIDTH}")
    return w


def chain_bug(d: int) -> TransitionSystem:
    """A counter walking 0,1,2,... with the property that it never reaches d.
    Shortest counterexample: d+1 states."""
    _check_d(d)
    w = _width_for(d + 1)
    x = ir.var("x", bitvec(w))
    sys = TransitionSystem(
        vars=(VarDecl("x", bitvec(w), VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, w)),
        trans=ir.eq(ir.next_var("x", bitvec(w)), ir.bvadd(x, ir.bv_const(1, w))),
        props=(Prop("below_limit", ir.not_(ir.eq(x, ir.bv_const(d, w)))),),
        halt=ir.FALSE,
        name=f"chain_bug_d{d}",
    )
    sys.validate()
    return sys


def diamond_parity(d: int) -> TransitionSystem:
    """A counter stepped up or down by one (input choice) for d steps, with
    the assertion that it is even once the step counter hits d.

    Every step flips the parity, so after d steps the parity is d mod 2
    regardless of the choices: the system has a bug exactly when d is odd,
    with shortest counterexample d+1 states (the branching just widens the
    state space the checks have to cover).
    """
    _check_d(d)
    wi = _width_for(d + 1)
    wx = _width_for(d + 1)
    i = ir.var("i", bitvec(wi))
    x = ir.var("x", bitvec(wx))
    c = ir.var("c", BOOL)
    running = ir.bvult(i, ir.bv_const(d, wi))
    sys = TransitionSystem(
        vars=(
            VarDecl("i", bitvec(wi), VarRole.STATE),
            VarDecl("x", bitvec(wx), VarRole.STATE),
            VarDecl("c", BOOL, VarRole.INPUT),
        ),
        init=ir.and_(ir.eq(i, ir.bv_const(0, wi)), ir.eq(x, ir.bv_const(0, wx))),
        trans=ir.and_(
            ir.eq(
                ir.next_var("i", bitvec(wi)),
                ir.ite(running, ir.bvadd(i, ir.bv_const(1, wi)), i),
            ),
            ir.eq(
                ir.next_var("x", bitvec(wx)),
                ir.ite(
                    running,
                    ir.ite(c, ir.bvadd(x, ir.bv_const(1, wx)), ir.bvsub(x, ir.bv_const(1, wx))),
                    x,
                ),
            ),
        ),
        props=(
            Prop(
                "parity_even",
                ir.implies(
                    ir.eq(i, ir.bv_const(d, wi)),
                    ir.eq(ir.bvand(x, ir.bv_const(1, wx)), ir.bv_const(0, wx)),
                ),
            ),
        ),
        halt=ir.FALSE,
        name=f"diamond_parity_d{d}",
    )
    sys.validate()
    return sys


def const_check(d: int) -> TransitionSystem:
    """A d-iteration loop followed by a check that can never pass.

    Models a program that compares a variable against the wrong constant
    after the loop: the comparison is constant false, so the check is
    represented by a loop-exited flag and the property fails at the first
    post-loop state. Shortest counterexample: d+2 states.
    """
    _check_d(d)
    w = _width_for(d + 1)
    i = ir.var("i", bitvec(w))
    done = ir.var("done", BOOL)
    sys = TransitionSystem(
        vars=(
            VarDecl("i", bitvec(w), VarRole.STATE),
            VarDecl("done", BOOL, VarRole.STATE),
        ),
        init=ir.and_(ir.eq(i, ir.bv_const(0, w)), ir.not_(done)),
        trans=ir.and_(
            ir.eq(
                ir.next_var("i", bitvec(w)),
                ir.ite(ir.bvult(i, ir.bv_const(d, w)), ir.bvadd(i, ir.bv_const(1, w)), i),
            ),
            ir.eq(ir.next_var("done", BOOL), ir.or_(done, ir.eq(i, ir.bv_const(d, w)))),
        ),
        props=(Prop("check_not_reached", ir.not_(done)),),
        halt=ir.FALSE,
        name=f"const_check_d{d}",
    )
    sys.validate()
    return sys


def accumulator(d: int, variant: str) -> TransitionSystem:
    """A sum loop: for i in 0..n-1, sn += 2, with n chosen by the initial
    state. The safe variant asserts the loop invariant sn = 2*i and the
    post-loop sum shape; the buggy variant additionally asserts the sum
    never reaches 2*d, which fails once n >= d (shortest counterexample
    d+1 states).
    """
    _check_d(d)
    if variant not in ("safe", "buggy"):
        raise ConfigError(f"accumulator variant must be safe or buggy, got {variant!r}")
    w = _width_for(d + 1) + 1
    n = ir.var("n", bitvec(w))
    i = ir.var("i", bitvec(w))
    sn = ir.var("sn", bitvec(w))
    two = ir.bv_const(2, w)
    zero = ir.bv_const(0, w)
    running = ir.bvult(i, n)
    props = [
        Prop("sum_is_twice_i", ir.eq(sn, ir.bvmul(i, two))),
        Prop(
            "final_sum_ok",
            ir.implies(
                ir.bvuge(i, n), ir.or_(ir.eq(sn, ir.bvmul(n, two)), ir.eq(sn, zero))
            ),
        ),
    ]
    if variant == "buggy":
        props.append(Prop("sum_below_target", ir.not_(ir.eq(sn, ir.bv_const(2 * d, w)))))
    sys = TransitionSystem(
        vars=(
            VarDecl("n", bitvec(w), VarRole.STATE),
            VarDecl("i", bitvec(w), VarRole.STATE),
            VarDecl("sn", bitvec(w), VarRole.STATE),
        ),
        init=ir.and_(ir.eq(i, zero), ir.eq(sn, zero)),
        trans=ir.and_(
            ir.eq(ir.next_var("n", bitvec(w)), n),
            ir.eq(ir.next_var("i", bitvec(w)), ir.ite(running, ir.bvadd(i, ir.bv_const(1, w)), i)),
            ir.eq(ir.next_var("sn", bitvec(w)), ir.ite(running, ir.bvadd(sn, two), sn)),
        ),
        props=tuple(props),
        halt=ir.bvuge(i, n),
        name=f"accumulator_{variant}_d{d}",
    )
    sys.validate()
    return sys


def _check_d(d: int) -> None:
    if d < 1:
        raise ConfigError(f"depth parameter must be at least 1, got {d}")


_FAMILIES = {
    "chain_bug": chain_bug,
    "diamond_parity": diamond_parity,
    "const_check": const_check,
}


def generate_benchmark(spec: BenchmarkSpec) -> TransitionSystem:
    if spec.family == "accumulator":
        if not spec.variant:
            raise ConfigError("accumulator needs a variant: safe or buggy")
        return accumulator(spec.d, spec.variant)
    builder = _FAMILIES.get(spec.family)
    if builder is None:
        raise ConfigError(
            f"unknown benchmark family {spec.family!r}; known:"
            f" {', '.join(sorted(_FAMILIES) + ['accumulator'])}"
        )
    if spec.variant:
        raise ConfigError(f"family {spec.family} takes no variant")
    return builder(spec.d)
