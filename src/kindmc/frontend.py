"""Input language and benchmark generators.

The input format is a single s-expression:

    (system
      (var x (bv 3))
      (input c bool)
      (init (= x 0))
      (trans (= (next x) (bvadd x 1)))
      (prop p1 (not (= x 5)))
      (halt false))

Whitespace is space, tab, CR and LF; any other character, a form feed or
a no-break space too, belongs to an atom. `;` starts a comment that runs to
the next LF or to the end of the input. Error positions count lines by LF
and columns by character, so a tab or a CR is one column.

The reader splits the text into token strings with one regex call and
builds the tree in one loop over them. A node keeps its source and the
index of its first token, not a position: line and column are computed
only when an error asks for them, from where each token and each line
starts, worked out once per source on that first request.

Sections may appear in any order; var/input/prop repeat, init/trans/halt
appear exactly once. Decimal integer literals take their width from
context (the other operand or the expected sort); where no context exists
that is a width-ambiguity error. Sized literals #b0101 / #x1f carry their
own width. Identifiers match [A-Za-z_][A-Za-z0-9_]* (so '@' can never
appear; the encoder uses it for timed variable names).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import ir
from .errors import ConfigError, ParseError
from .ir import (
    BOOL,
    MAX_NESTING,
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


class _Source:
    """A text being read. Where each token starts, and where each line
    starts, is worked out only when an error first asks for a position."""

    __slots__ = ("text", "_starts", "_lines")

    def __init__(self, text: str) -> None:
        self.text = text
        self._starts: list[int] = []
        self._lines: list[int] = []

    def position(self, index: int) -> tuple[int, int]:
        """The 1-based line and column of token `index`."""
        if not self._lines:
            text = self.text
            self._starts = [m.start() for m in _TOKEN.finditer(text)]
            self._lines = [0] + [m.end() for m in _LF.finditer(text)]
        at = self._starts[index]
        line = bisect_right(self._lines, at)
        return line, at - self._lines[line - 1] + 1


class SNode:
    """An s-expression node: an atom's text or a list's items, and the
    index of its first token in its source, from which `line` and `col`
    are computed when read."""

    __slots__ = ("text", "items", "source", "index")

    def __init__(
        self, text: Optional[str], items: Optional[list["SNode"]], source: _Source, index: int
    ) -> None:
        self.text = text
        self.items = items
        self.source = source
        self.index = index

    @property
    def is_atom(self) -> bool:
        return self.text is not None

    @property
    def line(self) -> int:
        return self.source.position(self.index)[0]

    @property
    def col(self) -> int:
        return self.source.position(self.index)[1]


# A comment, an atom or a paren; findall skips the whitespace between them.
_TOKEN = re.compile(r";[^\n]*|[^() \t\r\n;]+|[()]")
_LF = re.compile(r"\n")


def _read(src: str) -> list[SNode]:
    """S-expressions at most MAX_NESTING deep, so no recursive pass overruns the stack."""
    source = _Source(src)
    forms: list[SNode] = []
    open_lists: list[SNode] = []
    items = forms
    for i, tok in enumerate(_TOKEN.findall(src)):
        if tok == "(":
            if len(open_lists) == MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING} levels", *source.position(i)
                )
            node = SNode(None, [], source, i)
            items.append(node)
            open_lists.append(node)
            items = node.items
        elif tok == ")":
            if not open_lists:
                raise ParseError("unexpected ')'", *source.position(i))
            open_lists.pop()
            items = open_lists[-1].items if open_lists else forms
        elif tok[0] != ";":
            items.append(SNode(tok, None, source, i))
    if open_lists:
        raise ParseError("unclosed '('", open_lists[-1].line, open_lists[-1].col)
    return forms


# ---------------------------------------------------------------------------
# Elaboration

_DEC_RE = re.compile(r"[0-9]+\Z")
_HEX_RE = re.compile(r"#x[0-9a-fA-F]+\Z")
_BIN_RE = re.compile(r"#b[01]+\Z")


class _AmbiguousLiteral(ParseError):
    """A decimal literal with no sort to take its width from. An operand pair
    catches it to try the sibling's sort; anywhere else it is the error."""

    def __init__(self, node: SNode) -> None:
        super().__init__("cannot infer bit-vector width for literal", node.line, node.col)


@dataclass
class _Env:
    # name -> the variable's reference, one object per declaration
    state: dict[str, Expr]
    inputs: dict[str, Expr]
    allow_next: bool
    allow_input: bool
    where: str


def _bv_sort(width: int, node: SNode) -> Sort:
    """The bit-vector sort of the given width, or a ParseError at node."""
    if not 1 <= width <= ir.MAX_WIDTH:
        raise ParseError(
            f"bit-vector width must be 1..{ir.MAX_WIDTH}, got {width}", node.line, node.col
        )
    return bitvec(width)


def _elab_sort(node: SNode) -> Sort:
    if node.is_atom:
        if node.text == "bool":
            return BOOL
        raise ParseError(f"unknown sort {node.text!r}", node.line, node.col)
    items = node.items or []
    if len(items) == 2 and items[0].is_atom and items[0].text == "bv":
        w = items[1]
        if w.is_atom and _DEC_RE.match(w.text or ""):
            return _bv_sort(int(w.text), w)  # type: ignore[arg-type]
    raise ParseError("expected a sort: bool or (bv <width>)", node.line, node.col)


def _expect_sort(e: Expr, expected: Optional[Sort], node: SNode) -> Expr:
    if expected is not None and e.sort is not expected and e.sort != expected:
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
    text = node.text
    if text is not None:
        if text == "true":
            return _expect_sort(ir.TRUE, expected, node)
        if text == "false":
            return _expect_sort(ir.FALSE, expected, node)
        # a declared name before the literals, which never look like one
        if text in env.state:
            return _expect_sort(env.state[text], expected, node)
        if text in env.inputs:
            if not env.allow_input:
                raise ParseError(
                    f"input variable {text!r} not allowed in {env.where}",
                    node.line,
                    node.col,
                )
            return _expect_sort(env.inputs[text], expected, node)
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
            sort = _bv_sort(4 * (len(text) - 2), node)
            return _expect_sort(ir.const(int(text[2:], 16), sort), expected, node)
        if _BIN_RE.match(text):
            sort = _bv_sort(len(text) - 2, node)
            return _expect_sort(ir.const(int(text[2:], 2), sort), expected, node)
        raise ParseError(f"undeclared variable {text!r}", node.line, node.col)

    items = node.items or []
    if not items or not items[0].is_atom:
        raise ParseError("expected an operator application", node.line, node.col)
    op = items[0].text or ""
    args = items[1:]

    if op == "next":
        if len(args) != 1:
            raise ParseError(f"next takes 1 operand(s), got {len(args)}", node.line, node.col)
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
        return _expect_sort(ir.next_var(name, env.state[name].sort), expected, node)
    if op not in _OPERATORS:
        raise ParseError(f"unknown operator {op!r}", node.line, node.col)
    count, kind, build = _OPERATORS[op]
    if count == 0 and len(args) < 2:
        raise ParseError(f"{op} takes at least two operands", node.line, node.col)
    if count and len(args) != count:
        raise ParseError(f"{op} takes {count} operand(s), got {len(args)}", node.line, node.col)
    return _expect_sort(build(*_operands(kind, op, args, env, expected)), expected, node)


def _operands(
    kind: str, op: str, args: list[SNode], env: _Env, expected: Optional[Sort]
) -> list[Expr]:
    """Elaborate an operator's operands, left to right, as its kind says."""
    if kind == "bool":
        return [_elab(a, env, BOOL) for a in args]
    if kind == "same":
        return list(_elab_pair(args[0], args[1], env, None))
    if kind == "ite":  # the branches have the sort expected of the whole
        return [_elab(args[0], env, BOOL), *_elab_pair(args[1], args[2], env, expected)]
    # bit-vectors: "bv" operands have the sort expected of the whole, "cmp" ones no hint
    hint = expected if kind == "bv" and expected is not None and not expected.is_bool else None
    first = args[0]
    try:
        if len(args) == 1:
            parts = [_elab(first, env, hint)]
        else:
            parts = list(_elab_pair(first, args[1], env, hint))
    except _AmbiguousLiteral as exc:
        if kind == "bv":
            # the result has its operands' sort, so an enclosing pair can
            # still retry with a sibling's; bvnot reports at its operand
            if len(args) == 1:
                raise _AmbiguousLiteral(first) from None
            raise
        # a comparison is bool whatever its operands' width: no sibling can
        # give one, so this is the error
        raise ParseError(exc.message, exc.line, exc.col) from None
    if parts[0].sort.is_bool:
        expected_bv = "" if len(args) == 1 else ", expected a bit-vector"
        raise ParseError(
            f"sort error: operand of {op} has sort bool{expected_bv}", first.line, first.col
        )
    return parts


# op -> (operand count, 0 for two or more; how the operands elaborate; the
# ir constructor, which the elaborated operands always satisfy)
_OPERATORS = {
    "not": (1, "bool", ir.not_),
    "and": (0, "bool", ir.and_),
    "or": (0, "bool", ir.or_),
    "implies": (2, "bool", ir.implies),
    "iff": (2, "bool", ir.iff),
    "ite": (3, "ite", ir.ite),
    "=": (2, "same", ir.eq),
    "bvnot": (1, "bv", ir.bvnot),
    "bvadd": (2, "bv", ir.bvadd),
    "bvsub": (2, "bv", ir.bvsub),
    "bvmul": (2, "bv", ir.bvmul),
    "bvand": (2, "bv", ir.bvand),
    "bvor": (2, "bv", ir.bvor),
    "bvxor": (2, "bv", ir.bvxor),
    "bvule": (2, "cmp", ir.bvule),
    "bvult": (2, "cmp", ir.bvult),
    "bvuge": (2, "cmp", ir.bvuge),
    "bvugt": (2, "cmp", ir.bvugt),
}


_SINGLE_SECTIONS = ("init", "trans", "halt")


def parse(text: str, name: str = "system") -> TransitionSystem:
    """Parse .kts source text into a validated TransitionSystem."""
    forms = _read(text)
    if len(forms) != 1:
        line, col = (forms[1].line, forms[1].col) if forms else (1, 1)
        raise ParseError(f"expected exactly one (system ...) form, got {len(forms)}", line, col)
    top = forms[0]
    if top.is_atom or not top.items or not top.items[0].is_atom or top.items[0].text != "system":
        raise ParseError("expected (system ...)", top.line, top.col)

    decls: list[VarDecl] = []
    names: set[str] = set()
    single: dict[str, SNode] = {}  # init, trans and halt, each given once
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
        elif head in _SINGLE_SECTIONS:
            if len(body) != 1:
                raise ParseError(f"expected ({head} <expr>)", sec.line, sec.col)
            if head in single:
                raise ParseError(f"duplicate {head} section", sec.line, sec.col)
            single[head] = body[0]
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

    for head in _SINGLE_SECTIONS:
        if head not in single:
            raise ParseError(f"missing {head} section", top.line, top.col)
    if not prop_nodes:
        raise ParseError("missing prop section (at least one is required)", top.line, top.col)
    if not any(d.role is VarRole.STATE for d in decls):
        raise ParseError("a system needs at least one state variable", top.line, top.col)

    state = {d.name: ir.var(d.name, d.sort) for d in decls if d.role is VarRole.STATE}
    inputs = {d.name: ir.var(d.name, d.sort) for d in decls if d.role is VarRole.INPUT}

    init = _elab(single["init"], _Env(state, inputs, False, False, "init"), BOOL)
    trans = _elab(single["trans"], _Env(state, inputs, True, True, "trans"), BOOL)
    halt = _elab(single["halt"], _Env(state, inputs, False, False, "halt"), BOOL)
    props = tuple(
        Prop(pname, _elab(pnode, _Env(state, inputs, False, False, f"prop {pname}"), BOOL))
        for pname, pnode in prop_nodes
    )

    return TransitionSystem(tuple(decls), init, trans, props, halt, name=name)


def parse_file(path: Union[str, Path]) -> TransitionSystem:
    """Parse a .kts file, read as UTF-8 with universal newlines."""
    p = Path(path)
    data = p.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the bytes before the first bad one decode; count them as the reader does
        before = _newlines(data[: e.start].decode("utf-8"))
        raise ParseError(
            f"invalid UTF-8 byte 0x{data[e.start]:02x}",
            before.count("\n") + 1,
            len(before) - before.rfind("\n"),
        ) from None
    return parse(_newlines(text), name=p.stem)


def _newlines(text: str) -> str:
    """Each CR LF pair and each lone CR as LF, as a file opened in text
    mode reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
    return TransitionSystem(
        vars=(VarDecl("x", bitvec(w), VarRole.STATE),),
        init=ir.eq(x, ir.bv_const(0, w)),
        trans=ir.eq(ir.next_var("x", bitvec(w)), ir.bvadd(x, ir.bv_const(1, w))),
        props=(Prop("below_limit", ir.not_(ir.eq(x, ir.bv_const(d, w)))),),
        halt=ir.FALSE,
        name=f"chain_bug_d{d}",
    )


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
    return TransitionSystem(
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
    return TransitionSystem(
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
    return TransitionSystem(
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
