"""Arithmetic expressions over named uncertain variables.

Grammar (EBNF):

    expr    := term   { ("+" | "-") term }
    term    := factor { ("*" | "/") factor }
    factor  := "-" factor | power
    power   := primary [ ("^" | "**") factor ]        (right-associative)
    primary := number | name | name "(" expr { "," expr } ")" | "(" expr ")"

Precedence: ^ binds tighter than unary minus, which binds tighter than
* and /, which bind tighter than + and -.  Numbers are exact constants.
Where an exponent is exactly 2, x^2 is x*x (np.square), correctly
rounded, in both evaluators and at every length; numpy's pow is not.
Nesting deeper than MAX_NESTING levels is a ParseError.
Every syntactic occurrence of a variable is an independent measurement:
"x + x" and "2*x" propagate differently, on purpose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import UncertainScalar, UncertainVector, as_uncertain
from .exceptions import LexError, ParseError, UnboundVariable, UnknownFunction
from .formatting import _NUMERAL, _bare
from .propagation import (
    BINARY_RULES,
    UNARY_RULES,
    propagate_binary,
    propagate_unary,
)

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ExprAst",
    "tokenize",
    "parse",
    "parse_expr",
    "render",
    "free_variables",
    "eval_uncertain",
    "eval_numeric",
]


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    fn: str
    arg: "ExprAst"


@dataclass(frozen=True)
class Binary:
    fn: str
    left: "ExprAst"
    right: "ExprAst"


ExprAst = Union[Const, Var, Unary, Binary]


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "op"
    text: str
    offset: int


_TOKEN_RE = re.compile(
    rf"(?P<num>{_NUMERAL})"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9.]*)"
    r"|(?P<op>\*\*|[-+*/^(),])"
)


def tokenize(src: str) -> list[Token]:
    """Split an expression into number, identifier and operator tokens."""
    tokens = []
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise LexError(f"unexpected character {src[i]!r}", i)
        kind = m.lastgroup
        tokens.append(Token(kind, m.group(), i))
        i = m.end()
    return tokens


_ADD_OPS = {"+": "add", "-": "sub"}
_MUL_OPS = {"*": "mul", "/": "div"}
_POW_OPS = ("^", "**")

# Deepest nesting of factors the parser accepts: each parenthesis, call
# argument, unary sign and exponent opens one more level.  The bound keeps
# the recursive-descent parser well inside Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token], src_len: int):
        self.tokens = tokens
        self.pos = 0
        self.src_len = src_len
        self.nesting = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.src_len)
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            found = t.text if t else "end of expression"
            where = t.offset if t else self.src_len
            raise ParseError(f"expected {text!r}, found {found!r}", where)
        return self.next()

    def expr(self) -> ExprAst:
        node = self.term()
        while (t := self.peek()) and t.text in _ADD_OPS:
            self.next()
            node = Binary(_ADD_OPS[t.text], node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while (t := self.peek()) and t.text in _MUL_OPS:
            self.next()
            node = Binary(_MUL_OPS[t.text], node, self.factor())
        return node

    def factor(self) -> ExprAst:
        # parentheses, call arguments, unary signs and exponents all
        # recurse through here, so one counter bounds the recursion
        t = self.peek()
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             t.offset if t else self.src_len)
        if t and t.text in ("-", "+"):
            self.next()
            node = self.factor()
            if t.text == "-":
                node = Unary("neg", node)
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> ExprAst:
        base = self.primary()
        t = self.peek()
        if t and t.text in _POW_OPS:
            self.next()
            return Binary("pow", base, self.factor())
        return base

    def primary(self) -> ExprAst:
        t = self.next()
        if t.kind == "num":
            return Const(float(t.text))
        if t.kind == "name":
            nxt = self.peek()
            if nxt and nxt.text == "(":
                return self.call(t)
            return Var(t.text)
        if t.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {t.text!r}", t.offset)

    def call(self, name: Token) -> ExprAst:
        self.expect("(")
        args = [self.expr()]
        while (t := self.peek()) and t.text == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        if name.text in UNARY_RULES:
            if len(args) != 1:
                raise ParseError(
                    f"{name.text} takes 1 argument, got {len(args)}", name.offset
                )
            return Unary(name.text, args[0])
        if name.text in BINARY_RULES:
            if len(args) != 2:
                raise ParseError(
                    f"{name.text} takes 2 arguments, got {len(args)}", name.offset
                )
            return Binary(name.text, args[0], args[1])
        raise UnknownFunction(f"unknown function {name.text!r}")


def parse(tokens: list[Token], src_len: int = 0) -> ExprAst:
    """Parse a token stream into an AST."""
    p = _Parser(tokens, src_len)
    node = p.expr()
    if (t := p.peek()) is not None:
        raise ParseError(f"unexpected trailing token {t.text!r}", t.offset)
    return node


def parse_expr(src: str) -> ExprAst:
    """Tokenize and parse in one step."""
    return parse(tokenize(src), len(src))


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_ATOM = 5  # a name, a number or a call: never parenthesized
_OP_TEXT = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _walk(ast: ExprAst, leaf, unary, binary):
    """Fold the tree bottom-up, left operand first, without recursion.

    `leaf(node)` maps a Const or Var node to an operand; `unary(fn, a)`
    and `binary(fn, a, b)` combine operands.  A flat chain such as
    x+x+...+x builds a tree as deep as it is long, so the walk keeps its
    own stack instead of Python's.
    """
    # pre-order, right subtree first; read backwards: post-order, left first
    order, todo = [], [ast]
    while todo:
        node = todo.pop()
        order.append(node)
        if isinstance(node, Binary):
            todo += (node.left, node.right)
        elif isinstance(node, Unary):
            todo.append(node.arg)
    out = []
    for node in reversed(order):
        if isinstance(node, Binary):
            out[-2:] = [binary(node.fn, *out[-2:])]
        elif isinstance(node, Unary):
            out[-1] = unary(node.fn, out[-1])
        else:
            out.append(leaf(node))
    return out[0]


def _const_text(v: float) -> str:
    return "1e999" if v == float("inf") else _bare(v)  # 1e999 parses back as inf


def _paren(operand: tuple[str, int], prec: int) -> str:
    text, own = operand
    return f"({text})" if own < prec else text


def render(ast: ExprAst) -> str:
    """Canonical printer: parse(render(parse(s))) == parse(s)."""

    def leaf(node):
        return (node.name if isinstance(node, Var) else _const_text(node.value)), _ATOM

    def unary(fn, a):
        if fn == "neg":
            return "-" + _paren(a, _PREC["neg"]), _PREC["neg"]
        return f"{fn}({a[0]})", _ATOM

    def binary(fn, a, b):
        if fn not in _OP_TEXT:
            return f"{fn}({a[0]}, {b[0]})", _ATOM
        # ^ is right-associative: an equal-precedence left operand needs parentheses
        prec, right_assoc = _PREC[fn], fn == "pow"
        lhs, rhs = _paren(a, prec + right_assoc), _paren(b, prec + (not right_assoc))
        return f"{lhs} {_OP_TEXT[fn]} {rhs}", prec

    return _walk(ast, leaf, unary, binary)[0]


def free_variables(ast: ExprAst) -> set[str]:
    return _walk(ast, lambda node: {node.name} if isinstance(node, Var) else set(),
                 lambda fn, a: a, lambda fn, a, b: a | b)


def _bound(node: Const | Var, env: dict):
    """A constant's number or a variable's binding."""
    if isinstance(node, Const):
        return node.value
    if node.name not in env:
        raise UnboundVariable(node.name)
    return env[node.name]


def _uncertain_leaf(val) -> UncertainVector:
    # a plain number is exact; float() rejects anything else
    return as_uncertain(val if isinstance(val, (UncertainVector, UncertainScalar)) else float(val))


def eval_uncertain(ast: ExprAst, env: dict) -> UncertainScalar | UncertainVector:
    """Evaluate with uncertainty propagation at every node.

    Environment values may be UncertainVector, UncertainScalar or plain
    numbers (exact).  The tree is evaluated once over whole vectors; a
    scalar or number is the length-1 case and broadcasts against them.
    Returns an UncertainScalar when no binding is an UncertainVector,
    else an UncertainVector.
    """
    out = _walk(ast, lambda node: _uncertain_leaf(_bound(node, env)),
                propagate_unary, propagate_binary)
    return out if any(isinstance(v, UncertainVector) for v in env.values()) else out[0]


# Both evaluators make the same numpy calls: a number is a length-1 array,
# and a length-1 operand is repeated to the other's length, as propagation's
# _operand does.  numpy takes other paths for a 0-d or a broadcast operand
# (sqrt(x) for x^0.5, where pow gives inf for (-inf)^0.5), and their last
# bits can differ, so a value would depend on the operands' length.  The
# one exception is x^2: an exponent of exactly 2 is np.square(x), at every
# length, so a length-1 2 is found before any repeat.

def _numeric_leaf(node: Const | Var, env: dict) -> np.ndarray:
    v = np.asarray(_bound(node, env), dtype=float)
    return v.reshape(1) if v.ndim == 0 else v


def _numeric_binary(fn: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if fn == "pow" and y.size == 1 and y[0] == 2.0:
        return np.square(x)
    if x.size != y.size:
        x, y = (np.repeat(a, max(x.size, y.size)) if a.size == 1 else a for a in (x, y))
    return BINARY_RULES[fn][0](x, y)


def eval_numeric(ast: ExprAst, env: dict):
    """Plain numeric evaluation, same tree semantics and numpy calls as
    eval_uncertain's values.  Returns a numpy array when some binding is
    an array, else a numpy float."""
    with np.errstate(all="ignore"):
        out = _walk(ast, lambda node: _numeric_leaf(node, env),
                    lambda fn, x: UNARY_RULES[fn][0](x), _numeric_binary)
    return out if any(np.ndim(v) for v in env.values()) else out[0]
