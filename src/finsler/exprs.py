"""Parser and evaluator for the metric / vector-field expression grammar.

Grammar (shared by metric files and vector-field definitions):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative
    atom    := number | identifier | function '(' expr ')' | '(' expr ')'

Identifiers are ``x1..xn`` (base point) and ``v1..vn`` (tangent vector);
functions are ``sqrt``, ``exp``, ``log``.  Exponents must be numeric
constants, so every expression is smooth wherever sqrt/log/fractional powers
receive positive arguments.  Compiled expressions evaluate over plain floats
or over jets, whichever the caller passes in.
"""

from __future__ import annotations

import re

from . import jets
from .errors import ParseError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"sqrt": jets.sqrt, "exp": jets.exp, "log": jets.log}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", text, bad)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.text, len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", self.text, tok[2])

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", self.text, tok[2])
        return node

    def expr(self):
        node = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.next()
            rhs = self.term()
            node = (tok[1], node, rhs)
        return node

    def term(self):
        node = self.factor()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.next()
            rhs = self.factor()
            node = (tok[1], node, rhs)
        return node

    def factor(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.peek()
        node = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            start = self.peek()
            exponent = self.factor()
            value = self.fold(exponent, "exponent", start)
            if value is None:
                raise ParseError("exponent must be a numeric constant", self.text, tok[2])
            node = ("pow", node, value)
            # a constant base is folded too, so that e.g. (0 - 8)^0.5 is
            # refused here rather than turning complex during evaluation
            self.fold(node, "constant power", base)
        return node

    def fold(self, node, what, start):
        """_const_value(node), refusing complex values and failed arithmetic."""
        try:
            value = _const_value(node)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ParseError(f"{what} cannot be evaluated ({exc})", self.text, start[2])
        if isinstance(value, complex):
            raise ParseError(f"{what} is not a real number", self.text, start[2])
        return value

    def atom(self):
        tok = self.next()
        if tok[0] == "num":
            return ("num", tok[1])
        if tok[0] == "name":
            if tok[1] in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", tok[1], arg)
            return ("var", tok[1], tok[2])
        if tok[1] == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok[1]!r}", self.text, tok[2])


def _const_value(node):
    """Fold a constant subtree to a float, or return None if it has variables."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "neg":
        v = _const_value(node[1])
        return None if v is None else -v
    if kind in "+-*/":
        a, b = _const_value(node[1]), _const_value(node[2])
        if a is None or b is None:
            return None
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[kind]
    if kind == "pow":
        a = _const_value(node[1])
        return None if a is None else a ** node[2]
    return None


def parse_expression(text):
    """Parse `text` into an AST; raises ParseError with a position on failure."""
    parser = _Parser(text)
    if not parser.tokens:
        raise ParseError("empty expression", text, 0)
    return parser.parse()


def compile_expression(text, dim, allow_v=True):
    """Compile an expression into a callable ``f(x_seq, v_seq) -> scalar``.

    The callable is generic over the scalar ring: sequences of floats or of
    jets both work.  With allow_v=False the v-variables are rejected (vector
    fields on the chart depend on position only).
    """
    ast = parse_expression(text)

    def resolve(node):
        kind = node[0]
        if kind == "num":
            value = node[1]
            return lambda x, v: value
        if kind == "var":
            name, pos = node[1], node[2]
            m = re.fullmatch(r"([xv])(\d+)", name)
            if m is None:
                raise ParseError(f"unknown variable {name!r}", text, pos)
            idx = int(m.group(2)) - 1
            if not 0 <= idx < dim:
                raise ParseError(
                    f"variable {name!r} out of range for dimension {dim}", text, pos
                )
            if m.group(1) == "x":
                return lambda x, v: x[idx]
            if not allow_v:
                raise ParseError(
                    f"variable {name!r} not allowed here (position-only expression)",
                    text,
                    pos,
                )
            return lambda x, v: v[idx]
        if kind == "neg":
            f = resolve(node[1])
            return lambda x, v: -f(x, v)
        if kind in "+-*/":
            fa, fb = resolve(node[1]), resolve(node[2])
            op = kind
            if op == "+":
                return lambda x, v: fa(x, v) + fb(x, v)
            if op == "-":
                return lambda x, v: fa(x, v) - fb(x, v)
            if op == "*":
                return lambda x, v: fa(x, v) * fb(x, v)
            return lambda x, v: fa(x, v) / fb(x, v)
        if kind == "pow":
            f = resolve(node[1])
            p = node[2]
            return lambda x, v: f(x, v) ** p
        if kind == "call":
            func = _FUNCTIONS[node[1]]
            f = resolve(node[2])
            return lambda x, v: func(f(x, v))
        raise AssertionError(f"unhandled node {kind}")

    return resolve(ast)
