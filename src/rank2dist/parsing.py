"""Parser for the shared coordinate-expression grammar.

Grammar: integers, rationals p/q, identifiers [A-Za-z_][A-Za-z0-9_]*,
operators + - * / ^ with standard precedence, parentheses.  `^` takes
nonnegative integer exponents up to 65535 only; parentheses and unary
signs nest at most MAX_NESTING deep.  Parses to a RatFunc over a given
ring.
"""

from __future__ import annotations

import re

from .kernel import MAX_EXPONENT, PolyRing, RatFunc

# each level costs two Python frames, so this keeps well inside the
# interpreter's default recursion limit of 1000
MAX_NESTING = 200

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(%s)|([()+\-*/^]))" % NAME_RE.pattern)


class ExpressionError(ValueError):
    """Parse failure, carrying the 0-based position in the source string."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExpressionError("unexpected character %r" % text[bad], bad)
        if m.group(1):
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Precedence-climbing parser producing RatFunc values directly."""

    BINARY = {"+": (1, "L"), "-": (1, "L"), "*": (2, "L"),
              "/": (2, "L"), "^": (4, "R")}

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self):
        value = self.expression(0)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError("unexpected token %r" % (val,), pos)
        return value

    def expression(self, min_prec):
        value = self.atom()
        while True:
            kind, op, pos = self.peek()
            if kind != "op" or op not in self.BINARY:
                return value
            prec, assoc = self.BINARY[op]
            if prec < min_prec:
                return value
            self.advance()
            if op == "^":
                value = self.power(value)
                continue
            rhs = self.expression(prec + 1 if assoc == "L" else prec)
            if op == "+":
                value = value + rhs
            elif op == "-":
                value = value - rhs
            elif op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ExpressionError("division by zero", pos)
                value = value / rhs

    def power(self, base):
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            if val > MAX_EXPONENT:
                raise ExpressionError("exponent %d exceeds %d"
                                      % (val, MAX_EXPONENT), pos)
            return base ** val
        raise ExpressionError("exponent must be a nonnegative integer", pos)

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return RatFunc.from_const(self.ring, val)
        if kind == "name":
            if val not in self.ring.index:
                raise ExpressionError("unknown variable %r" % val, pos)
            return RatFunc.variable(self.ring, val)
        if kind == "op" and val in ("(", "-", "+"):
            if self.depth == MAX_NESTING:
                raise ExpressionError("nested deeper than %d" % MAX_NESTING,
                                      pos)
            self.depth += 1
            inner = self.expression(0 if val == "(" else 3)
            self.depth -= 1
            if val == "(":
                kind, close, pos = self.advance()
                if not (kind == "op" and close == ")"):
                    raise ExpressionError("expected ')'", pos)
            return -inner if val == "-" else inner
        raise ExpressionError("expected a term", pos)


def parse_expr(text, ring):
    """Parse an expression string to a RatFunc over `ring`."""
    if isinstance(ring, (list, tuple)):
        ring = PolyRing(ring)
    return _Parser(tokenize(text), ring).parse()
