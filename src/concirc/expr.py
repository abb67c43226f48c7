"""Coordinate-expression language: tokenizer, recursive-descent parser, AST.

Grammar (tightest first): ``^`` (right-associative), unary ``-``, ``* /``,
``+ -`` (all left-associative).  Atoms are decimal literals, coordinate names,
parenthesised expressions, and single-argument calls to the function table in
:mod:`concirc.jets`.  ``2**3`` is a syntax error (caught at the second ``*``);
scientific notation is not a literal form, so ``1e-5`` is rejected at the
``e``.

Every node remembers its byte offset so syntax, arity, unknown-identifier and
domain errors can point at the offending spot.  Domain failures during
evaluation carry the text of the innermost failing subexpression.
"""

from __future__ import annotations

import math

import numpy as np

from . import jets
from .jets import Jet2, JetDomainError


class ExprError(ValueError):
    """Base class for everything this module raises."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


class ParseError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    pass


class ArityError(ExprError):
    pass


class EvalDomainError(ExprError):
    """Evaluation hit a domain failure; carries the failing subexpression."""

    def __init__(self, message: str, subexpr: str, pos: int):
        super().__init__("%s in %r" % (message, subexpr), pos)
        self.subexpr = subexpr


# -- AST ----------------------------------------------------------------------


class Expr:
    """Base node.  Subclasses implement jet/value evaluation and rendering."""

    __slots__ = ()
    pos: int

    def jet(self, point: np.ndarray) -> Jet2:
        raise NotImplementedError

    def val(self, point: np.ndarray) -> float:
        """Value-only evaluation; shares no derivative code with jet()."""
        raise NotImplementedError

    def _render(self, min_prec: int) -> str:
        raise NotImplementedError


def _wrap(text: str, prec: int, min_prec: int) -> str:
    return "(" + text + ")" if prec < min_prec else text


class Num(Expr):
    __slots__ = ("value", "pos")

    def __init__(self, value: float, pos: int = 0):
        self.value = value
        self.pos = pos

    def jet(self, point):
        return Jet2.constant(self.value, len(point))

    def val(self, point):
        return self.value

    def _render(self, min_prec):
        return np.format_float_positional(self.value, unique=True, trim="-")


class Var(Expr):
    __slots__ = ("name", "index", "pos")

    def __init__(self, name: str, index: int, pos: int = 0):
        self.name = name
        self.index = index
        self.pos = pos

    def jet(self, point):
        return Jet2.variable(point[self.index], self.index, len(point))

    def val(self, point):
        return float(point[self.index])

    def _render(self, min_prec):
        return self.name


class Neg(Expr):
    __slots__ = ("operand", "pos")

    def __init__(self, operand: Expr, pos: int = 0):
        self.operand = operand
        self.pos = pos

    def jet(self, point):
        return -self.operand.jet(point)

    def val(self, point):
        return -self.operand.val(point)

    def _render(self, min_prec):
        return _wrap("-" + self.operand._render(3), 3, min_prec)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


class Bin(Expr):
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left: Expr, right: Expr, pos: int = 0):
        self.op = op
        self.left = left
        self.right = right
        self.pos = pos

    def jet(self, point):
        a = self.left.jet(point)
        b = self.right.jet(point)
        try:
            if self.op == "+":
                return a + b
            if self.op == "-":
                return a - b
            if self.op == "*":
                return a * b
            if self.op == "/":
                return a / b
            return a ** b
        except JetDomainError as exc:
            raise EvalDomainError(str(exc), to_string(self), self.pos) from None
        except OverflowError:
            raise EvalDomainError("overflow", to_string(self), self.pos) \
                from None

    def val(self, point):
        a = self.left.val(point)
        b = self.right.val(point)
        try:
            if self.op == "+":
                return a + b
            if self.op == "-":
                return a - b
            if self.op == "*":
                return a * b
            if self.op == "/":
                if b == 0.0:
                    raise JetDomainError("division by zero")
                return a / b
            if float(b).is_integer() and abs(b) <= 2 ** 31:
                if a == 0.0 and b < 0:
                    raise JetDomainError("zero raised to a negative power")
                return a ** int(b)
            if a <= 0.0:
                raise JetDomainError(
                    "non-integer power of a non-positive base (%r)" % a)
            return math.exp(b * math.log(a))
        except JetDomainError as exc:
            raise EvalDomainError(str(exc), to_string(self), self.pos) from None
        except OverflowError:
            raise EvalDomainError("overflow", to_string(self), self.pos) \
                from None

    def _render(self, min_prec):
        p = _PREC[self.op]
        if self.op == "^":
            text = self.left._render(5) + "^" + self.right._render(4)
        else:
            text = "%s %s %s" % (self.left._render(p), self.op,
                                 self.right._render(p + 1))
        return _wrap(text, p, min_prec)


# Value-only twins of the jet function table, for the independent FD path.
_VALUE_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "abs": abs,
}


class Call(Expr):
    __slots__ = ("func", "arg", "pos")

    def __init__(self, func: str, arg: Expr, pos: int = 0):
        self.func = func
        self.arg = arg
        self.pos = pos

    def jet(self, point):
        try:
            return jets.FUNCTIONS[self.func](self.arg.jet(point))
        except JetDomainError as exc:
            raise EvalDomainError(str(exc), to_string(self), self.pos) from None
        except OverflowError:
            raise EvalDomainError("overflow", to_string(self), self.pos) \
                from None

    def val(self, point):
        x = self.arg.val(point)
        if self.func == "log" and x <= 0.0:
            raise EvalDomainError("log of a non-positive value (%r)" % x,
                                  to_string(self), self.pos)
        if self.func == "sqrt" and x < 0.0:
            raise EvalDomainError("sqrt of a negative value (%r)" % x,
                                  to_string(self), self.pos)
        if self.func == "tan" and math.cos(x) == 0.0:
            raise EvalDomainError("tan at an odd multiple of pi/2",
                                  to_string(self), self.pos)
        try:
            return _VALUE_FUNCTIONS[self.func](x)
        except OverflowError:
            raise EvalDomainError("overflow", to_string(self), self.pos) \
                from None

    def _render(self, min_prec):
        return "%s(%s)" % (self.func, self.arg._render(0))


def to_string(e: Expr) -> str:
    """Render so that parse(to_string(e)) evaluates identically to e."""
    return e._render(0)


# -- tokenizer ----------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(text: str):
    tokens = []
    i, size = 0, len(text)
    while i < size:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < size and text[j].isdigit():
                j += 1
            if j < size and text[j] == ".":
                j += 1
                while j < size and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            if lit == ".":
                raise ParseError("stray '.'", i)
            tokens.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % c, i)
    tokens.append(("end", "", size))
    return tokens


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, coords):
        self.text = text
        self.coords = {name: k for k, name in enumerate(coords)}
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[1] or "end"),
                             tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.sum()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected %r" % tok[1], tok[2])
        return e

    def sum(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            e = Bin(op, e, self.term(), pos)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            e = Bin(op, e, self.unary(), pos)
        return e

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            _, _, pos = self.next()
            return Neg(self.unary(), pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            # Right-associative; the exponent may carry a unary minus.
            return Bin("^", base, self.unary(), pos)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text), pos)
        if kind == "(":
            e = self.sum()
            self.expect(")")
            return e
        if kind == "ident":
            if text in jets.FUNCTIONS:
                self.expect("(")
                if self.peek()[0] == ")":
                    raise ArityError(
                        "%s expects 1 argument, got 0" % text, pos)
                args = [self.sum()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.sum())
                self.expect(")")
                if len(args) != 1:
                    raise ArityError(
                        "%s expects 1 argument, got %d" % (text, len(args)),
                        pos)
                return Call(text, args[0], pos)
            if text in self.coords:
                return Var(text, self.coords[text], pos)
            raise UnknownIdentifierError(
                "unknown identifier %r (coordinates: %s)"
                % (text, " ".join(self.coords)), pos)
        raise ParseError("unexpected %r" % (text or "end"), pos)


def parse(text: str, coords) -> Expr:
    """Parse ``text`` over the given coordinate names into an AST."""
    for name in coords:
        if name in jets.FUNCTIONS:
            raise ExprError(
                "coordinate name %r collides with a function name" % name, 0)
    return _Parser(text, coords).parse()
