"""Expression grammar for difference-differential polynomials.

::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)*
    atom     := rational | 'x' | deriv | ident | expfac | '(' expr ')'
    deriv    := 'f' quote* ('(' 's' (('+'|'-') rational)? ')')?
    expfac   := 'exp' '(' expr ')'        # argument must be linear in symbols
    rational := uint ('/' uint)?
    ident    := a symbol name from the basis

Examples: ``f'' - 1``, ``f'^2 - 4*f``, ``f(s+1) - 2*f``, ``x^2*f'' + f``,
``f' + L*f + L*f^2``.  The pretty printer emits canonical text whose parse
reproduces the polynomial exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .diffpoly import DiffIndeterminate, DiffPolynomial
from .errors import ExprSyntaxError, UnknownSymbol
from .series import Coefficient, Exponent, RationalLike, SymbolBasis, _as_rational, _join_signed

_KEYWORDS = {"x", "f", "s", "exp"}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'uint' | 'ident' | 'op' | 'quote' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("uint", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == "'":
            tokens.append(_Token("quote", ch, line, start_col))
            col += 1
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, basis: Optional[SymbolBasis]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.basis = basis

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ExprSyntaxError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                                  tok.line, tok.column)
        return self.advance()

    def parse(self) -> DiffPolynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)
        return value

    def expr(self) -> DiffPolynomial:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> DiffPolynomial:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> DiffPolynomial:
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                power = self.expect("uint")
                value = value ** int(power.text)
            else:
                return value

    def rational(self) -> RationalLike:
        num = self.expect("uint")
        value = int(num.text)
        tok = self.peek()
        if tok.kind == "op" and tok.text == "/":
            self.advance()
            den = self.expect("uint")
            if int(den.text) == 0:
                raise ExprSyntaxError("zero denominator", den.line, den.column)
            value = _as_rational(Fraction(value, int(den.text)))
        return value

    def atom(self) -> DiffPolynomial:
        tok = self.peek()
        if tok.kind == "uint":
            return DiffPolynomial.from_coefficient(self.rational())
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            value = self.expr()
            self.expect("op", ")")
            return value
        if tok.kind == "ident":
            if tok.text == "x":
                self.advance()
                return DiffPolynomial.x_power(1)
            if tok.text == "f":
                return self.deriv()
            if tok.text == "exp":
                return self.expfac()
            if tok.text == "s":
                raise ExprSyntaxError("'s' is only valid inside a shift f(...)",
                                      tok.line, tok.column)
            self.advance()
            if self.basis is not None and not self.basis.has_symbol(tok.text):
                raise UnknownSymbol(tok.text)
            return DiffPolynomial.from_coefficient(Coefficient.from_symbol(tok.text))
        raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}",
                              tok.line, tok.column)

    def deriv(self) -> DiffPolynomial:
        self.expect("ident", "f")
        order = 0
        while self.peek().kind == "quote":
            self.advance()
            order += 1
        shift = 0
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            self.expect("ident", "s")
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                q = self.rational()
                shift = q if tok.text == "+" else -q
            self.expect("op", ")")
        return DiffPolynomial.from_indeterminate(DiffIndeterminate(shift, order))

    def expfac(self) -> DiffPolynomial:
        self.expect("ident", "exp")
        open_tok = self.expect("op", "(")
        arg = self.expr()
        self.expect("op", ")")
        nu = _linear_exponent(arg, open_tok)
        return DiffPolynomial.from_coefficient(Coefficient.damping(-nu))


def _linear_exponent(poly: DiffPolynomial, tok: _Token) -> Exponent:
    """Interpret an f-free, x-free, damping-free linear polynomial as an exponent."""
    coords: dict[str, RationalLike] = {}
    const = 0
    for (xdeg, powers), coeff in poly.terms:
        if xdeg != 0 or powers:
            raise ExprSyntaxError("exp() argument must not contain x or f",
                                  tok.line, tok.column)
        for (syms, damp), q in coeff.terms:
            if not damp.is_zero:
                raise ExprSyntaxError("exp() argument must not nest exp()",
                                      tok.line, tok.column)
            if not syms:
                const += q
            elif len(syms) == 1 and syms[0][1] == 1:
                name = syms[0][0]
                coords[name] = coords.get(name, 0) + q
            else:
                raise ExprSyntaxError("exp() argument must be linear in the symbols",
                                      tok.line, tok.column)
    return Exponent.make(coords, const)


def parse_diffpoly(text: str, basis: Optional[SymbolBasis] = None) -> DiffPolynomial:
    """Parse grammar text into a canonical polynomial.

    When a basis is supplied, identifiers must name its symbols
    (:class:`UnknownSymbol` otherwise).
    """
    return _Parser(text, basis).parse()


def parse_coefficient(text: str, basis: Optional[SymbolBasis] = None) -> Coefficient:
    """Parse an f-free, x-free expression as a plain coefficient."""
    poly = _Parser(text, basis).parse()
    if poly.is_zero:
        return Coefficient.zero()
    for (xdeg, powers), _ in poly.terms:
        if xdeg != 0 or powers:
            raise ExprSyntaxError("coefficient must not contain x or f", 1, 1)
    total = Coefficient.zero()
    for _, c in poly.terms:
        total = total + c
    return total


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def _monomial_str(m) -> str:
    xdeg, powers = m
    parts = []
    if xdeg == 1:
        parts.append("x")
    elif xdeg > 1:
        parts.append(f"x^{xdeg}")
    for ind, k in powers:
        body = str(ind)
        parts.append(body if k == 1 else f"{body}^{k}")
    return "*".join(parts)


def _term_str(m, c: Coefficient) -> tuple[str, str]:
    """Return (sign, body) with the sign pulled out of single-term coefficients."""
    mono = _monomial_str(m)
    if c.is_rational:
        q = c.as_fraction()
        sign = "-" if q < 0 else "+"
        q = abs(q)
        if not mono:
            return sign, str(q)
        if q == 1:
            return sign, mono
        return sign, f"{q}*{mono}"
    if len(c.terms) == 1:
        cm, q = c.terms[0]
        sign = "-" if q < 0 else "+"
        body = Coefficient(((cm, abs(q)),)).__str__()
        return sign, body if not mono else f"{body}*{mono}"
    body = f"({c})"
    return "+", body if not mono else f"{body}*{mono}"


def pretty(F: DiffPolynomial) -> str:
    """Canonical text form; ``parse_diffpoly(pretty(F)) == F``."""
    if F.is_zero:
        return "0"
    return _join_signed([_term_str(m, c) for m, c in F.terms])
