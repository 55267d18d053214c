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

Tokens: a ``uint`` is a run of decimal digits (``\\d``, so ``٣`` reads as 3
but ``²`` is an unexpected character), refused past
:data:`~dforge.numeric.MAX_RATIONAL_DIGITS` of them; an identifier starts
with a letter or ``_`` and runs on over letters, digits and ``_``;
whitespace separates tokens and is otherwise skipped.  Errors give a 1-based
line and column, and only ``\\n`` starts a line.  The argument of
``exp(...)`` is free of x and f, linear in the symbols, and holds no
``exp``.  Parentheses, those of ``exp(`` included, nest at most
:data:`MAX_NESTING` deep, and no product forms more than
:data:`MAX_PRODUCT_PAIRS` term pairs.

Examples: ``f'' - 1``, ``f'^2 - 4*f``, ``f(s+1) - 2*f``, ``x^2*f'' + f``,
``f' + L*f + L*f^2``.  The pretty printer emits canonical text whose parse
reproduces the polynomial exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .diffpoly import DiffIndeterminate, DiffPolynomial
from .errors import ExprSyntaxError, UnknownSymbol
from .numeric import CAP_BITS, MAX_RATIONAL_DIGITS, frac_str
from .series import Coefficient, Exponent, RationalLike, SymbolBasis, _as_rational, _join_signed

# deepest nesting of parentheses a parse accepts: past it, a syntax error
# at the opening parenthesis rather than a RecursionError
MAX_NESTING = 100

# most term pairs one product of a parse may form, a term counting once per
# term of its coefficient.  Each '*' is a product, and so is each step of a
# power of more than one term, built by repeated multiplication (exact and
# canonical, so the same polynomial as repeated squaring); past the budget,
# a syntax error at the operator before the product is formed.  One-term
# powers are bounded by ``_power_too_wide`` instead.
MAX_PRODUCT_PAIRS = 1000

_TOKEN = re.compile(r"(?P<space>\s+)|(?P<uint>\d+)|(?P<ident>\w+)|(?P<quote>')"
                    r"|(?P<op>[-+*/^()])|(?P<bad>.)", re.DOTALL)


class _Token(NamedTuple):
    kind: str  # 'uint' | 'ident' | 'op' | 'quote' | 'end'
    text: str
    line: int
    column: int

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.line, self.column)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # line_start: index of the line's first character
    for m in _TOKEN.finditer(text):
        kind, word, start = m.lastgroup, m.group(), m.start()
        column = start - line_start + 1
        if kind == "space":
            if "\n" in word:
                line += word.count("\n")
                line_start = start + word.rindex("\n") + 1
        elif kind == "bad" or kind == "ident" and not (word[0].isalpha() or word[0] == "_"):
            raise ExprSyntaxError(f"unexpected character {word[0]!r}", line, column)
        else:
            tokens.append(_Token(kind, word, line, column))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, basis: Optional[SymbolBasis]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.basis = basis

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, *ops: str) -> Optional[str]:
        """Consume the next token and return its text when it is one of ``ops``."""
        if self.peek().text in ops:
            return self.advance().text
        return None

    def expect(self, text: Optional[str] = None) -> _Token:
        """Consume the next token, which must be ``text`` (a ``uint`` when None)."""
        tok = self.peek()
        if (tok.text != text) if text else (tok.kind != "uint"):
            raise tok.error(f"expected {text or 'uint'!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def uint(self) -> tuple[_Token, int]:
        """Consume a ``uint`` and return it with its value; one of more than
        MAX_RATIONAL_DIGITS digits is refused at the token, before ``int``."""
        tok = self.expect()
        if len(tok.text) > MAX_RATIONAL_DIGITS:
            raise tok.error(f"an integer of more than {MAX_RATIONAL_DIGITS} digits")
        return tok, int(tok.text)

    def parse(self) -> DiffPolynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise tok.error(f"trailing input {tok.text!r}")
        return value

    def expr(self) -> DiffPolynomial:
        sign = self.accept("+", "-")
        value = self.term()
        if sign == "-":
            value = -value
        while op := self.accept("+", "-"):
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> DiffPolynomial:
        value = self.factor()
        while (op := self.peek()).text == "*":
            self.advance()
            value = _product(op, value, self.factor())
        return value

    def factor(self) -> DiffPolynomial:
        value = self.atom()
        while (op := self.peek()).text == "^":
            self.advance()
            tok, k = self.uint()
            if _width(value) > 1:
                if k > MAX_PRODUCT_PAIRS:
                    raise op.error(f"a power of more than one term with an exponent "
                                   f"above {MAX_PRODUCT_PAIRS}")
                power = value if k else DiffPolynomial.one()
                for _ in range(k - 1):
                    power = _product(op, power, value)
                value = power
            elif _power_too_wide(value, k):
                raise tok.error(f"the power has a coefficient of more than "
                                f"{MAX_RATIONAL_DIGITS} digits")
            else:
                value = value ** k
        return value

    def rational(self) -> RationalLike:
        _, value = self.uint()
        if self.accept("/"):
            tok, den = self.uint()
            if den == 0:
                raise tok.error("zero denominator")
            value = _as_rational(Fraction(value, den))
        return value

    def nested(self, open_tok: _Token) -> DiffPolynomial:
        """The ``expr`` after the consumed ``open_tok`` '(', and its ')'."""
        if self.depth == MAX_NESTING:
            raise open_tok.error(f"parentheses nest deeper than {MAX_NESTING}")
        self.depth += 1
        value = self.expr()
        self.depth -= 1
        self.expect(")")
        return value

    def atom(self) -> DiffPolynomial:
        tok = self.peek()
        if tok.kind == "uint":
            return DiffPolynomial.from_coefficient(self.rational())
        if self.accept("("):
            return self.nested(tok)
        if tok.kind != "ident":
            raise tok.error(f"unexpected {tok.text or 'end of input'!r}")
        if tok.text == "s":
            raise tok.error("'s' is only valid inside a shift f(...)")
        self.advance()
        if tok.text == "f":
            return self.deriv()
        if tok.text == "exp":
            open_tok = self.expect("(")
            nu = _linear_exponent(self.nested(open_tok), open_tok)
            return DiffPolynomial.from_coefficient(Coefficient.damping(-nu))
        if tok.text == "x":
            return DiffPolynomial.x_power(1)
        if self.basis is not None and not self.basis.has_symbol(tok.text):
            raise UnknownSymbol(tok.text)
        return DiffPolynomial.from_coefficient(Coefficient.from_symbol(tok.text))

    def deriv(self) -> DiffPolynomial:
        """The rest of an f-atom after its 'f'."""
        order = 0
        while self.accept("'"):
            order += 1
        shift = 0
        if self.accept("("):
            self.expect("s")
            sign = self.accept("+", "-")
            if sign:
                q = self.rational()
                shift = q if sign == "+" else -q
            self.expect(")")
        return DiffPolynomial.from_indeterminate(DiffIndeterminate(shift, order))


def _width(value: DiffPolynomial) -> int:
    """The terms of ``value``, each counted once per term of its coefficient."""
    return sum(len(c.terms) for _, c in value.terms)


def _product(op: _Token, a: DiffPolynomial, b: DiffPolynomial) -> DiffPolynomial:
    """``a * b``, refused at ``op`` before it is formed when it would form
    more than MAX_PRODUCT_PAIRS term pairs."""
    if _width(a) * _width(b) > MAX_PRODUCT_PAIRS:
        raise op.error(f"a product of more than {MAX_PRODUCT_PAIRS} term pairs")
    return a * b


def _power_too_wide(value: DiffPolynomial, k: int) -> bool:
    """Whether ``value ** k`` is one term whose rational q^k has a numerator
    or denominator of more than MAX_RATIONAL_DIGITS digits, decided before
    a wide power is formed."""
    if len(value.terms) != 1 or len(value.terms[0][1].terms) != 1:
        return False
    q = value.terms[0][1].terms[0][1]
    n = max(abs(q.numerator), q.denominator)
    b = n.bit_length()
    # 2^((b-1)k) <= n^k < 2^(bk): only between the two is n^k formed, and it
    # then has fewer than twice the cap's bits
    if b * k < CAP_BITS:
        return False
    return (b - 1) * k >= CAP_BITS or n ** k >= 10 ** MAX_RATIONAL_DIGITS


def _linear_exponent(poly: DiffPolynomial, tok: _Token) -> Exponent:
    """Interpret an f-free, x-free, damping-free linear polynomial as an exponent."""
    coords: dict[str, RationalLike] = {}
    const = 0
    for (xdeg, powers), coeff in poly.terms:
        if xdeg != 0 or powers:
            raise tok.error("exp() argument must not contain x or f")
        for (syms, damp), q in coeff.terms:
            if not damp.is_zero:
                raise tok.error("exp() argument must not nest exp()")
            if not syms:
                const += q
            elif len(syms) == 1 and syms[0][1] == 1:
                name = syms[0][0]
                coords[name] = coords.get(name, 0) + q
            else:
                raise tok.error("exp() argument must be linear in the symbols")
    return Exponent.make(coords, const)


def parse_diffpoly(text: str, basis: Optional[SymbolBasis] = None) -> DiffPolynomial:
    """Parse grammar text into a canonical polynomial.

    When a basis is supplied, identifiers must name its symbols
    (:class:`UnknownSymbol` otherwise).
    """
    return _Parser(text, basis).parse()


def parse_coefficient(text: str, basis: Optional[SymbolBasis] = None) -> Coefficient:
    """Parse an f-free, x-free expression as a plain coefficient."""
    terms = _Parser(text, basis).parse().terms
    if any(mono != (0, ()) for mono, _ in terms):
        raise ExprSyntaxError("coefficient must not contain x or f", 1, 1)
    return terms[0][1] if terms else Coefficient.zero()


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
            return sign, frac_str(q)
        if q == 1:
            return sign, mono
        return sign, f"{frac_str(q)}*{mono}"
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
