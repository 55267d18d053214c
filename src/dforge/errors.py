"""Exception taxonomy shared by all dforge modules.

Every error carries a stable ``code`` string so the CLI can report machine
greppable diagnostics.
"""


class DforgeError(Exception):
    """Base class for all dforge errors."""

    code = "error"


class BadBasis(DforgeError):
    """An exponent or coefficient references a symbol unknown to the basis."""

    code = "bad-basis"


class BasisMismatch(DforgeError):
    """Two series (or a series and a polynomial) disagree on their symbol basis."""

    code = "basis-mismatch"


class BadBound(DforgeError):
    """A truncation request exceeds the known validity horizon."""

    code = "bad-bound"


class PrecisionTie(DforgeError):
    """A numeric decision could not be certified at the working precision."""

    code = "precision-tie"


class PrecisionTieWarning(UserWarning):
    """An exponent comparison fell back to exact lexicographic order."""


class ResultantVanished(DforgeError):
    """The resultant of F and its total derivative is identically zero.

    Signals a repeated factor in the x-variable; the caller should split the
    input (see ``diffpoly.split_x_monomial_content``) or supply an
    irreducible polynomial.
    """

    code = "resultant-vanished"


class DegenerateInput(DforgeError):
    """Both resultant arguments are constant in the eliminated variable."""

    code = "degenerate-input"


class HorizonTooShort(DforgeError):
    """The requested horizon is not supported by the inputs.

    ``max_safe`` carries the largest horizon that would have been valid
    (``None`` when no conclusion is possible at all).
    """

    code = "horizon-too-short"

    def __init__(self, message, max_safe=None, details=None):
        super().__init__(message)
        self.max_safe = max_safe
        self.details = details


class PartialVanishes(DforgeError):
    """A first partial derivative substitutes to zero up to the horizon.

    The caller should restart the analysis with the lower-degree polynomial
    that the partial derivative itself provides.
    """

    code = "partial-vanishes"

    def __init__(self, order, shift, message=None):
        super().__init__(message or f"partial wrt f^({order})(s+{shift}) vanishes up to horizon")
        self.order = order
        self.shift = shift


class VerificationFailed(DforgeError):
    """An exponent above the certified threshold failed the lattice check."""

    code = "verification-failed"

    def __init__(self, index, message=None):
        super().__init__(message or f"exponent #{index} is not an integer combination of its predecessors")
        self.index = index


class NotInLatticeError(DforgeError):
    """An exponent does not lie in the integer lattice of the given basis."""

    code = "not-in-lattice"

    def __init__(self, exponent, message=None):
        super().__init__(message or f"exponent {exponent} is not in the lattice")
        self.exponent = exponent


class ZeroScalar(DforgeError):
    """Rescaling constants must be nonzero."""

    code = "zero-scalar"


class FactorLimitExceeded(DforgeError):
    """Trial division gave up on an index below the configured limit."""

    code = "factor-limit"

    def __init__(self, index, message=None):
        super().__init__(message or f"could not factor {index} within the trial-division limit")
        self.index = index


class InsufficientNonzeroTerms(DforgeError):
    """The gap rule ran out of nonzero coefficients within the scan."""

    code = "insufficient-nonzero-terms"


class UnknownFamily(DforgeError):
    """A coefficient stream entry carries no supported family tag."""

    code = "unknown-family"


class ShiftPresent(DforgeError):
    """Difference terms have no s=0 partial-differential analogue."""

    code = "shift-present"


class InvarianceViolated(DforgeError):
    """A rescaled series failed to satisfy the equation it must satisfy."""

    code = "invariance-violated"


class ExprSyntaxError(DforgeError):
    """Syntax error in the expression grammar, with 1-based position info."""

    code = "syntax-error"

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownSymbol(DforgeError):
    """An identifier in an expression does not name a basis symbol."""

    code = "unknown-symbol"

    def __init__(self, name, message=None):
        super().__init__(message or f"unknown symbol {name!r}")
        self.name = name


class SchemaError(DforgeError):
    """A certificate file does not match the expected JSON schema."""

    code = "schema-error"


class UsageError(DforgeError):
    """A command line that does not parse, or whose flags do not go together."""

    code = "usage"


class ConfigError(DforgeError, ValueError):
    """A config file, flag or environment value is malformed or out of range."""

    code = "config"
