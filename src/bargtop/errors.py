"""Exception taxonomy for bargtop.

Every error raised by the package derives from :class:`BargtopError`, so
callers can catch one base class.  The subclasses mirror the failure modes
of the numerical pipeline: near-singular linear algebra, degenerate phases,
violated standing hypotheses, and non-convergent quadrature.
"""


class BargtopError(Exception):
    """Base class for all bargtop errors."""


class ShapeMismatch(BargtopError):
    """Inconsistent dimensions between matrices, vectors, or instances."""


class SingularMatrix(BargtopError):
    """A matrix failed the relative smallest-singular-value gate."""


class NumericalFailure(BargtopError):
    """An internal consistency check (residual, reconstruction) failed."""


class NotReduced(BargtopError):
    """A weight with non-vanishing pluriharmonic part was passed where a
    Hermitian-reduced weight is required."""


class NotReal(BargtopError):
    """Coefficients fail the reality conditions of a real-valued form."""


class DegeneratePhase(BargtopError):
    """The quadratic phase of a stationary-value problem is degenerate."""


class DegenerateFxz(BargtopError):
    """The mixed block of the kernel phase is singular; signals an upstream
    assumption failure."""


class NotBijective(BargtopError):
    """A Cayley-type gate det(1 +/- G/2) failed; the phase-space map would
    not be bijective."""


class NotAGraph(BargtopError):
    """The image plane does not project bijectively onto the base variables
    and is therefore not the graph of a weight gradient."""


class PreconditionViolated(BargtopError):
    """An operation was called outside its documented precondition."""


class AssumptionViolated(BargtopError):
    """The standing hypotheses on (weight, symbol) fail.

    Attributes
    ----------
    failed : list of str
        Names of the violated checks, among ``"strict_psh"``,
        ``"majorization"`` and ``"nondegeneracy"``.
    report : object
        The full validation report, when available.
    """

    def __init__(self, failed, report=None):
        self.failed = list(failed)
        self.report = report
        super().__init__("instance violates standing assumptions: " + ", ".join(self.failed))


class HypothesisViolated(BargtopError):
    """Explicit-family parameters outside the admissible region."""


class NotConcave(BargtopError):
    """The real quadratic form to be maximized is not negative definite."""


class NonConvergent(BargtopError):
    """A quadrature oracle gave no trustworthy value: two successive orders
    disagree beyond the tolerance, or an order gave non-finite entries."""


class ParseError(BargtopError):
    """An instance file could not be parsed.

    Attributes
    ----------
    field : str
        Dotted path of the offending field, e.g. ``"q.xxbar[0][1]"``.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
