"""Exception taxonomy for the solver stack.

Every failure mode that a caller might want to branch on gets its own class;
all of them derive from SolverError so `except SolverError` catches any
mathematical / numerical failure while letting programming errors propagate.
"""


class SolverError(Exception):
    """Base class for all solver failures."""


class NonConvergence(SolverError):
    """An iterative solve ran out of its iteration budget.

    Parameters
    ----------
    message : str
        Human-readable description of which loop failed.
    iterations : int
        Number of iterations performed.
    residual : float
        Residual (in the loop's own norm) at the point of giving up.
    """

    def __init__(self, message, iterations, residual):
        super().__init__(f"{message} (after {iterations} iterations, residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class SingularOperator(SolverError):
    """A linear solve was requested for an operator with nontrivial kernel
    and a right-hand side outside its range (e.g. pure Laplacian on the torus
    with a right-hand side of nonzero mean)."""


class NoSubsolution(SolverError):
    """The constant-subsolution recipe has no positive answer
    (the barrier coefficient is not bounded below by a positive constant)."""


class NotASupersolution(SolverError):
    """A user-supplied upper barrier failed pointwise verification.

    Attributes
    ----------
    node : tuple
        Grid index where the defect is worst.
    defect : float
        Signed defect value at that node (negative = violation).
    """

    def __init__(self, node, defect):
        super().__init__(f"supplied upper barrier fails at node {node} with defect {defect:.3e}")
        self.node = node
        self.defect = defect


class NoSupersolutionFound(SolverError):
    """The automatic search for an upper barrier failed.

    Carries a certificate: the best candidate value and its (negative) defect,
    so the caller can see how far from feasible the problem is.
    """

    def __init__(self, best_defect, best_value):
        super().__init__(
            "no constant upper barrier exists and the nonconstant search failed "
            f"(best candidate {best_value:.6g} with worst defect {best_defect:.3e})"
        )
        self.best_defect = best_defect
        self.best_value = best_value


class NonPositiveField(SolverError):
    """A field that must be strictly positive (e.g. the base of a fractional
    power) contains a value <= 0."""


class ContractionViolated(SolverError):
    """The variable-coefficient momentum iteration is provably or empirically
    outside its contraction regime."""


class UnderResolved(SolverError):
    """The grid is too coarse for the data: more of it lives on the unpaired
    highest-mode planes, which the discrete operators cannot represent, than
    a solve may drop.

    Attributes
    ----------
    content : float
        Sup norm of the data's unpaired-plane content.
    limit : float
        Largest content the solve accepts for this data.
    """

    def __init__(self, content, limit):
        super().__init__(
            f"unpaired-plane content {content:.3e} exceeds the limit {limit:.3e}; "
            "refine the grid")
        self.content = content
        self.limit = limit


class ConditionViolated(SolverError):
    """A pointwise hypothesis of the coupled iteration failed.

    Attributes
    ----------
    node : str or tuple
        Which bound failed (or the grid index of the worst violation).
    margin : float
        How far the bound was exceeded at the worst point.
    """

    def __init__(self, node, margin):
        super().__init__(f"coupling bound fails at {node}, exceeded by {margin:.3e}")
        self.node = node
        self.margin = margin


class DivergenceDetected(SolverError):
    """The coupled fixed-point loop shows sustained growth instead of settling."""


class NotCoercive(SolverError):
    """An operator required to be positive definite has a nonpositive bottom
    eigenvalue."""


class SignIndefiniteEigenfunction(SolverError):
    """The computed ground state changes sign, contradicting the expected
    positivity of the principal eigenfunction."""


class ConfigError(Exception):
    """Malformed configuration or construction input.

    Deliberately *not* a SolverError: a bad config is a usage problem,
    not a mathematical failure, and the command-line driver maps the two
    to different exit codes.
    """
