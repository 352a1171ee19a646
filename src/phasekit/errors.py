"""Exception hierarchy shared by all phasekit modules."""


class PhasekitError(Exception):
    """Base class for all phasekit errors."""


class WrongArity(PhasekitError):
    """Rate or moment vector length does not match the model."""


class NonErgodic(PhasekitError):
    """The exit is not reached from every state: a simulation could not
    reach the observed state within the jump guard, or the rates close a
    class of states, so det(-Qtilde) = 0 and the survival has no
    (lambda, A) form."""


class DegenerateSpectrum(PhasekitError):
    """Eigenvalues too close to separate; carries the offending pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InvalidDensity(PhasekitError):
    """Fitted density cannot be kept positive on the data support."""


class NoSolution(PhasekitError):
    """The solvers found no rate vector for the input; the CLI exits 3."""


class GenericBranchMiss(NoSolution):
    """Input violates an inequation of the generic inversion branch."""


class NegativeDiscriminant(NoSolution):
    """Quadratic discriminant of the generic branch is negative."""


class M3HypersurfaceMiss(NoSolution):
    """Moments do not lie on the M3 solution hypersurface."""


class NoBranchMatches(NoSolution):
    """No triangular branch accepts the moment vector; diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class ZeroPivot(NoSolution):
    """A divisor in the chain recursion fell below the pivot threshold."""


class SingularSteadyState(PhasekitError):
    """The chain without its exit arc has a state without hidden out-rate
    or no positive steady state, so its markers are undefined."""


class DomainViolation(PhasekitError):
    """Rate vector outside the domain of a model-to-model map."""
