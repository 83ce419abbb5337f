"""Exception types shared across the solver stack.

Every failure of a run is a ``ModescentError``, and a multistart front
records it as a failed start with its partial trace.  A problem map's own
exception is one too: ``problems._value``, the one call site of every map,
re-raises it as ``MapError``.
"""


class ModescentError(Exception):
    """Base class for all solver errors."""


class EvaluationError(ModescentError):
    """A problem map returned a non-finite value.

    Carries the name of the offending component ("F", "DF", "H", ...).
    """

    def __init__(self, component, x):
        self.component = component
        self.x = x
        super().__init__(f"non-finite value in component {component!r} at x={x!r}")


class MapError(ModescentError):
    """A problem map raised an exception of its own.

    Carries the component ("F", "DG", ...) and the point; the message names
    the original exception's type, and ``__cause__`` holds it.
    """

    def __init__(self, component, x, err):
        self.component = component
        self.x = x
        super().__init__(f"component {component!r} raised {type(err).__name__}: {err} "
                         f"at x={x!r}")


class MapShapeError(ModescentError):
    """A problem map returned a value with the wrong number of entries, or
    one numpy cannot read as an array of floats.

    Carries the component ("F", "DG", ...), the shape it returned (None for
    a value that is not an array of floats) and the shape the problem
    declares.
    """

    def __init__(self, component, shape, expected):
        self.component = component
        self.shape = shape
        self.expected = expected
        got = "a value that is not an array of floats" if shape is None else f"shape {shape}"
        super().__init__(f"component {component!r} returned {got}, expected {expected}")


class IllConditionedDirection(ModescentError):
    """A direction's value alpha reads critical while its norm says it is
    not: the slopes cancelled on a badly scaled hull, so the point cannot
    be certified critical."""


class RankError(ModescentError):
    """Constraint Jacobian rows are rank deficient where full rank is required."""


class NoConvergence(ModescentError):
    """An iterative subsolver (projection, feasibility, the psi root bracket)
    stalled or hit its cap."""


class NoStep(ModescentError):
    """Backtracking exhausted the exponent budget without an acceptable step."""


class StepPreconditionError(NoStep, ValueError):
    """A line search was handed a direction or base point it cannot step
    from: not a strict descent direction, not entering an active inequality,
    or a base point off the active chart (checked by the step, or by
    ``geometry.retract_psi``).

    Inside the descent loop this is solver state gone wrong, so it is a
    ``NoStep`` and a multistart records it as a failed run with its partial
    trace; for a caller passing such arguments directly it is a
    ``ValueError``.
    """


class UnknownProblemError(ModescentError):
    """Requested problem name is not registered."""
