"""Shared exception types for solver and data-construction failure modes."""


class RchlabError(Exception):
    """Base of every rchlab error; the command line reports these as bad input.

    Carries ``time``, the simulation time the error refers to, or None.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class InvalidParameterError(RchlabError, ValueError):
    """Raised when a parameter set is outside the model's admissible range."""


class GridMismatchError(RchlabError, ValueError):
    """Raised when fields on different grids are combined."""


class FrequencyOverflowError(RchlabError, ValueError):
    """Requested carrier frequency does not fit under the dealias cap.

    Carries ``max_feasible_n``, the largest admissible mode index on the grid.
    """

    def __init__(self, message, max_feasible_n=None):
        super().__init__(message)
        self.max_feasible_n = max_feasible_n


class CFLError(RchlabError, RuntimeError):
    """Raised when the advective CFL guard fails at runtime.

    ``time`` is the start of the step the guard refused.
    """


class BlowUpError(RchlabError, RuntimeError):
    """Raised when the solution exceeds the blow-up threshold or loses finiteness.

    ``time`` is the last time with a valid state.
    """


class DiffeomorphismError(RchlabError, RuntimeError):
    """Raised when the particle map loses strict monotonicity (y_xi <= 0).

    ``time`` is set when raised during time stepping: the end of the step
    whose result crossed, or the start of the step whose stage did.
    """
