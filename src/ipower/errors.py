"""Exception types raised by the ipower library."""


class NonHermitianError(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NoConvergenceError(RuntimeError):
    """The eigensolver exhausted its iteration budget."""


class DimensionMismatchError(ValueError):
    """Operands act on incompatible Hilbert-space dimensions."""


class BadSubsystemError(ValueError):
    """Subsystem label is not one of 'A', 'B'."""


class NotPositiveSemidefiniteError(ValueError):
    """A density matrix has an eigenvalue below the allowed tolerance."""


class ZeroPurityError(ValueError):
    """A state with vanishing Hilbert-Schmidt norm was passed to a fidelity."""


class SubsystemANotQubitError(ValueError):
    """The closed-form route requires subsystem A to be a qubit."""


class InvalidCorrelationTripleError(NotPositiveSemidefiniteError):
    """A (c1, c2, c3) triple lies outside the Bell-diagonal state tetrahedron: the
    state it names would have a negative eigenvalue."""


class ParameterOutOfRangeError(ValueError):
    """A parameter lies outside its documented range, or is not finite."""


class BadSettingError(ValueError):
    """Setting index must be 1, 2 or 3."""


class BasisMismatchError(ValueError):
    """Measurement basis dimensions do not match the state."""


class ZeroInformationError(ValueError):
    """The reconstructed Fisher information is too small to divide by."""


class NotIdentifiableError(ValueError):
    """The phase cannot be localized because the QFI vanishes."""


class PhaseOutOfWindowError(NotIdentifiableError):
    """The true phase lies outside the window [0, pi/omega) in which the fit identifies it."""
