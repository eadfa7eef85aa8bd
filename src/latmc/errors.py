"""Exception types shared across the package."""


class LatmcError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LatmcError):
    """Invalid experiment configuration."""


class ContractError(LatmcError):
    """A caller violated an API contract (e.g. mismatched matrices)."""


class CalibrationError(LatmcError):
    """Preconditioner calibration or factorization failed."""


class RankDeficiencyError(CalibrationError):
    """Calibration sample does not pin down a unique coupling matrix."""


class NumericGuardError(LatmcError):
    """A non-finite quantity appeared where a finite one is required.

    ``quantity`` names it, ``chain`` is the first offending chain of a batch
    and ``step`` the step of a lockstep run; either may be None.
    """

    def __init__(self, quantity: str, chain: int | None = None, step: int | None = None):
        self.quantity, self.chain, self.step = quantity, chain, step
        text = f"non-finite {quantity}" + ("" if chain is None else f" in chain {chain}")
        super().__init__(text if step is None else f"step {step}: {text}")

    def __reduce__(self):
        return type(self), (self.quantity, self.chain, self.step)


class EnumerationBudgetError(LatmcError):
    """Exact enumeration request exceeds the configured budget."""


class SupportMismatchError(LatmcError):
    """Two probability tables do not share the same support."""


class InvalidStateError(LatmcError):
    """Chain state outside the lattice support, or zero-probability reference value."""
