"""Exception types shared across the library and surfaced by the CLI."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class GridError(SimulationError):
    """Degenerate interval or too few points."""


class PotentialError(SimulationError):
    """Invalid potential parameters or tabulated-length mismatch."""


class HamiltonianError(SimulationError):
    """Length mismatch, nonpositive physical constant or non-finite matrix."""


class GridMismatchError(SimulationError):
    """Operands were built on different grids."""


class EigensolverError(SimulationError):
    """Eigensolver failed to converge, k out of range, or a state off its energy."""


class UnnormalizedStateError(SimulationError):
    """Operation requires a normalized state."""


class NonHermitianOperatorError(SimulationError):
    """Imaginary residue of an expectation value exceeded tolerance."""


class DecompositionError(SimulationError):
    """Singular value decomposition failed."""


class ScenarioError(SimulationError):
    """Unknown scenario or invalid scenario parameters."""


class ConfigError(SimulationError):
    """Configuration document or CLI override violates the schema."""
