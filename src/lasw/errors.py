"""Exception types shared across the package."""


class LaswError(Exception):
    """Base class for every error raised by this package."""


class InvalidField(LaswError):
    """Samples or coefficients do not describe a valid real periodic field."""


class InvalidMu(LaswError):
    """Dispersion parameter mu outside the admissible range."""


class GridMismatch(LaswError):
    """Operands live on different grids, or a mode is not representable."""


class InvalidKernel(LaswError):
    """Mollifier kernel violates the unit-integral requirement."""


class GammaRelationViolated(LaswError):
    """Cubic coefficients do not satisfy gamma1 = 2*(gamma2 + gamma3)."""


class InvalidRegime(LaswError):
    """Regime parameters outside the admissible range for a preset."""


class InvalidControls(LaswError):
    """Integration controls out of range."""


class InvalidExponents(LaswError):
    """Sobolev or probe exponents outside the admissible range."""


class InvalidProbeInput(LaswError, ValueError):
    """Probe argument outside its admissible range (also a ValueError)."""


class ProbeUnresolved(LaswError):
    """A probe lost spectral resolution or its run ended prematurely."""


class ConfigSyntax(LaswError):
    """Configuration file failed to parse or contains unknown keys."""


class ConfigInvalid(LaswError):
    """Configuration value violates a constraint."""


class IoError(LaswError):
    """Output location cannot be created or written."""
