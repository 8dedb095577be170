"""Exception types shared across the package."""


class HypokinError(Exception):
    """Base class for all package errors."""


class NotBlockTriangular(HypokinError):
    """Drift matrix has nonzero entries forbidden by the chain block form."""


class RankDeficientBlock(HypokinError):
    """A sub-diagonal drift block has less than full rank."""


class NotHypoelliptic(HypokinError):
    """Model fails the controllability (weak Hormander) condition."""


class GridTooCoarse(HypokinError):
    """Frequency lattice supports fewer than the minimum number of dyadic shells."""


class UnsupportedFlow(HypokinError):
    """B is not strictly lower triangular, so the exact shear does not apply."""


class RegularityError(HypokinError):
    """Regularity indices violate the product/composition bookkeeping."""


class NoConvergence(HypokinError):
    """Fixed-point iteration failed to reach tolerance."""


class LadderExhausted(HypokinError):
    """Resolvent-parameter ladder reached its cap without meeting the bound."""


class GradientBoundViolated(HypokinError):
    """Coordinate-change gradient certificate exceeds one half."""


class NotADensity(HypokinError):
    """Field is not a probability density (negative values or wrong mass)."""


class NotFinite(HypokinError, ValueError):
    """A field holds NaN or infinite values."""


class ConfigError(HypokinError):
    """Scenario configuration is invalid; message names the offending key."""


class TimeTooSmallWarning(UserWarning):
    """Gaussian kernel narrower than one grid cell; results may be under-resolved."""


class ParticleEscapeWarning(UserWarning):
    """Particles left the periodic box and were wrapped."""
