"""arrdmod: exact combinatorics of twisted modules on hyperplane arrangements.

Everything runs over arbitrary-precision rationals.  The package computes,
for a rational arrangement and an exponent vector: its classification,
the intersection poset of flats, decomposition-factor supports and counts,
plane blow-up resolution data, and irreducibility verdicts backed by
non-resonance certificates.
"""

from arrdmod.arrangement import (
    Arrangement,
    Classification,
    EssentializationSplit,
    Hyperplane,
    classify,
    essentialize,
)
from arrdmod.errors import (
    ArrdmodError,
    MissingResolutionError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedDimensionError,
    ValidationError,
)
from arrdmod.exactla import (
    AffineSubspace,
    as_rational,
    format_rational,
    intersect,
    is_integral,
    matrix_rank,
    parse_rational,
    rref,
)
from arrdmod.factors import (
    ExponentVector,
    FactorReport,
    count_general_position,
    decomposition_factors,
    flat_count_general_position,
)
from arrdmod.poset import (
    Flat,
    IntersectionPoset,
    closure,
    enumerate_flats,
    hasse_dot,
)
from arrdmod.resolution import (
    BlowupCenter,
    Certificate,
    ExtendedExponents,
    ResolutionData,
    ResolutionSource,
    UpstairsFlat,
    Verdict,
    VerdictStatus,
    certificate,
    irreducibility_verdict,
    plane_resolution,
    pullback_exponents,
    pullback_factors,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace",
    "Arrangement",
    "ArrdmodError",
    "BlowupCenter",
    "Certificate",
    "Classification",
    "EssentializationSplit",
    "ExponentVector",
    "ExtendedExponents",
    "FactorReport",
    "Flat",
    "Hyperplane",
    "IntersectionPoset",
    "MissingResolutionError",
    "PreconditionError",
    "ResolutionData",
    "ResolutionSource",
    "ResourceLimitError",
    "UnsupportedDimensionError",
    "UpstairsFlat",
    "ValidationError",
    "Verdict",
    "VerdictStatus",
    "as_rational",
    "certificate",
    "classify",
    "closure",
    "count_general_position",
    "decomposition_factors",
    "enumerate_flats",
    "essentialize",
    "flat_count_general_position",
    "format_rational",
    "hasse_dot",
    "intersect",
    "irreducibility_verdict",
    "is_integral",
    "matrix_rank",
    "parse_rational",
    "plane_resolution",
    "pullback_exponents",
    "pullback_factors",
    "rref",
]
