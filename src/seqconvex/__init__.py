"""Classification, certification and decomposition of approximately convex
and affine finite sequences.

The public surface mirrors the module layout:

* :mod:`seqconvex.core` -- sequence type, differences, tolerance, mediant bounds
* :mod:`seqconvex.classify` -- verdicts, certificates, exact minimal eps
* :mod:`seqconvex.extend` -- piecewise-linear extension and sampled checks
* :mod:`seqconvex.decompose` -- convex minorant, convex/arithmetic approximants,
  separating line
* :mod:`seqconvex.oracle` -- brute-force references and seeded generators
* :mod:`seqconvex.verify` -- seeded property suites for the paper's results
* :mod:`seqconvex.cli` -- the ``seqconvex`` command-line tool
"""

from .classify import (
    VIOLATION,
    WITNESS,
    Certificate,
    Verdict,
    is_convex,
    is_eps_affine,
    is_eps_convex,
    is_wright_convex,
    min_eps_affine,
    min_eps_convex,
    replay_margin,
)
from .core import (
    DEFAULT_TOL,
    DomainError,
    QuantifierMode,
    SeqConvexError,
    Sequence,
    TooShortError,
    ValidationError,
    as_sequence,
    check_eps,
    deltas,
    mediant_bounds,
)
from .decompose import (
    ConvexGapError,
    Decomposition,
    Line,
    SeparationInfeasibleError,
    affine_approx,
    convex_approx_hyers,
    convex_approx_optimal,
    gcm,
    separating_line,
)
from .extend import (
    ChordCheck,
    PiecewiseLinear,
    SampledCheck,
    SamplePlan,
    check_chord_slope_bounds,
    check_eps_convex_function,
)
from .oracle import (
    Family,
    GeneratorSpec,
    bisect_convex_bound,
    brute_min_eps,
    brute_wright,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChordCheck",
    "ConvexGapError",
    "Decomposition",
    "DomainError",
    "Family",
    "GeneratorSpec",
    "Line",
    "PiecewiseLinear",
    "QuantifierMode",
    "SampledCheck",
    "SamplePlan",
    "SeqConvexError",
    "SeparationInfeasibleError",
    "Sequence",
    "TooShortError",
    "ValidationError",
    "Verdict",
    "DEFAULT_TOL",
    "VIOLATION",
    "WITNESS",
    "affine_approx",
    "as_sequence",
    "bisect_convex_bound",
    "brute_min_eps",
    "brute_wright",
    "check_chord_slope_bounds",
    "check_eps",
    "check_eps_convex_function",
    "convex_approx_hyers",
    "convex_approx_optimal",
    "deltas",
    "gcm",
    "generate",
    "is_convex",
    "is_eps_affine",
    "is_eps_convex",
    "is_wright_convex",
    "mediant_bounds",
    "min_eps_affine",
    "min_eps_convex",
    "replay_margin",
    "separating_line",
]
