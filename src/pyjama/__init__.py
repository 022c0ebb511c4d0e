"""Exact pyjama-stripe covering toolkit.

Gaussian-rational arithmetic, 5- and 13-adic embeddings, solenoid dynamics,
constructive approximation, and certified plane-covering reports.  The
float disk cover is in ``pyjama.disk``, the one module that imports numpy,
and is not imported here.
"""

from .gaussian import (  # noqa: F401
    P5,
    P5BAR,
    P13,
    P13BAR,
    SITES,
    THETA5,
    THETA13,
    GaussianInt,
    GaussianRational,
    PrimeSite,
    abs_at,
    as_gaussian_rational,
    in_A,
    theta_power,
    theta_set,
    unit_circle_elements,
    valuation,
)
from .padic import (  # noqa: F401
    PadicNumber,
    PrecisionError,
    TorsionUnitError,
    closure_index,
    embed,
    gauss_frac_part,
    sqrt_neg1,
)
from .polygon import ConvexPolygon  # noqa: F401
from .solenoid import (  # noqa: F401
    ExactPoint,
    PointClassification,
    SolenoidPoint,
    act,
    classify_point,
    evaluate,
    orbit_eval_rows,
    orbit_eval_sweep,
    period_exponent,
    periodic_dense_set,
    stripe_membership,
)
from .covering import (  # noqa: F401
    CoveringConfig,
    CoverReport,
    RationalityReport,
    obstruction_catalog,
    rationality_check,
    snap_to_lattice,
    uncovered_region,
    verify_obstruction,
)
from .approx import (  # noqa: F401
    CosetSpec,
    DensityReport,
    circle_density,
    coset_element,
    semigroup_density,
    strong_approx,
    strong_approx_3way,
)
from .svg import render_svg  # noqa: F401

__version__ = "0.1.0"
