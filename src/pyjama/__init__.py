"""Exact pyjama-stripe covering toolkit.

Gaussian-rational arithmetic, 5- and 13-adic embeddings, solenoid dynamics,
constructive approximation, and certified plane-covering reports.  Nothing
is imported eagerly: ``pyjama.X`` imports the module that defines ``X`` on
first use (PEP 562), so a command loads only the modules it runs.  The
float disk cover is in ``pyjama.disk``, the one module that imports numpy,
and is not part of this namespace.
"""

__version__ = "0.1.0"

# each public name under the module that defines it
_EXPORTS = {
    "gaussian": ("P5", "P5BAR", "P13", "P13BAR", "SITES", "THETA5", "THETA13",
                 "GaussianInt", "GaussianRational", "PrimeSite", "abs_at",
                 "as_gaussian_rational", "in_A", "theta_power", "theta_set",
                 "unit_circle_elements", "valuation"),
    "padic": ("PadicNumber", "PrecisionError", "TorsionUnitError",
              "closure_index", "embed", "gauss_frac_part", "sqrt_neg1"),
    "polygon": ("ConvexPolygon",),
    "solenoid": ("ExactPoint", "PointClassification", "SolenoidPoint", "act",
                 "classify_point", "evaluate", "orbit_eval_rows",
                 "orbit_eval_sweep", "period_exponent", "periodic_dense_set",
                 "stripe_membership"),
    "covering": ("CoveringConfig", "CoverReport", "RationalityReport",
                 "obstruction_catalog", "rationality_check", "snap_to_lattice",
                 "uncovered_region", "verify_obstruction"),
    "approx": ("CosetSpec", "DensityReport", "circle_density", "coset_element",
               "semigroup_density", "strong_approx", "strong_approx_3way"),
    "svg": ("render_svg",),
}

__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    # nothing is stored in this namespace, so ``pyjama.X`` always reads the
    # home module's current binding
    from importlib import import_module

    for home, names in _EXPORTS.items():
        if name == home or name in names:
            module = import_module(f"{__name__}.{home}")
            return module if name == home else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*__all__, "__version__"]
