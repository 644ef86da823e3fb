"""Exact enumeration of rational-slope lattice paths by bounce statistics.

Each public name is read from its layer module at every access (PEP 562),
and the layer is imported on first use, so ``import bouncepaths`` loads no
layer, and a command line job compiles only the modules its command runs.
"""

_EXPORTS = {
    "beta_one": ("nhc_nrb_series", "nhc_prefix_series", "nhc_series", "rational_dyck_series"),
    "bounce": (
        "BounceTable",
        "bounce_free_ab",
        "bounce_free_prefix",
        "bounce_free_total",
        "bounce_table",
        "expand_marker_quotient",
        "g_b_series",
        "marker_cells",
        "no_left_bounce_total",
        "nrb_series",
    ),
    "closed_forms": (
        "AB_RESTRICTIONS",
        "NonIntegerCoefficient",
        "Restriction",
        "Slope",
        "Step",
        "binomial",
        "fuss_catalan",
        "g_ab_series",
        "g_prefix_series",
        "g_series",
    ),
    "enumeration": (
        "BounceProfile",
        "BudgetExceeded",
        "InvalidShape",
        "MalformedPath",
        "TwoRowShape",
        "classify",
        "count_matching",
        "count_table",
        "enumerate_profiles",
        "enumerate_syt",
    ),
    "series": (
        "NonUnitConstantTerm",
        "Series",
        "SeriesError",
        "ValuationMismatch",
    ),
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # an import statement's path, which -X importtime reports; the value is
    # not cached here, so a wrapper bound on the layer later is what is read
    layer = __import__(f"{__name__}.{_LAYER[name]}", fromlist=[name])
    return getattr(layer, name)


def __dir__():
    return sorted({*globals(), *__all__})
