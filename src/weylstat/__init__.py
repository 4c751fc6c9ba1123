"""Exact and sampled statistics of inversions and descents in finite Weyl groups.

The package exports the public names of its modules.  The errors and the
root catalog (``rootsys``) are imported with the package.  Every other name,
and every other submodule, is imported the first time it is read
(PEP 562): ``weylstat.mc_run`` imports ``weylstat.stats`` then, and
``weylstat.inversion_set`` imports ``weylstat.weyl``.  A program therefore
compiles and runs only the modules it uses.  Each name is the very object
its module defines, and is kept in the package namespace after its first
use.
"""

from importlib import import_module as _import_module

from .errors import (
    ComponentMismatchError,
    InternalConsistencyError,
    InvalidSpecError,
    PropertyViolationError,
    RangeError,
    StaleRootError,
    TooLargeError,
    WeylstatError,
)
from .rootsys import (
    Component,
    FamilySpec,
    Root,
    RootSystem,
    build,
    derived_seed,
    group_order,
    parse_spec,
)

# The public names of each submodule that is imported on first use.
_EXPORTS = {
    "weyl": (
        "G2Part", "SignedPermPart", "WeylElement", "apply", "compose", "element",
        "enumerate_elements", "identity", "inverse", "inversion_set", "is_inversion",
        "longest_element", "parabolic_decompose", "parse_element", "render_element",
        "sample_uniform", "simple_reflection",
    ),
    "stats": (
        "SampleRun", "WPartitionCounts", "bootstrap_variance_se", "exact_cov",
        "exact_distribution", "exact_joint_distribution", "exact_mean", "exact_variance",
        "mc_run", "wpartition_counts",
    ),
    "formulas": (
        "BlockCovariancesB", "VarianceQuery", "block_covariances_b", "cov_closed",
        "cov_closed_angle", "interaction_count", "nn_block_b", "var_descents",
        "var_inversions", "var_lower_bound", "variance_with_branch",
    ),
    "depgraph": (
        "DependencyGraph", "antichains", "build_graph", "check_antichain_degree",
        "degree_bound_phi_d",
    ),
    "clt": (
        "CLTReport", "RegimeClassification", "classify_regime", "clt_report",
        "janson_criterion", "ks_distance", "normal_cdf", "standardize",
        "theoretical_variance",
    ),
}
# Name -> the submodule that defines it; a submodule's own name maps to itself.
_LAZY = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = [
    "ComponentMismatchError",
    "InternalConsistencyError",
    "InvalidSpecError",
    "PropertyViolationError",
    "RangeError",
    "StaleRootError",
    "TooLargeError",
    "WeylstatError",
    "Component",
    "FamilySpec",
    "Root",
    "RootSystem",
    "build",
    "derived_seed",
    "group_order",
    "parse_spec",
    *(name for names in _EXPORTS.values() for name in names),
]

__version__ = "0.5.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
