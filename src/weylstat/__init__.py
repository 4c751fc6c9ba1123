"""Exact and sampled statistics of inversions and descents in finite Weyl groups."""

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
from .rootsys import Component, FamilySpec, Root, RootSystem, build, parse_spec
from .weyl import (
    G2Part,
    SignedPermPart,
    WeylElement,
    apply,
    compose,
    derived_seed,
    element,
    enumerate_elements,
    group_order,
    identity,
    inverse,
    inversion_set,
    is_inversion,
    longest_element,
    parabolic_decompose,
    parse_element,
    render_element,
    sample_uniform,
    simple_reflection,
)
from .stats import (
    SampleRun,
    WPartitionCounts,
    bootstrap_variance_se,
    exact_cov,
    exact_distribution,
    exact_joint_distribution,
    exact_mean,
    exact_variance,
    mc_run,
    wpartition_counts,
)
from .formulas import (
    BlockCovariancesB,
    VarianceQuery,
    block_covariances_b,
    cov_closed,
    cov_closed_angle,
    interaction_count,
    nn_block_b,
    var_descents,
    var_inversions,
    var_lower_bound,
    variance_with_branch,
)
from .depgraph import (
    DependencyGraph,
    antichains,
    build_graph,
    check_antichain_degree,
    degree_bound_phi_d,
)
from .clt import (
    CLTReport,
    RegimeClassification,
    classify_regime,
    clt_report,
    janson_criterion,
    ks_distance,
    normal_cdf,
    standardize,
    theoretical_variance,
)

__version__ = "0.3.0"
