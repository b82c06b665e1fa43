"""Reliability-function bounds for q-ary cyclic-shift (typewriter) channels."""

from .channel import (
    Channel,
    CycleConstants,
    ZeroErrorCapacity,
    bhattacharyya,
    capacity,
    cycle_constants,
    entropy_h,
    entropy_h_inv,
    gv_delta,
    theta_cycle,
    zero_error_capacity,
)
from .classical import (
    ParametricPoint,
    bsc_expurgated_exponent,
    critical_rate,
    eps_bar,
    eps_rho,
    expurgated_parametric_point,
    expurgated_exponent,
    expurgated_is_exact,
    expurgated_junction_rate,
    random_coding_exponent,
    rho_bar,
    sphere_packing_exponent,
)
from .codes import (
    Code,
    build_coset_code,
    build_q5_code,
    exact_pe,
    exact_pe_avg_max,
    exact_word_errors,
    make_code,
    mc_pe,
    pentagon_code,
    random_coset_code,
    random_linear_code,
    random_q5_code,
    spectrum,
    union_bound_pe,
)
from .lower_bounds import (
    coset_spectrum_check,
    junction_rate_even,
    junction_rate_q5,
    lower_bound_even,
    lower_bound_q5,
)
from .oracle import OracleResult, eigenvalues_g1, gram_matrix, minimize_q
from .upper_bounds import (
    LP2Point,
    SpectrumBoundPoint,
    StraightLine,
    binary_reduction_bound,
    delta_lp2,
    delta_lp2_point,
    envelope,
    lp1_rate,
    min_distance_bound,
    spectrum_half_bound,
    spectrum_half_point,
    straight_line_bound,
)

__version__ = "0.1.0"
