"""Reliability-function bounds for q-ary cyclic-shift (typewriter) channels.

Each command loads only what it runs. `codes`, `oracle`, `acceptance`
and `svgplot` are lazy modules (`importlib.util.LazyLoader`, as in
Scientific Python SPEC 1): from `import relbound` on, each module
object sits in `sys.modules` and on the package, and its body runs at
the first attribute access. The names the package exports from `codes`
and `oracle` resolve through a PEP 562 `__getattr__`, so reading one
loads its module.
`relbound bounds` loads none of the four but `svgplot` for SVG output;
`simulate` loads `codes`; `oracle` loads `oracle` and `codes`; `verify`
loads `acceptance`, `oracle` and `codes`.
`channel`, `solvers`, `classical`, `upper_bounds`, `lower_bounds`,
`curves`, `constants` and `cli` load eagerly, since every `bounds` call
runs them.

The module objects exist from import time, not only from first use,
because code that rebinds functions across loaded modules (the
benchmark's tracer) finds them in `sys.modules`. A `from .codes import
X` or any attribute read at import time in an eager module would run
the lazy module at once. `LazyLoader` is not thread-safe before Python
3.12, and relbound starts no threads.
"""

import importlib.util as _util
import sys as _sys


def _lazy(name):
    """Register relbound.<name> unexecuted; its body runs at the first attribute access."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# registered before the eager imports below, which bind some of them by `from . import`
codes = _lazy("codes")
oracle = _lazy("oracle")
acceptance = _lazy("acceptance")
svgplot = _lazy("svgplot")

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
from .lower_bounds import (
    coset_spectrum_check,
    junction_rate_even,
    junction_rate_q5,
    lower_bound_even,
    lower_bound_q5,
)
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

# the public names of codes and oracle: each read loads its module
_EXPORTS = {
    "codes": (
        "Code",
        "build_coset_code",
        "build_q5_code",
        "exact_pe",
        "exact_word_errors",
        "make_code",
        "mc_pe",
        "pentagon_code",
        "random_coset_code",
        "random_linear_code",
        "random_q5_code",
        "spectrum",
        "union_bound_pe",
    ),
    "oracle": ("OracleResult", "eigenvalues_g1", "minimize_q"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# what `from relbound import *` binds: the eager names, their modules, codes and
# oracle, and the names those two export
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} - {"acceptance", "svgplot"}
    | _HOME.keys()
)


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
