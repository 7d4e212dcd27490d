"""iterlog: exact renewal calculus, branching-generation Monte Carlo, and
random recursive tree profiles, with a verification suite tying the
simulators to closed forms and exact tables.
"""

from .dist import (
    LatticeLaw,
    Moments,
    RngStream,
    SmoothLaw,
    geometric_lattice,
    parse_law,
)
from .renewal import (
    ExponentialRenewal,
    RenewalTable,
    convolve_levels,
    expansion_constants,
    leading_term,
    lil_constant,
    perturbed_table,
    renewal_sequence,
    renewal_table,
)
from .cmj import (
    MonteCarloSummary,
    SimConfig,
    SimOutcome,
    clt_statistic,
    decompose_fluctuation,
    lil_statistic,
    monte_carlo,
    simulate_generations,
)
from .rrt import (
    ProfileTrace,
    enumerate_profiles,
    grow_discrete,
    grow_yule,
    rrt_lil_statistic,
)
from .gauss import BmPath, FkTable, b2k, sample_bm, variance_b2k

__version__ = "0.1.0"
