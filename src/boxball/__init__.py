"""Box-ball system BBS(J, K): local rules, carriers, duality, invariant
measures and tagged-particle experiments."""

from .capacities import INF, Capacity, capacity_str, parse_capacity
from .carrier import (
    CarrierPath,
    SeedReport,
    canonical_carrier,
    detect_seed,
    sweep,
    sweep_row,
)
from .evolution import (
    DualityReport,
    SpaceTimeBlock,
    current_column,
    duality_verify,
    evolve_block,
    inverse_step,
    step,
)
from .lattice import (
    Config,
    Detect,
    IidInvariant,
    ZeroPad,
    config_from_text,
    reverse,
)
from .local_rules import CellPair, local_map
from .measures import (
    ClassifyResult,
    Pmf,
    StbGeoParams,
    bernoulli,
    classify_invariant,
    detailed_balance_residual,
    dual_measure,
    invariance_oracle,
    mean_occupancy,
    mrev_member,
    pmf_from_text,
    r_val,
    stbgeo,
    underline_r,
    uniform,
    w_chain,
)
from .experiments import (
    RngSpec,
    SpeedEstimate,
    current_iid_test,
    invariance_mc_test,
    sample_stationary_block,
    speed_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
