"""Box-ball system BBS(J, K): local rules, carriers, duality, invariant
measures and tagged-particle experiments."""

from .capacities import INF, Capacity, capacity_str, parse_capacity
from .carrier import (
    CarrierPath,
    SeedReport,
    canonical_carrier,
    carrier_from_path,
    detect_seed,
    essential_boundary,
    pitman_M,
    sweep,
    sweep_row,
    verify_carrier,
)
from .evolution import (
    DualityReport,
    SpaceTimeBlock,
    TaggedState,
    current_column,
    duality_verify,
    evolve_block,
    inverse_step,
    step,
    tagged_evolve,
    tagged_state,
)
from .lattice import (
    BallLabels,
    Config,
    Detect,
    IidInvariant,
    PathEncoding,
    SeededCarrier,
    ZeroPad,
    config_from_text,
    label_balls,
    path_decode,
    path_encode,
    reverse,
    shift,
)
from .local_rules import Case, CellPair, local_case, local_map, reduced_map, sigma_dual
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
