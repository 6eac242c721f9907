"""Inner-loop fixed-point algorithms for inverting demand share systems.

Static and dynamic random-coefficients logit inversion with outside-share-
corrected mappings, plus Anderson/spectral/SQUAREM acceleration and a
seeded benchmark harness.
"""

from .accel import AccelConfig, FixedPointMap, SolveOutcome, solve
from .dynamic import (DurableMarket, DurableSolution, IvsGrid, IvsState,
                      bellman_residual, ivs_solve, pf_solve, pf_value_update,
                      traditional_joint_solve)
from .fixtures import market_from_json, market_to_json
from .rcnl import (NestedMarket, rcnl_dist_metric, rcnl_iota_delta_to_IV,
                   rcnl_iota_IV_to_delta, rcnl_phi_delta, rcnl_phi_IV,
                   rcnl_shares, rcnl_solve_inner)
from .static_rcl import (StaticMarket, dist_metric, iota_delta_to_V,
                         iota_V_to_delta, kalouptsidi_F, kalouptsidi_Ftilde, logit_shares,
                         phi_V, phi_delta, solve_inner)

__version__ = "0.1.0"
