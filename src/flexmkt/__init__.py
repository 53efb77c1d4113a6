"""Sequential DSO-TSO flexibility market simulator.

Clears local distribution markets followed by a transmission-level market,
benchmarks against a co-optimized common clearing, and implements three
grid-safe ways of forwarding distribution bids upward: a corrective third
layer, bid prequalification, and residual-supply-function aggregation.
"""

from .casegen import CaseRecipe, emit_case, generate_case
from .clearing import (CaseClearings, ClearingResult, PricingRule, clear_common,
                       clear_dso_layer1, clear_fragmented_layer2,
                       clear_idealized_layer2, clear_tso_layer2,
                       interface_price)
from .errors import FlexmktError
from .forwarding import (Outcome, Rsf, build_rsf, build_rsf_dual,
                         clear_tso_rsf, filter_bids, run_bid_aggregation,
                         run_bid_filtering, run_sequential, run_three_layer,
                         suboptimality_constant)
from .market_model import (Bid, DistributionSystem, MarketCase,
                           ValidationReport, parse_case, parse_matpower,
                           serialize_case, validate_case)
from .netmodel import Line, Network, build_sensitivity, is_radial, line_flows
from .safety import (EfficiencyReport, SafetyVerdict, brute_force_oracle,
                     inefficiency, is_grid_safe)

__version__ = "0.1.0"
