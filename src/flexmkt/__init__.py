"""Sequential DSO-TSO flexibility market simulator.

Clears local distribution markets followed by a transmission-level market,
benchmarks against a co-optimized common clearing, and implements three
grid-safe ways of forwarding distribution bids upward: a corrective third
layer, bid prequalification, and residual-supply-function aggregation.
"""

import os

# Every command and the embedded simplex run serially, so a multi-threaded
# BLAS only adds overhead: on a 2-core machine a perfbench ladder pass took
# 4.35 s with OpenBLAS's default threads and 3.79 s with one, and the whole
# run used 50 s of CPU time instead of 28 s. A value already set wins.
# OpenBLAS reads the variable when numpy loads, so this runs before any
# submodule imports numpy, and does nothing once numpy is loaded.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .casegen import CaseRecipe, emit_case, generate_case  # noqa: E402
from .clearing import (CaseClearings, ClearingResult, PricingRule, clear_common,  # noqa: E402
                       clear_dso_layer1, clear_fragmented_layer2,
                       clear_idealized_layer2, clear_tso_layer2,
                       interface_price)
from .errors import FlexmktError  # noqa: E402
from .forwarding import (Outcome, Rsf, build_rsf, build_rsf_dual,  # noqa: E402
                         clear_tso_rsf, filter_bids, layer3_overload,
                         run_bid_aggregation, run_bid_filtering,
                         run_sequential, run_three_layer,
                         suboptimality_constant)
from .market_model import (Bid, DistributionSystem, MarketCase,  # noqa: E402
                           ValidationReport, parse_case, parse_matpower,
                           serialize_case, validate_case)
from .netmodel import Line, Network, build_sensitivity, is_radial, line_flows  # noqa: E402
from .safety import (EfficiencyReport, SafetyVerdict, brute_force_oracle,  # noqa: E402
                     inefficiency, is_grid_safe)

__version__ = "0.1.0"
