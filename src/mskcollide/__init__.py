"""Link-level simulator of colliding MSK / IEEE 802.15.4 transmissions.

Core pieces: a closed-form model of what each colliding signal adds to
every matched-filter bit decision, three receiver back ends (uncoded
slicing, DSSS hard and soft decision decoding), a numerical-integration
oracle that validates the closed forms, and a deterministic Monte Carlo
engine for capture-threshold and capture-zone experiments.
"""

__version__ = "0.1.0"

from .chipseq import BIPOLAR_CHIP_TABLE
from .demod import interference_contribution
from .montecarlo import (ConfigError, ExperimentConfig, MetricPoint,
                         NInterfererPoint, ZoneCell, capture_zone, grid,
                         n_interferer_experiment, run_point, sweep)
from .oracle import (oracle_lambda_baseband, oracle_lambda_passband,
                     rect_integral, rect_integral_quadrature)
from .presets import NINTERF_DEFAULTS, PRESETS, ZONE_PRESETS
from .receiver import decide
from .signal_model import Draws

__all__ = [
    "__version__",
    "BIPOLAR_CHIP_TABLE",
    "interference_contribution",
    "ConfigError", "ExperimentConfig", "MetricPoint", "NInterfererPoint",
    "ZoneCell", "capture_zone", "grid", "n_interferer_experiment",
    "run_point", "sweep",
    "oracle_lambda_baseband", "oracle_lambda_passband",
    "rect_integral", "rect_integral_quadrature",
    "NINTERF_DEFAULTS", "PRESETS", "ZONE_PRESETS",
    "decide",
    "Draws",
]
