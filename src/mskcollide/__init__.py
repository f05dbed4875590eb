"""Link-level simulator of colliding MSK / IEEE 802.15.4 transmissions.

Core pieces: a closed-form model of what each colliding signal adds to
every matched-filter bit decision, three receiver back ends (uncoded
slicing, DSSS hard and soft decision decoding), a numerical-integration
oracle that validates the closed forms, and a deterministic Monte Carlo
engine for capture-threshold and capture-zone experiments.
"""

__version__ = "0.1.0"

from .chipseq import (BIPOLAR_CHIP_TABLE, BITS_PER_SYMBOL, CHIP_TABLE,
                      CHIPS_PER_SYMBOL, spread_symbols)
from .demod import (OffsetDecomposition, batch_interference, decompose_offset,
                    interference_contribution, packet_soft_bits)
from .montecarlo import (ConfigError, ExperimentConfig, MetricPoint,
                         NInterfererPoint, ThresholdPoint, ZoneCell,
                         capture_zone, grid, n_interferer_experiment,
                         run_point, sir_db_to_amplitude, split_amplitudes,
                         sweep, threshold_extract)
from .oracle import (QuadratureConfig, oracle_lambda_baseband,
                     oracle_lambda_passband, rect_integral,
                     rect_integral_quadrature)
from .presets import NINTERF_DEFAULTS, PRESETS, ZONE_PRESETS, ZonePreset
from .receiver import (DecodeResult, SymbolDecision, decide, decode_packet,
                       hdd_decode, sdd_decode)
from .signal_model import (InterfererParams, IqStream, Scenario,
                           demultiplex_bits, make_payload, multiplex_bits)

__all__ = [
    "__version__",
    "BIPOLAR_CHIP_TABLE", "BITS_PER_SYMBOL", "CHIP_TABLE", "CHIPS_PER_SYMBOL",
    "spread_symbols",
    "OffsetDecomposition", "batch_interference", "decompose_offset",
    "interference_contribution", "packet_soft_bits",
    "ConfigError", "ExperimentConfig", "MetricPoint", "NInterfererPoint",
    "ThresholdPoint", "ZoneCell", "capture_zone", "grid",
    "n_interferer_experiment", "run_point", "sir_db_to_amplitude",
    "split_amplitudes", "sweep", "threshold_extract",
    "QuadratureConfig", "oracle_lambda_baseband", "oracle_lambda_passband",
    "rect_integral", "rect_integral_quadrature",
    "NINTERF_DEFAULTS", "PRESETS", "ZONE_PRESETS", "ZonePreset",
    "DecodeResult", "SymbolDecision", "decide", "decode_packet", "hdd_decode",
    "sdd_decode",
    "InterfererParams", "IqStream", "Scenario", "demultiplex_bits",
    "make_payload", "multiplex_bits",
]
