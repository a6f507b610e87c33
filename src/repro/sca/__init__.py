"""Side-channel analysis: the attack workflow of Figure 4.

Timing attacks, SPA (clustering and profiled), DPA (difference of
means), CPA (Pearson correlation), the TVLA t-test screen, the
attacker's activity predictor and the quality metrics.
"""

from .cpa import LadderCpa, columnwise_correlation
from .dpa import BitDecision, DpaResult, LadderDpa
from .metrics import first_order_snr, signal_to_noise_ratio, success_rate
from .predict import ActivityPredictor, bits_to_int
from .preprocess import (
    average_traces,
    center,
    compress_windows,
    standardize,
    window,
)
from .spa import ProfiledSpa, SpaResult, bits_from_transitions, transition_spa
from .timing import (
    TimingReport,
    coprocessor_timing_report,
    double_and_add_cycle_model,
    timing_attack_hamming_weight,
)
from .ttest import TVLA_THRESHOLD, TvlaReport, tvla_fixed_vs_random, welch_t_statistic

__all__ = [
    "LadderCpa",
    "columnwise_correlation",
    "LadderDpa",
    "DpaResult",
    "BitDecision",
    "ActivityPredictor",
    "bits_to_int",
    "success_rate",
    "signal_to_noise_ratio",
    "first_order_snr",
    "center",
    "standardize",
    "window",
    "compress_windows",
    "average_traces",
    "SpaResult",
    "transition_spa",
    "ProfiledSpa",
    "bits_from_transitions",
    "TimingReport",
    "coprocessor_timing_report",
    "double_and_add_cycle_model",
    "timing_attack_hamming_weight",
    "TvlaReport",
    "tvla_fixed_vs_random",
    "welch_t_statistic",
    "TVLA_THRESHOLD",
]
