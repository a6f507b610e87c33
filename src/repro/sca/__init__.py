"""Side-channel analysis: the attack workflow of Figure 4.

Timing attacks, SPA (clustering and profiled), DPA (difference of
means), CPA (Pearson correlation), the TVLA t-test screen and the
attacker's activity predictor.
"""

from .cpa import LadderCpa, columnwise_correlation
from .dpa import BitDecision, DpaResult, LadderDpa
from .predict import ActivityPredictor, bits_to_int
from .preprocess import (
    average_traces,
    compress_windows,
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
