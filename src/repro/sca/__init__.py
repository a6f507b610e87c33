"""Side-channel analysis: the attack workflow of Figure 4.

Timing attacks, SPA (clustering and profiled), the TVLA t-test screen,
the attacker's activity predictor and the DPA/CPA outcome types.  The
DPA (difference of means) and CPA (Pearson correlation) attacks run in
:mod:`repro.campaign.streaming`, over a campaign on disk or in RAM.
"""

from .dpa import BitDecision, DpaResult
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
