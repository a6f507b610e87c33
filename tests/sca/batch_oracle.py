"""Batch DPA and CPA: the oracle the streaming attacks are pinned to.

Each distinguisher takes a whole campaign's iteration window in RAM and
computes its statistic the textbook way: difference of means column by
column over median partitions, Pearson correlation over centred arrays.
The streaming attacks (``repro.campaign.streaming``) compute the same
statistics from online moments, so the two must agree to float
precision, the way ``multiply_naive`` pins ``curve.multiply``.  These
are the statistics ``attack_decisions_golden.json`` records as
``LadderDpa`` and ``LadderCpa``.
"""

import numpy as np

from repro.campaign import TraceSet
from repro.sca import ActivityPredictor, BitDecision, DpaResult


def difference_of_means(gap, observed, min_partition=5):
    """(evidence for bit 0, evidence for bit 1): the strongest negative
    and positive Welch statistics of the median-of-gap partitions."""
    best_pos = 0.0
    best_neg = 0.0
    for col in range(observed.shape[1]):
        d = gap[:, col]
        high = d > np.median(d)
        low = ~high
        if high.sum() < min_partition or low.sum() < min_partition:
            continue
        o = observed[:, col]
        diff = o[high].mean() - o[low].mean()
        pooled = np.sqrt(o[high].var(ddof=1) / high.sum()
                         + o[low].var(ddof=1) / low.sum())
        if pooled == 0:
            continue
        statistic = diff / pooled
        if statistic > best_pos:
            best_pos = statistic
        if -statistic > best_neg:
            best_neg = -statistic
    return best_neg, best_pos


def correlation(gap, observed):
    """(evidence for bit 0, evidence for bit 1): the strongest negative
    and positive per-column Pearson correlations of gap and samples."""
    p = np.asarray(gap, dtype=np.float64)
    o = np.asarray(observed, dtype=np.float64)
    p_centered = p - p.mean(axis=0, keepdims=True)
    o_centered = o - o.mean(axis=0, keepdims=True)
    numerator = (p_centered * o_centered).sum(axis=0)
    denominator = np.sqrt(
        (p_centered ** 2).sum(axis=0) * (o_centered ** 2).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denominator > 0, numerator / denominator, 0.0)
    return float(max(-corr.min(), 0.0)), float(max(corr.max(), 0.0))


def recover_bits(traces, n_bits, distinguisher, z_values=None):
    """Attack the first ``n_bits`` ladder bits under the recovered prefix."""
    predictor = ActivityPredictor(traces.build_coprocessor())
    decisions, prefix = [], []
    for bit_index in range(n_bits):
        start, end = traces.iteration_slices[bit_index]
        zero, one = (predictor.prediction_matrix(traces.inputs, prefix, h,
                                                 bit_index, z_values)
                     for h in (0, 1))
        evidence_zero, evidence_one = distinguisher(
            one - zero, traces.samples[:, start:end])
        chosen = 1 if evidence_one >= evidence_zero else 0
        decisions.append(BitDecision(bit_index, chosen, evidence_zero,
                                     evidence_one, traces.key_bits[bit_index]))
        prefix.append(chosen)
    return DpaResult(decisions)


def load_trace_set(store, max_traces=None):
    """A store's first ``max_traces`` traces, materialized in RAM."""
    views = list(store.iter_shards(max_traces=max_traces))
    z_values = None
    if views[0].z_values is not None:
        z_values = [z for view in views for z in view.z_values]
    return TraceSet(np.vstack([np.asarray(view.samples) for view in views]),
                    [point for view in views for point in view.points],
                    list(store.iteration_slices), list(store.key_bits),
                    store.spec.coprocessor_config(), z_values)
