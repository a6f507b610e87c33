"""The side-channel attacks: shard-at-a-time DPA/CPA/SPA.

These are the only implementations of the difference-of-means and
correlation distinguishers.  They read a *trace source*: a
:class:`~repro.campaign.store.TraceStore` on disk, or an in-RAM
:class:`~repro.campaign.store.TraceSet` that reads like a complete
one-shard store.  The lab campaign and the white-box battery
(:mod:`repro.security.evaluation`) therefore run the same attack.
Each source hands over one shard's *iteration window* at a time (a
store slices it off the memory-map), and the attacks fold it into
online accumulators — per-column counts, sums and sums-of-squares (and
cross-products for CPA) — so peak memory is bounded by
``shard_size x window`` regardless of campaign size.

The statistics equal the batch formulas of the test oracle
(``tests/sca/batch_oracle.py``) up to float rounding:

* **CPA** is a pure moment statistic; the accumulators compute the
  Pearson correlation from ``n``, ``Σx``, ``Σx²``, ``Σxy`` where the
  oracle centres whole arrays.
* **DPA** (difference-of-means) partitions traces per column by the
  *median* of the prediction gap — an order statistic, which no
  fixed-size accumulator can produce.  The attack therefore keeps the
  prediction-gap window (small: hypotheses are replayed per shard
  anyway) to take exact medians, then streams the *measurements* —
  the big array — through partitioned sum/sum-of-squares accumulators.
* **SPA** needs only the campaign-average trace, a single running sum.

Decisions come back as :class:`~repro.sca.dpa.BitDecision` /
:class:`~repro.sca.dpa.DpaResult`.

**Partial stores.**  A degraded campaign (quarantined or missing
shards) is still attackable, but only *explicitly*: every attack
refuses an incomplete store with
:class:`~repro.campaign.errors.PartialStoreError` unless the caller
passes ``allow_partial=True``, and every attack records an
:class:`~repro.campaign.store.AttackProvenance` stating exactly which
shards — and how many traces — backed the statistics it produced.
Silent subsetting is how wrong side-channel conclusions get published.
"""

from __future__ import annotations

import contextlib
from time import perf_counter as _perf_counter
from typing import Optional

import numpy as np

from ..obs import profile as _obs_profile
from ..obs import runtime as _obs_runtime
from ..sca.dpa import BitDecision, DpaResult
from ..sca.predict import ActivityPredictor
from ..sca.spa import SpaResult, transition_spa
from .errors import PartialStoreError
from .store import AttackProvenance

__all__ = ["OnlineMoments", "StreamingDpa", "StreamingCpa",
           "streaming_average_trace", "streaming_spa"]


def _require_complete(store, allow_partial: bool, what: str) -> None:
    coverage = store.coverage()
    if coverage.is_complete or allow_partial:
        return
    raise PartialStoreError(
        f"refusing {what} on an incomplete store — {coverage.render()}; "
        "pass allow_partial=True (CLI: --allow-partial) to accept "
        "degraded statistics",
        spec_digest=store.spec.digest(),
    )


class OnlineMoments:
    """Per-column count/sum/sum-of-squares accumulator.

    ``update`` folds in a ``(rows, columns)`` block, optionally under a
    boolean membership mask of the same shape (rows contribute only to
    the columns where their mask is True) — that is exactly the shape
    of a per-column DPA partition.
    """

    def __init__(self, n_columns: int):
        self.count = np.zeros(n_columns, dtype=np.float64)
        self.total = np.zeros(n_columns, dtype=np.float64)
        self.total_sq = np.zeros(n_columns, dtype=np.float64)

    def update(self, block: np.ndarray,
               mask: Optional[np.ndarray] = None) -> None:
        if _obs_profile.enabled():
            t0 = _perf_counter()
            self._update(block, mask)
            _obs_profile.observe("moments_update", _perf_counter() - t0)
        else:
            self._update(block, mask)

    def _update(self, block: np.ndarray,
                mask: Optional[np.ndarray]) -> None:
        block = np.asarray(block, dtype=np.float64)
        if mask is None:
            self.count += block.shape[0]
            self.total += block.sum(axis=0)
            self.total_sq += (block * block).sum(axis=0)
        else:
            self.count += mask.sum(axis=0)
            self.total += (block * mask).sum(axis=0)
            self.total_sq += (block * block * mask).sum(axis=0)

    def mean(self) -> np.ndarray:
        """Per-column mean (nan where no members)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.total / self.count

    def variance(self) -> np.ndarray:
        """Per-column sample variance, ddof=1 (nan where count < 2)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            centered = self.total_sq - self.count * self.mean() ** 2
            return np.maximum(centered, 0.0) / (self.count - 1)


def _window(store, bit_index: int) -> tuple:
    if not 0 <= bit_index < len(store.iteration_slices):
        raise ValueError("bit index outside the acquired iterations")
    return store.iteration_slices[bit_index]


def _prediction_gap_blocks(store, predictor, bit_index, prefix,
                           use_stored_randomness, max_traces):
    """Yield (shard view, prediction gap P1 - P0) per shard."""
    start, end = _window(store, bit_index)
    for view in store.iter_shards(columns=(start, end),
                                  max_traces=max_traces):
        if use_stored_randomness:
            if view.z_values is None:
                raise ValueError(
                    "the traces hold no recorded randomness (only a "
                    "known_randomness campaign records it)"
                )
            z = view.z_values
        else:
            z = None
        predictions = {
            h: predictor.prediction_matrix(view.points, prefix, h,
                                           bit_index, z)
            for h in (0, 1)
        }
        yield view, predictions[1] - predictions[0]


class _StreamingLadderAttack:
    """Shared recover-bits / disclosure-sweep driver.

    ``store`` is a trace source: a :class:`~repro.campaign.store.TraceStore`
    or an in-RAM :class:`~repro.campaign.store.TraceSet`.
    ``allow_partial=False`` (the default) refuses an incomplete store;
    after any ``recover_bits`` call, :attr:`last_provenance` states
    which shards and traces backed the decisions.
    """

    def __init__(self, store, use_stored_randomness: bool = False,
                 allow_partial: bool = False):
        _require_complete(store, allow_partial, type(self).__name__)
        self.store = store
        self.coprocessor = store.build_coprocessor()
        self.predictor = ActivityPredictor(self.coprocessor)
        self.use_stored_randomness = use_stored_randomness
        self.allow_partial = allow_partial
        self.last_provenance: Optional[AttackProvenance] = None

    def attack_bit(self, bit_index: int, known_prefix: list,
                   max_traces: Optional[int] = None) -> BitDecision:
        raise NotImplementedError

    def recover_bits(self, n_bits: int,
                     max_traces: Optional[int] = None) -> DpaResult:
        """Attack the first ``n_bits`` ladder bits sequentially.

        Later bits are attacked under the *recovered* prefix (not the
        ground truth), so early mistakes propagate — as they would for
        a real adversary.
        """
        if n_bits < 1 or n_bits > len(self.store.iteration_slices):
            raise ValueError("n_bits out of range for this campaign")
        rt = _obs_runtime.current()
        decisions = []
        prefix = []
        with contextlib.ExitStack() as stack:
            if rt is not None:
                stack.enter_context(rt.span(
                    "campaign.attack",
                    attack=type(self).__name__, bits=n_bits,
                ))
            for bit_index in range(n_bits):
                decision = self.attack_bit(bit_index, prefix, max_traces)
                decisions.append(decision)
                prefix.append(decision.chosen)
                if rt is not None:
                    self._observe_decision(rt, decision)
        self.last_provenance = self.store.provenance(max_traces)
        return DpaResult(decisions)

    def _observe_decision(self, rt, decision: BitDecision) -> None:
        """One attacked bit into the span stream and the peak gauges.

        The per-bit ``repro_campaign_attack_peak_statistic`` series is
        the DPA peak evolution an analyst plots to see the attack gain
        (or lose) confidence as it walks down the key.
        """
        rt.tracer.event(
            "attack.bit", key=decision.bit_index, level=2,
            chosen=decision.chosen, true_bit=decision.true_bit,
            statistic_zero=decision.statistic_zero,
            statistic_one=decision.statistic_one,
        )
        peaks = rt.registry.gauge(
            "repro_campaign_attack_peak_statistic",
            "streamed attack peak statistic per bit and hypothesis",
        )
        bit = str(decision.bit_index)
        peaks.set(decision.statistic_zero, bit=bit, hyp="0")
        peaks.set(decision.statistic_one, bit=bit, hyp="1")
        rt.registry.counter(
            "repro_campaign_attack_bits_total",
            "attacked bits by correctness",
        ).inc(correct=str(decision.chosen == decision.true_bit).lower())

    def _significance_threshold(self, n: int) -> float:
        return 4.5

    def traces_to_disclosure(self, n_bits: int,
                             grid: list) -> Optional[int]:
        """Smallest campaign prefix in ``grid`` that significantly
        recovers all bits; None if even the largest prefix fails (the
        paper's "even 20000 traces are not enough" outcome).

        Every grid point must be a prefix the traces can back: one
        below 1 or above the traces available raises ValueError.
        """
        available = self.store.provenance().n_traces
        for n in grid:
            if not 1 <= n <= available:
                raise ValueError(
                    f"disclosure grid point {n} is not between 1 and the "
                    f"{available} trace(s) available")
        for n in sorted(grid):
            result = self.recover_bits(n_bits, max_traces=n)
            if result.significant_success(self._significance_threshold(n)):
                return n
        return None


class StreamingDpa(_StreamingLadderAttack):
    """Difference-of-means DPA over a trace source.

    Kocher's difference-of-means with the netlist replay as the
    selection function: per cycle, traces are partitioned by whether
    the prediction gap ``P(bit=1) - P(bit=0)`` is above its median, and
    the Welch-normalized difference of the partitions' means is the
    statistic.  A strongly positive peak favours bit 1, a negative one
    bit 0.  Working on the gap removes every hypothesis-independent
    (e.g. public-input-driven) component, which would otherwise inflate
    both hypotheses alike.  See the module docstring for why the gap
    window is retained while the measurements stream through
    partitioned accumulators.
    """

    def __init__(self, store, min_partition: int = 5,
                 use_stored_randomness: bool = False,
                 allow_partial: bool = False):
        super().__init__(store, use_stored_randomness, allow_partial)
        if min_partition < 1:
            raise ValueError("min_partition must be positive")
        self.min_partition = min_partition

    def attack_bit(self, bit_index: int, known_prefix: list,
                   max_traces: Optional[int] = None) -> BitDecision:
        """Decide one key bit with two streaming passes."""
        # Pass 1: hypothesis replay per shard; keep only the gap window.
        gap_blocks = []
        for _view, gap in _prediction_gap_blocks(
            self.store, self.predictor, bit_index, known_prefix,
            self.use_stored_randomness, max_traces,
        ):
            gap_blocks.append(gap)
        gap = np.vstack(gap_blocks)
        medians = np.median(gap, axis=0)
        membership = gap > medians          # (n_traces, window) bool

        # Pass 2: stream the measurements into partitioned accumulators.
        width = gap.shape[1]
        high = OnlineMoments(width)
        low = OnlineMoments(width)
        start, end = _window(self.store, bit_index)
        row = 0
        for view in self.store.iter_shards(columns=(start, end),
                                           max_traces=max_traces):
            block = view.samples
            labels = membership[row:row + block.shape[0]]
            high.update(block, labels)
            low.update(block, ~labels)
            row += block.shape[0]

        evidence_zero, evidence_one = self._dom_from_moments(high, low)
        chosen = 1 if evidence_one >= evidence_zero else 0
        return BitDecision(
            bit_index=bit_index,
            chosen=chosen,
            statistic_zero=evidence_zero,
            statistic_one=evidence_one,
            true_bit=self.store.key_bits[bit_index],
        )

    def _dom_from_moments(self, high: OnlineMoments,
                          low: OnlineMoments) -> tuple:
        """(evidence for bit 0, evidence for bit 1): the strongest
        negative and positive Welch statistics over the columns whose
        partitions both hold ``min_partition`` traces."""
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = high.mean() - low.mean()
            pooled = np.sqrt(high.variance() / high.count
                             + low.variance() / low.count)
            statistic = diff / pooled
        valid = (
            (high.count >= self.min_partition)
            & (low.count >= self.min_partition)
            & (pooled > 0)
            & np.isfinite(statistic)
        )
        statistic = statistic[valid]
        if statistic.size == 0:
            return 0.0, 0.0
        best_pos = float(max(statistic.max(), 0.0))
        best_neg = float(max(-statistic.min(), 0.0))
        return best_neg, best_pos


class StreamingCpa(_StreamingLadderAttack):
    """Correlation power analysis over a trace source.

    The per-cycle Pearson correlation between the prediction gap and
    the measurements; the sign of the strongest correlation names the
    key bit.  Single-pass: Pearson needs only ``n, Σd, Σd², Σo, Σo²,
    Σdo`` per column, so the gap is consumed shard by shard and nothing
    but the six accumulator vectors persists.
    """

    def attack_bit(self, bit_index: int, known_prefix: list,
                   max_traces: Optional[int] = None) -> BitDecision:
        """Decide one key bit by maximum absolute streamed correlation."""
        acc = None
        for view, gap in _prediction_gap_blocks(
            self.store, self.predictor, bit_index, known_prefix,
            self.use_stored_randomness, max_traces,
        ):
            observed = view.samples
            if acc is None:
                width = gap.shape[1]
                acc = {
                    "n": 0.0,
                    "d": np.zeros(width), "dd": np.zeros(width),
                    "o": np.zeros(width), "oo": np.zeros(width),
                    "do": np.zeros(width),
                }
            acc["n"] += gap.shape[0]
            acc["d"] += gap.sum(axis=0)
            acc["dd"] += (gap * gap).sum(axis=0)
            acc["o"] += observed.sum(axis=0)
            acc["oo"] += (observed * observed).sum(axis=0)
            acc["do"] += (gap * observed).sum(axis=0)
        if acc is None:
            raise ValueError("no shards on disk")

        n = acc["n"]
        numerator = acc["do"] - acc["d"] * acc["o"] / n
        var_d = np.maximum(acc["dd"] - acc["d"] ** 2 / n, 0.0)
        var_o = np.maximum(acc["oo"] - acc["o"] ** 2 / n, 0.0)
        denominator = np.sqrt(var_d * var_o)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denominator > 0, numerator / denominator, 0.0)
        evidence_one = float(max(corr.max(), 0.0))
        evidence_zero = float(max(-corr.min(), 0.0))
        chosen = 1 if evidence_one >= evidence_zero else 0
        return BitDecision(
            bit_index=bit_index,
            chosen=chosen,
            statistic_zero=evidence_zero,
            statistic_one=evidence_one,
            true_bit=self.store.key_bits[bit_index],
        )

    def _significance_threshold(self, n: int) -> float:
        # Correlation peaks are significant beyond ~4.5 standard errors.
        return 4.5 / np.sqrt(n)


# ----------------------------------------------------------------------
# SPA and TVLA
# ----------------------------------------------------------------------

def streaming_average_trace(store,
                            max_traces: Optional[int] = None,
                            allow_partial: bool = False) -> np.ndarray:
    """Campaign-average trace via a running sum (full trace width)."""
    _require_complete(store, allow_partial, "streaming_average_trace")
    total = None
    count = 0
    for view in store.iter_shards(max_traces=max_traces):
        block = np.asarray(view.samples, dtype=np.float64)
        partial = block.sum(axis=0)
        total = partial if total is None else total + partial
        count += block.shape[0]
    if total is None:
        raise ValueError("no shards on disk")
    return total / count


def streaming_spa(store,
                  max_traces: Optional[int] = None,
                  window_size: int = 1,
                  allow_partial: bool = False) -> SpaResult:
    """Clustering SPA on the campaign-average trace."""
    averaged = streaming_average_trace(store, max_traces,
                                       allow_partial=allow_partial)
    return transition_spa(averaged, list(store.iteration_slices),
                          list(store.key_bits), window_size=window_size)
