"""Outcomes of the DPA and CPA key-recovery attacks (Section 7).

The Section 7 experiment: a DPA adversary with a fixed secret key
collects traces over many known base points and recovers the key bit
by bit.  For each target bit it compares the measured traces against
the hypothesized power consumption of both bit guesses (the netlist
replay of :class:`~repro.sca.predict.ActivityPredictor` is the
selection function) and keeps the hypothesis with the stronger
differential peak.

The attacks themselves are :class:`~repro.campaign.streaming.StreamingDpa`
(difference of means) and :class:`~repro.campaign.streaming.StreamingCpa`
(Pearson correlation).  They read a campaign on disk or in RAM, and
return the types defined here.  The three scenarios of the paper's
evaluation map to how the campaign was acquired and whether the attack
uses the recorded Z values:

* countermeasure off -> scenario "unprotected", z assumed 1: succeeds;
* countermeasure on, randomness known (white-box) -> "known_randomness"
  with the stored Z: succeeds too, validating the attack's soundness;
* countermeasure on, randomness secret -> "protected": the predictions
  decorrelate and the attack fails regardless of the trace count.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BitDecision", "DpaResult"]


@dataclass(frozen=True)
class BitDecision:
    """Outcome of attacking one key bit."""

    bit_index: int
    chosen: int
    statistic_zero: float
    statistic_one: float
    true_bit: int

    @property
    def correct(self) -> bool:
        """Did the attack choose the device's actual key bit?"""
        return self.chosen == self.true_bit

    @property
    def margin(self) -> float:
        """Statistic gap between the chosen and rejected hypotheses."""
        return abs(self.statistic_one - self.statistic_zero)


@dataclass
class DpaResult:
    """Outcome of a multi-bit DPA attack."""

    decisions: list

    @property
    def recovered_bits(self) -> list:
        """The attack's key-bit guesses, in ladder order."""
        return [d.chosen for d in self.decisions]

    @property
    def true_bits(self) -> list:
        """Ground truth (evaluation only)."""
        return [d.true_bit for d in self.decisions]

    @property
    def num_correct(self) -> int:
        """Number of correctly recovered bits."""
        return sum(1 for d in self.decisions if d.correct)

    @property
    def success(self) -> bool:
        """True iff every attacked bit was recovered."""
        return all(d.correct for d in self.decisions)

    @property
    def peak_statistics(self) -> list:
        """Per-bit winning statistic (the decision's evidence level)."""
        return [max(d.statistic_zero, d.statistic_one)
                for d in self.decisions]

    def significant_success(self, threshold: float = 4.5) -> bool:
        """Recovered everything AND every peak clears ``threshold``.

        A "success" whose statistics sit at the max-over-cycles noise
        floor is a coin flip, not an attack; the adversary cannot tell
        it from failure.  For the difference-of-means statistic (a
        Welch-normalized quantity) the conventional 4.5 threshold
        applies; correlation-based attacks pass a threshold scaled to
        their trace count.
        """
        return self.success and all(p > threshold
                                    for p in self.peak_statistics)
