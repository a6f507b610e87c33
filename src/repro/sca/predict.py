"""Attacker-side activity prediction (the hypothesis engine of DPA/CPA).

DPA "recovers the key in a divide-and-conquer fashion by comparing the
measured power consumption with several hypothesized power
consumptions, one for each sub-key hypothesis" (Section 7).  Here the
sub-key is one ladder key bit, and the hypothesized power consumption
comes from replaying the coprocessor's *public* microcode under a
guessed key prefix and an assumed randomization value: the prologue
and the known prefix once per shard of traces
(:meth:`~repro.arch.batch.BatchCoprocessor.run`), then one iteration
per hypothesis from the saved register file
(:meth:`~repro.arch.batch.BatchCoprocessor.resume_ladder`), every
trace of the shard in one batch.

When Z-randomization is off (or its value is known, the white-box
scenario), the replay under the correct hypothesis predicts the
device's data-dependent activity exactly.  When the randomization is
on and unknown, the replay is computed under a wrong Z and the
predictions decorrelate from the measurements — which is precisely why
the countermeasure works.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..arch.batch import BatchCoprocessor
from ..arch.coprocessor import EccCoprocessor

__all__ = ["ActivityPredictor", "bits_to_int"]


def bits_to_int(bits: list) -> int:
    """Pack a most-significant-first bit list into an integer."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        value = (value << 1) | b
    return value


class ActivityPredictor:
    """Predicts per-cycle data-dependent activity for key hypotheses.

    Predictions are divide-and-conquer, as Section 7 describes: the
    predictor carries the coprocessor register file of a shard's traces
    past the known key prefix, so a prediction for bit ``i`` simulates
    only iteration ``i``, for the whole shard in one
    :class:`~repro.arch.batch.BatchCoprocessor` batch.  Register files
    are ``(registers, limbs, traces)`` arrays kept per (points, Z values,
    prefix): the file after the prologue, which runs once per shard,
    and the file after each predicted iteration, stored under the
    prefix extended by that iteration's hypothesis.  A prefix with no
    stored file (a first call that starts deep, or a second pass over
    the leading bits) is rebuilt by one batch run of the prologue and
    the prefix's iterations.  Only files of two consecutive depths are
    kept, so memory stays O(traces) however many bits are attacked.

    Recovering B bits therefore simulates one prologue and 2B
    iterations per trace, where replaying from the start for every
    prediction would take 2B prologues and B(B+1) iterations.  Each
    prediction row equals the same window of a full ``replay_padded``
    run under ``[1] + known_prefix + [hypothesis]``, sample for sample.

    Parameters
    ----------
    coprocessor:
        A coprocessor with the *same configuration* as the device under
        attack (the white-box assumption: the netlist is known); the
        predictor runs a batch executor of that configuration.
    """

    def __init__(self, coprocessor: EccCoprocessor):
        self.coprocessor = BatchCoprocessor(coprocessor.config)
        #: depth -> {(points, z values, prefix): register file}
        self._files: dict = {}

    def padded_length(self) -> int:
        """Bit length of recoded scalars on this device (public)."""
        return self.coprocessor.domain.order.bit_length() + 1

    def prediction_matrix(
        self,
        points: list,
        known_prefix: list,
        hypothesis: int,
        iteration_index: int,
        z_values: Optional[list] = None,
    ) -> np.ndarray:
        """Predictions for a shard: an (n_traces, window) matrix.

        ``known_prefix`` holds the already-recovered key bits (after
        the implicit leading 1); ``hypothesis`` is the guess for bit
        ``iteration_index``.  Row i is the predicted datapath+register
        activity of trace i over that iteration's cycles.
        ``z_values`` supplies the per-trace randomization when it is
        known to the adversary; otherwise Z = 1 is assumed (correct for
        the unprotected device, wrong — and fatally so — for the
        protected one).
        """
        if len(known_prefix) != iteration_index:
            raise ValueError("prefix length must equal the target iteration")
        if hypothesis not in (0, 1):
            raise ValueError("hypothesis must be a bit")
        prefix = tuple(known_prefix)
        shard = (tuple(points),
                 (1,) * len(points) if z_values is None else tuple(z_values))
        for depth in [d for d in self._files
                      if d not in (iteration_index, iteration_index + 1)]:
            del self._files[depth]
        files = self._files.setdefault(iteration_index, {})
        registers = files.get((shard, prefix))
        cop = self.coprocessor
        if registers is None:
            # The prologue and the prefix's iterations, one truncated run.
            bits = [1, *prefix]
            cop.run(bits_to_int(bits) << (self.padded_length() - len(bits)),
                    list(points), list(shard[1]),
                    max_iterations=len(prefix))
            registers = files[(shard, prefix)] = cop.registers.snapshot()
        replay = cop.resume_ladder(registers, prefix[-1] if prefix else 1,
                                   [hypothesis])
        self._files.setdefault(iteration_index + 1, {})[
            (shard, prefix + (hypothesis,))] = cop.registers.snapshot()
        return replay.datapath + replay.register
