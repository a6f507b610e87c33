"""E7 (crypto backends) — battery-life extension vs forward-secrecy.

The paper's handshake-per-message design pays the full ECC bill on
every exchange.  The amortized hybrid runs the private handshake once
per epoch, derives a session key, and seals each message with a
lightweight symmetric AEAD — so the epoch length is a pure security
knob: a longer window amortizes the handshake over more messages
(longer battery life) but widens the blast radius of a captured
session key (weaker forward secrecy).

This bench sweeps forward-secrecy windows across frame-loss rates on
the TOY curve and tabulates the microjoules per delivered message,
the battery-life extension factor over the handshake-per-message
baseline, and the projected pacemaker lifetime.  The acceptance
criteria are the shape of the trade: at ``epoch=1`` the "amortized"
design *is* the baseline (extension factor 1.0 by construction), and
the extension grows strictly with the window at every loss rate.

Writes the human table to ``results/e7_amortization.txt`` and the
machine-readable baseline to ``results/BENCH_backends.json``.
"""

import json

from _helpers import RESULTS_DIR, scaled, write_report

from repro.protocols import AmortizedSpec, run_amortized_soak

SEED = 2013
CURVE = "TOY-B17"
BACKEND = "simon-aead"
EPOCHS = (1, 4, 16)
LOSSES = (0.0, 0.10, 0.20)
SESSIONS = scaled(6, 2)
MESSAGES = scaled(64, 16)


def _run_window(epoch):
    """One forward-secrecy window across every loss rate."""
    spec = AmortizedSpec(
        backend=BACKEND, curve=CURVE, seed=SEED,
        epoch_messages=epoch, messages=MESSAGES, sessions=SESSIONS,
        sweep=LOSSES)
    report = run_amortized_soak(spec, workers=0)
    cells = []
    for point in report.points:
        assert point.delivered > 0, (epoch, point.frame_loss)
        cells.append({
            "epoch": epoch,
            "frame_loss": point.frame_loss,
            "sessions": point.sessions,
            "messages": point.messages,
            "delivered": point.delivered,
            "keys_used": point.keys_used,
            "delivery_rate": round(point.delivery_rate, 4),
            "uj_per_message": round(point.mean_uj_per_message, 4),
            "handshake_uj": round(point.mean_handshake_uj, 4),
            "message_only_uj": round(point.mean_message_only_uj, 4),
            "extension_factor": round(point.extension_factor, 4),
            "lifetime_years": round(point.lifetime_years(spec), 3),
            "digest": point.digest(),
        })
    return cells


def run_experiment():
    cells = []
    for epoch in EPOCHS:
        cells.extend(_run_window(epoch))

    lines = [
        f"E7 — battery-life extension vs forward-secrecy window "
        f"({BACKEND} on {CURVE}, {SESSIONS} session(s) x "
        f"{MESSAGES} message(s), seed {SEED})",
        "=" * 72,
        f"{'epoch':>6}{'loss':>7}{'deliv':>8}{'uJ/msg':>10}"
        f"{'hshake uJ':>11}{'msg uJ':>9}{'ext':>7}{'years':>8}",
        "-" * 72,
    ]
    for cell in cells:
        lines.append(
            f"{cell['epoch']:>6}{cell['frame_loss']:>7.0%}"
            f"{cell['delivery_rate']:>8.1%}"
            f"{cell['uj_per_message']:>10.3f}"
            f"{cell['handshake_uj']:>11.3f}"
            f"{cell['message_only_uj']:>9.3f}"
            f"{cell['extension_factor']:>7.2f}"
            f"{cell['lifetime_years']:>8.1f}")
    lines += [
        "-" * 72,
        "ext = (handshake + message) / amortized uJ per delivered "
        "message: the",
        "battery-life multiple over the handshake-per-message design, "
        "which pays",
        "the same data frame plus one full private handshake every "
        "message.",
        f"forward secrecy: a captured session key exposes at most "
        f"'epoch' messages.",
    ]
    write_report("e7_amortization", lines)

    from repro.obs.metrics import atomic_write_bytes

    payload = json.dumps(
        {"curve": CURVE, "backend": BACKEND, "seed": SEED,
         "sessions": SESSIONS, "messages": MESSAGES, "cells": cells},
        indent=1, sort_keys=True) + "\n"
    atomic_write_bytes(str(RESULTS_DIR / "BENCH_backends.json"),
                       payload.encode())

    # The acceptance criteria: epoch=1 *is* the baseline, and the
    # extension grows strictly with the window at every loss rate.
    by_loss = {loss: [] for loss in LOSSES}
    for cell in cells:
        by_loss[cell["frame_loss"]].append(cell)
    for loss, column in by_loss.items():
        column.sort(key=lambda c: c["epoch"])
        anchor = column[0]
        assert anchor["epoch"] == 1, column
        assert abs(anchor["extension_factor"] - 1.0) < 0.05, anchor
        for short, long in zip(column, column[1:]):
            assert long["extension_factor"] > \
                short["extension_factor"], (loss, short, long)
            assert long["lifetime_years"] >= \
                short["lifetime_years"], (loss, short, long)
    return cells


def test_e7_amortization(benchmark):
    cells = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert len(cells) == len(EPOCHS) * len(LOSSES)
