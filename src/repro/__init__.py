"""Reproduction of "Low-Energy Encryption for Medical Devices: Security
Adds an Extra Design Dimension" (Fan, Reparaz, Rožić, Verbauwhede,
DAC 2013).

The library rebuilds the paper's artifact — a low-energy,
side-channel-hardened elliptic-curve coprocessor for medical devices —
as a simulation stack, one subpackage per abstraction level of the
paper's security pyramid:

* :mod:`repro.gf2m` — GF(2^m) arithmetic and the digit-serial multiplier,
* :mod:`repro.ec` — curves, the Montgomery powering ladder, named curves,
* :mod:`repro.arch` — the cycle-accurate coprocessor model,
* :mod:`repro.power` — CMOS leakage and the calibrated energy model,
* :mod:`repro.sca` — timing/SPA/DPA/CPA attacks and leakage tests,
* :mod:`repro.fault` — fault injection and countermeasures,
* :mod:`repro.protocols` — Peeters–Hermans, Schnorr, AES mutual auth,
* :mod:`repro.primitives` — AES, SHA-1, MACs, DRBG,
* :mod:`repro.energy` — radio/battery/system-level energy trade-offs,
* :mod:`repro.security` — the pyramid model and the evaluation harness.
"""

__version__ = "1.0.0"
