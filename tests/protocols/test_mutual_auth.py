"""Tests for AES-based mutual authentication (the secret-key baseline)."""

import pytest

from repro.primitives import AesCtrDrbg
from repro.protocols import (
    AuthenticationError,
    SymmetricDevice,
    SymmetricServer,
    run_mutual_authentication,
)

KEY = bytes(range(16))


def fresh(key_dev=KEY, key_srv=KEY):
    return SymmetricDevice(key_dev), SymmetricServer(key_srv)


class TestHonestRun:
    def test_mutual_authentication_succeeds(self):
        device, server = fresh()
        result = run_mutual_authentication(device, server, AesCtrDrbg(1))
        assert result.authenticated
        assert not result.aborted_early

    def test_telemetry_delivery(self):
        device, server = fresh()
        payload = b"hr=072 spo2=98 batt=81%"
        result = run_mutual_authentication(device, server, AesCtrDrbg(2),
                                           payload=payload)
        assert result.payload_delivered == payload

    def test_transcript_rounds(self):
        device, server = fresh()
        result = run_mutual_authentication(device, server, AesCtrDrbg(3),
                                           payload=b"x" * 20)
        assert [m.label for m in result.transcript.messages] == [
            "Nd", "Ns||MACs", "MACd", "frame"
        ]

    def test_ciphertext_not_plaintext_on_the_air(self):
        """Confidentiality: the payload never crosses in the clear."""
        device, server = fresh()
        payload = b"sensitive diagnosis code 1234"
        run_mutual_authentication(device, server, AesCtrDrbg(4),
                                  payload=payload)
        # send_telemetry exposes the actual frame:
        device2, server2 = fresh()
        run_mutual_authentication(device2, server2, AesCtrDrbg(4))
        nonce, ciphertext, tag = device2.send_telemetry(payload, AesCtrDrbg(5))
        assert ciphertext != payload


class TestAttacks:
    def test_wrong_device_key_fails_mutually(self):
        """With mismatched keys the device rejects the (to it,
        unauthentic) server first — the session dies in round 2."""
        device, server = fresh(key_dev=bytes(16))
        result = run_mutual_authentication(device, server, AesCtrDrbg(6))
        assert not result.authenticated
        assert result.aborted_early

    def test_impostor_server_rejected_early(self):
        """The Section 4 rule: server authentication first, cheap abort."""
        device, server = fresh()
        result = run_mutual_authentication(device, server, AesCtrDrbg(7),
                                           server_is_impostor=True)
        assert not result.authenticated
        assert result.aborted_early
        # The device only paid one CMAC verification.
        honest_dev, honest_srv = fresh()
        honest = run_mutual_authentication(honest_dev, honest_srv,
                                           AesCtrDrbg(8))
        assert result.device_ops.aes_blocks < honest.device_ops.aes_blocks / 2
        # ...and never transmitted its own authentication MAC.
        assert result.transcript.rounds == 2

    def test_tampered_telemetry_detected(self):
        device, server = fresh()
        run_mutual_authentication(device, server, AesCtrDrbg(9))
        nonce, ciphertext, tag = device.send_telemetry(b"rate=60", AesCtrDrbg(10))
        evil = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
        with pytest.raises(AuthenticationError):
            server.receive_telemetry(nonce, evil, tag)

    def test_wrong_device_key_raises_in_server_verify(self):
        device, server = fresh(key_dev=bytes(16))
        drbg = AesCtrDrbg(11)
        nd = device.hello(drbg)
        ns, mac = server.respond(nd, drbg)
        # With mismatched keys the device rejects the honest server.
        with pytest.raises(AuthenticationError):
            device.verify_server(ns, mac)


class TestAccounting:
    def test_device_cheaper_than_pkc_in_compute(self):
        """Secret-key protocols are computation-cheap: a handful of AES
        blocks, zero point multiplications."""
        device, server = fresh()
        result = run_mutual_authentication(device, server, AesCtrDrbg(12))
        assert result.device_ops.point_multiplications == 0
        assert 0 < result.device_ops.aes_blocks < 20

    def test_communication_bits_settled(self):
        device, server = fresh()
        result = run_mutual_authentication(device, server, AesCtrDrbg(13))
        assert result.device_ops.tx_bits == \
            result.transcript.bits_from("device")
        assert result.device_ops.rx_bits == \
            result.transcript.bits_from("server")

    def test_state_machine_guards(self):
        device, server = fresh()
        with pytest.raises(RuntimeError):
            device.verify_server(b"\x00" * 16, b"\x00" * 16)
        with pytest.raises(RuntimeError):
            server.verify_device(b"\x00" * 16)
        with pytest.raises(RuntimeError):
            device.send_telemetry(b"x", AesCtrDrbg(14))

    def test_key_length_validation(self):
        with pytest.raises(ValueError):
            SymmetricDevice(b"short")
        with pytest.raises(ValueError):
            SymmetricServer(b"short")

    def test_operation_count_addition(self):
        from repro.protocols import OperationCount

        a = OperationCount(point_multiplications=1, tx_bits=10)
        b = OperationCount(point_multiplications=2, rx_bits=5)
        c = a + b
        assert c.point_multiplications == 3
        assert (c.tx_bits, c.rx_bits) == (10, 5)
