"""Tests for AES-CMAC (RFC 4493)."""

import pytest

from repro.primitives import aes_cmac, constant_time_equal

CMAC_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
CMAC_M64 = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
CMAC_M320 = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411"
)
CMAC_M512 = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


class TestAesCmacRfc4493:
    def test_empty_message(self):
        assert aes_cmac(CMAC_KEY, b"").hex() == "bb1d6929e95937287fa37d129b756746"

    def test_one_block(self):
        assert aes_cmac(CMAC_KEY, CMAC_M64).hex() == "070a16b46b4d4144f79bdd9dd04a287c"

    def test_partial_blocks(self):
        assert (
            aes_cmac(CMAC_KEY, CMAC_M320).hex() == "dfa66747de9ae63030ca32611497c827"
        )

    def test_four_blocks(self):
        assert (
            aes_cmac(CMAC_KEY, CMAC_M512).hex() == "51f0bebf7e3b9d92fc49741779363cfe"
        )

    def test_key_sensitivity(self):
        other = bytes([CMAC_KEY[0] ^ 1]) + CMAC_KEY[1:]
        assert aes_cmac(CMAC_KEY, CMAC_M64) != aes_cmac(other, CMAC_M64)

    def test_message_sensitivity(self):
        assert aes_cmac(CMAC_KEY, b"a") != aes_cmac(CMAC_KEY, b"b")


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"abcd", b"abcd")

    def test_unequal_same_length(self):
        assert not constant_time_equal(b"abcd", b"abce")

    def test_unequal_length(self):
        assert not constant_time_equal(b"abc", b"abcd")

    def test_empty(self):
        assert constant_time_equal(b"", b"")
