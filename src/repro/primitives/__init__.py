"""Supporting cryptographic primitives.

The non-ECC building blocks the protocols and models need: AES-128 and
SHA-1 from scratch, MACs and a deterministic seedable DRBG (standing in
for the chip's TRNG).
"""

from .aes import Aes128, INV_SBOX, SBOX
from .mac import aes_cmac, constant_time_equal
from .prng import AesCtrDrbg
from .sha1 import Sha1, sha1

__all__ = [
    "Aes128",
    "SBOX",
    "INV_SBOX",
    "aes_cmac",
    "constant_time_equal",
    "AesCtrDrbg",
    "Sha1",
    "sha1",
]
