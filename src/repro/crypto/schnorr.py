"""Schnorr signatures over the RFC 3526 2048-bit MODP group.

This is real public-key cryptography implemented with Python integers,
standing in for the paper's ed25519-consensus (Section 4).  Signing is a
classic Schnorr identification made non-interactive with the
Fiat-Shamir transform; nonces are derived deterministically (RFC
6979-style) so signing never needs an entropy source — important for
reproducible simulations.

Performance note: one sign or verify costs one or two 2048-bit modular
exponentiations (~1 ms).  The simulator's default
:class:`~repro.crypto.signing.NullSignatureScheme` avoids this cost;
this scheme is exercised by the unit tests, the runtime cluster tests
and the micro-benchmarks.
"""

from __future__ import annotations

import hashlib
import hmac

from .signing import KeyPair, SignatureScheme

# RFC 3526, group 14 (2048-bit MODP).  The group has order (P-1)/2 = Q
# (a safe prime's large prime factor); we work in the subgroup of
# quadratic residues generated by G = 2**2 = 4, which has prime order Q.
P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
Q = (P - 1) // 2
G = 4  # generator of the order-Q subgroup of quadratic residues

_SCALAR_BYTES = (Q.bit_length() + 7) // 8
_ELEMENT_BYTES = (P.bit_length() + 7) // 8


def _int_to_bytes(value: int, size: int) -> bytes:
    return value.to_bytes(size, "big")


def _hash_to_scalar(*parts: bytes) -> int:
    hasher = hashlib.blake2b(digest_size=64, person=b"schnorr-chal")
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)
    return int.from_bytes(hasher.digest(), "big") % Q


class SchnorrSignatureScheme(SignatureScheme):
    """Schnorr signatures: ``sig = (e, s)`` with ``s = k - e*x mod Q``."""

    name = "schnorr-modp2048"

    def generate(self, seed: bytes) -> KeyPair:
        """Derive ``x`` from ``seed`` and publish ``X = G^x mod P``."""
        x = _hash_to_scalar(b"schnorr-keygen", seed)
        if x == 0:  # astronomically unlikely; keep the scheme total
            x = 1
        public = pow(G, x, P)
        return KeyPair(
            private_key=_int_to_bytes(x, _SCALAR_BYTES),
            public_key=_int_to_bytes(public, _ELEMENT_BYTES),
        )

    def sign(self, private_key: bytes, message: bytes) -> bytes:
        x = int.from_bytes(private_key, "big")
        # Deterministic nonce: k = HMAC(private_key, message) mod Q.
        k = (
            int.from_bytes(
                hmac.new(private_key, b"nonce" + message, hashlib.blake2b).digest(), "big"
            )
            % Q
        )
        if k == 0:
            k = 1
        r = pow(G, k, P)
        public = pow(G, x, P)
        e = _hash_to_scalar(
            _int_to_bytes(r, _ELEMENT_BYTES), _int_to_bytes(public, _ELEMENT_BYTES), message
        )
        s = (k - e * x) % Q
        return _int_to_bytes(e, _SCALAR_BYTES) + _int_to_bytes(s, _SCALAR_BYTES)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(signature) != 2 * _SCALAR_BYTES:
            return False
        e = int.from_bytes(signature[:_SCALAR_BYTES], "big")
        s = int.from_bytes(signature[_SCALAR_BYTES:], "big")
        if not (0 <= e < Q and 0 <= s < Q):
            return False
        public = int.from_bytes(public_key, "big")
        if not 1 < public < P:
            return False
        # r' = G^s * X^e; valid iff the challenge recomputes.
        r = (pow(G, s, P) * pow(public, e, P)) % P
        expected = _hash_to_scalar(
            _int_to_bytes(r, _ELEMENT_BYTES), public_key.rjust(_ELEMENT_BYTES, b"\x00"), message
        )
        return expected == e
