"""Cryptographic hashing.

The paper's implementation hashes with blake2 (Section 4); Python's
standard library ships blake2b, so digests here are true blake2b-256.

A personalization tag (``person``) separates domains — block digests
from coin seeds, say — and is at most 16 bytes: blake2b's own limit,
enforced by :mod:`hashlib` (an over-long tag raises ``ValueError``
rather than sharing a domain with its 16-byte prefix).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

#: Digest length in bytes (blake2b-256).
DIGEST_SIZE = 32

#: Type alias for digests; raw bytes keep hashing and comparison cheap.
Digest = bytes

_LENGTH = struct.Struct("<Q")

#: Parts shorter than this are framed into one buffer with their
#: neighbours; longer ones (a block's transaction section) are hashed
#: where they lie rather than copied.
_RUN_LIMIT = 4096


def hash_bytes(data: bytes, *, person: bytes = b"") -> Digest:
    """Return the blake2b-256 digest of ``data`` under tag ``person``."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE, person=person).digest()


def hash_parts(parts: Iterable[bytes], *, person: bytes = b"") -> Digest:
    """Hash a sequence of byte strings with unambiguous length framing.

    Each part is prefixed with its 8-byte little-endian length so that
    ``hash_parts([b"ab", b"c"]) != hash_parts([b"a", b"bc"])``.  Runs of
    short parts reach the hasher as one framed buffer, so a block with
    fifty parent references makes a handful of ``update`` calls.
    """
    hasher = hashlib.blake2b(digest_size=DIGEST_SIZE, person=person)
    run: list[bytes] = []
    for part in parts:
        size = len(part)
        run.append(_LENGTH.pack(size))
        if size < _RUN_LIMIT:
            run.append(part)
        else:
            hasher.update(b"".join(run))
            hasher.update(part)
            run = []
    hasher.update(b"".join(run))
    return hasher.digest()
