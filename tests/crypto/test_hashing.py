"""Tests for :mod:`repro.crypto.hashing`."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import DIGEST_SIZE, hash_bytes, hash_parts


def reference_hash_parts(parts, person=b""):
    """One ``update`` per length prefix and one per part: the framing
    ``hash_parts`` must reproduce byte for byte."""
    hasher = hashlib.blake2b(digest_size=DIGEST_SIZE, person=person)
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)
    return hasher.digest()


class TestHashBytes:
    def test_digest_size(self):
        assert len(hash_bytes(b"data")) == DIGEST_SIZE == 32

    def test_deterministic(self):
        assert hash_bytes(b"data") == hash_bytes(b"data")

    def test_different_inputs_differ(self):
        assert hash_bytes(b"a") != hash_bytes(b"b")

    def test_personalization_separates_domains(self):
        assert hash_bytes(b"x", person=b"block") != hash_bytes(b"x", person=b"coin")

    def test_sixteen_byte_personalization_is_the_limit(self):
        assert len(hash_bytes(b"x", person=b"p" * 16)) == DIGEST_SIZE

    @pytest.mark.parametrize(
        "digest",
        [
            lambda person: hash_bytes(b"x", person=person),
            lambda person: hash_parts([b"x"], person=person),
        ],
        ids=["hash_bytes", "hash_parts"],
    )
    def test_long_personalization_rejected_not_truncated(self, digest):
        """A 17-byte tag is no alias of its 16-byte prefix's domain."""
        with pytest.raises(ValueError):
            digest(b"p" * 17)


class TestHashParts:
    def test_framing_is_unambiguous(self):
        """Length framing: ["ab","c"] must differ from ["a","bc"]."""
        assert hash_parts([b"ab", b"c"]) != hash_parts([b"a", b"bc"])

    def test_empty_parts_are_significant(self):
        assert hash_parts([b""]) != hash_parts([])
        assert hash_parts([b"", b"x"]) != hash_parts([b"x"])

    def test_matches_for_equal_sequences(self):
        assert hash_parts([b"a", b"b"]) == hash_parts([b"a", b"b"])

    def test_accepts_generators(self):
        assert hash_parts(p for p in [b"a", b"b"]) == hash_parts([b"a", b"b"])

    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=64),
                # Either side of the run limit, and well past it.
                st.sampled_from([4095, 4096, 4097, 9000]).map(lambda size: b"\x07" * size),
            ),
            max_size=12,
        ),
        st.sampled_from([b"", b"block", b"p" * 16]),
    )
    def test_runs_hash_what_part_by_part_framing_hashes(self, parts, person):
        """Short parts framed into one buffer, long ones hashed in place,
        bytes-like parts (a section sliced out of a frame) alike."""
        expected = reference_hash_parts(parts, person)
        assert hash_parts(parts, person=person) == expected
        assert hash_parts(map(memoryview, parts), person=person) == expected
