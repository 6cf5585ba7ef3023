"""Tests for :mod:`repro.committee` — quorum arithmetic underpins every
decision rule, so these are exhaustive over the paper's committee sizes."""

import pytest

from repro.committee import Authority, Committee
from repro.errors import ConfigError


class TestThresholds:
    @pytest.mark.parametrize(
        "n,f", [(4, 1), (7, 2), (10, 3), (13, 4), (50, 16), (100, 33)]
    )
    def test_fault_tolerance(self, n, f):
        assert Committee.of_size(n).faults_tolerated == f

    @pytest.mark.parametrize("n", [4, 7, 10, 13, 31])
    def test_quorum_is_2f_plus_1_when_n_is_3f_plus_1(self, n):
        committee = Committee.of_size(n)
        assert committee.quorum_threshold == 2 * committee.faults_tolerated + 1

    @pytest.mark.parametrize("n", [5, 6, 50, 100])
    def test_quorum_is_n_minus_f_in_general(self, n):
        committee = Committee.of_size(n)
        assert committee.quorum_threshold == n - committee.faults_tolerated

    @pytest.mark.parametrize("n", [4, 7, 10, 13, 31, 50])
    def test_validity_is_f_plus_1(self, n):
        committee = Committee.of_size(n)
        assert committee.validity_threshold == committee.faults_tolerated + 1

    @pytest.mark.parametrize("n", [4, 7, 10, 13, 31, 50])
    def test_quorum_intersection_contains_honest_validator(self, n):
        """Two quorums overlap in at least f+1 validators — the property
        every safety lemma relies on."""
        committee = Committee.of_size(n)
        overlap = 2 * committee.quorum_threshold - n
        assert overlap >= committee.validity_threshold

    def test_paper_committee_sizes(self):
        small, large = Committee.of_size(10), Committee.of_size(50)
        assert small.quorum_threshold == 7
        assert large.quorum_threshold == 34  # n - f with n = 3f + 2


class TestMembership:
    def test_too_small_committee_rejected(self):
        for n in (1, 2, 3):
            with pytest.raises(ConfigError):
                Committee.of_size(n)

    def test_authority_lookup(self, committee4):
        authority = committee4.authority(2)
        assert authority.index == 2
        assert authority.name == "validator-2"

    def test_out_of_range_lookup_raises(self, committee4):
        with pytest.raises(ConfigError):
            committee4.authority(4)
        with pytest.raises(ConfigError):
            committee4.authority(-1)

    def test_is_member(self, committee4):
        assert committee4.is_member(0)
        assert committee4.is_member(3)
        assert not committee4.is_member(4)
        assert not committee4.is_member(-1)

    def test_iteration_and_len(self, committee4):
        assert len(committee4) == 4
        assert [a.index for a in committee4] == [0, 1, 2, 3]

    def test_unordered_authorities_rejected(self):
        """Member indexes must be strictly increasing (wire identities
        are stable; duplicates or reordering would corrupt lookups)."""
        with pytest.raises(ConfigError):
            Committee(
                authorities=tuple(
                    Authority(index=i, name=f"v{i}") for i in (0, 2, 1, 3)
                )
            )
        with pytest.raises(ConfigError):
            Committee(
                authorities=tuple(
                    Authority(index=i, name=f"v{i}") for i in (0, 1, 1, 2)
                )
            )

    def test_non_contiguous_members_allowed(self):
        """After a leave, the active committee covers a non-contiguous
        subset of wire identities with stable indexes."""
        committee = Committee.of_members((0, 1, 3, 5, 6))
        assert committee.size == 5
        assert committee.members == (0, 1, 3, 5, 6)
        assert committee.is_member(3) and not committee.is_member(2)
        assert committee.authority(5).name == "validator-5"
        with pytest.raises(ConfigError):
            committee.authority(2)

    def test_public_keys_attached(self):
        keys = [bytes([i]) * 4 for i in range(4)]
        committee = Committee.of_size(4, public_keys=keys)
        assert committee.authority(2).public_key == b"\x02\x02\x02\x02"

    def test_mismatched_key_count_rejected(self):
        with pytest.raises(ConfigError):
            Committee.of_size(4, public_keys=[b"x"] * 3)
