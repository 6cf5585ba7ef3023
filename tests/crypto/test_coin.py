"""Tests for the common coin implementations (Section 2.1, footnote 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.coin import SHARE_MEMO_ROUNDS, CoinShare, FastCoin, ThresholdCoin
from repro.crypto.hashing import hash_parts
from repro.errors import InsufficientShares, InvalidShare


@pytest.fixture(scope="module")
def threshold_coins():
    """Dealing is expensive (2048-bit exponentiation); share it."""
    return ThresholdCoin.deal(n=4, threshold=3, seed=1)


class TestThresholdCoin:
    def test_reconstruct_from_quorum(self, threshold_coins):
        shares = [coin.share(i, 7) for i, coin in enumerate(threshold_coins)]
        value = threshold_coins[0].reconstruct(7, shares[:3])
        assert value == threshold_coins[3].reconstruct(7, shares[1:])

    def test_any_subset_gives_same_coin(self, threshold_coins):
        shares = [coin.share(i, 9) for i, coin in enumerate(threshold_coins)]
        a = threshold_coins[0].reconstruct(9, [shares[0], shares[1], shares[2]])
        b = threshold_coins[0].reconstruct(9, [shares[1], shares[2], shares[3]])
        c = threshold_coins[0].reconstruct(9, [shares[0], shares[2], shares[3]])
        assert a == b == c

    def test_different_rounds_differ(self, threshold_coins):
        def coin_for(round_number):
            shares = [c.share(i, round_number) for i, c in enumerate(threshold_coins)]
            return threshold_coins[0].reconstruct(round_number, shares)

        assert coin_for(1) != coin_for(2)

    def test_share_verification(self, threshold_coins):
        share = threshold_coins[2].share(2, 5)
        assert threshold_coins[0].verify_share(share)

    def test_forged_share_rejected(self, threshold_coins):
        share = threshold_coins[2].share(2, 5)
        forged = CoinShare(author=share.author, round=share.round, value=b"\x01" * 32)
        assert not threshold_coins[0].verify_share(forged)
        good = [threshold_coins[i].share(i, 5) for i in (0, 1)]
        with pytest.raises(InvalidShare):
            threshold_coins[0].reconstruct(5, good + [forged])

    def test_share_for_wrong_round_ignored(self, threshold_coins):
        shares = [threshold_coins[i].share(i, 3) for i in range(3)]
        wrong = threshold_coins[3].share(3, 4)
        with pytest.raises(InsufficientShares):
            threshold_coins[0].reconstruct(4, shares[:2] + [wrong])

    def test_insufficient_shares(self, threshold_coins):
        shares = [threshold_coins[i].share(i, 3) for i in range(2)]
        with pytest.raises(InsufficientShares):
            threshold_coins[0].reconstruct(3, shares)

    def test_cannot_share_for_other_validator(self, threshold_coins):
        with pytest.raises(InvalidShare):
            threshold_coins[0].share(1, 3)

    def test_duplicate_authors_do_not_count(self, threshold_coins):
        share = threshold_coins[0].share(0, 3)
        with pytest.raises(InsufficientShares):
            threshold_coins[0].reconstruct(3, [share, share, share])


class TestFastCoin:
    def make(self, n=4, threshold=3):
        return FastCoin(seed=b"test", n=n, threshold=threshold)

    def test_reconstruct_deterministic(self):
        coin = self.make()
        shares = [coin.share(i, 5) for i in range(3)]
        assert coin.reconstruct(5, shares) == coin.reconstruct(5, shares)

    def test_rounds_differ(self):
        coin = self.make()
        values = {
            coin.reconstruct(r, [coin.share(i, r) for i in range(3)]) for r in range(10)
        }
        assert len(values) == 10

    def test_insufficient(self):
        coin = self.make()
        with pytest.raises(InsufficientShares):
            coin.reconstruct(5, [coin.share(0, 5)])

    def test_invalid_shares_not_counted(self):
        coin = self.make()
        bogus = CoinShare(author=1, round=5, value=b"\x00" * 32)
        with pytest.raises(InsufficientShares):
            coin.reconstruct(5, [coin.share(0, 5), bogus, coin.share(2, 5)])

    def test_share_verification(self):
        coin = self.make()
        assert coin.verify_share(coin.share(2, 8))
        assert not coin.verify_share(CoinShare(author=2, round=8, value=b"nope"))

    def test_leader_election_uniformity(self):
        """Leaders drawn over many rounds should cover the committee."""
        coin = self.make(n=10, threshold=7)
        leaders = {
            coin.leader(r, [coin.share(i, r) for i in range(7)], committee_size=10)
            for r in range(200)
        }
        assert leaders == set(range(10))

    def test_leader_offset_shifts(self):
        coin = self.make()
        shares = [coin.share(i, 3) for i in range(3)]
        base = coin.leader(3, shares, committee_size=4, offset=0)
        shifted = coin.leader(3, shares, committee_size=4, offset=1)
        assert shifted == (base + 1) % 4


# ----------------------------------------------------------------------
# The verified-share memo: a verdict is remembered, never changed
# ----------------------------------------------------------------------
def fast_share(seed: bytes, author: int, round_number: int) -> CoinShare:
    """``FastCoin``'s share from scratch: the MAC of its author and round
    under the seed."""
    value = hash_parts(
        [seed, author.to_bytes(4, "little"), round_number.to_bytes(8, "little")],
        person=b"fastcoin-shr",
    )
    return CoinShare(author=author, round=round_number, value=value)


class CountingChecks:
    """Counts how often a coin checks a share from scratch."""

    def __init__(self, monkeypatch, cls):
        self.calls = 0
        check = cls._check_share

        def counted(coin, share):
            self.calls += 1
            return check(coin, share)

        monkeypatch.setattr(cls, "_check_share", counted)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),  # author
            st.integers(0, 2 * SHARE_MEMO_ROUNDS + 3),  # round
            st.sampled_from(["valid", "forged", "forged-first", "proposed"]),
        ),
        max_size=80,
    )
)
def test_fast_coin_memo_gives_the_uncached_verdict(calls):
    """Valid shares, forged ones carrying a verified share's author and
    round (before and after it was verified), and the coin's own shares,
    over more rounds than the memo keeps: every verdict is the one the
    check from scratch gives, and the memo stays within its bound."""
    seed = b"memo"
    coin = FastCoin(seed=seed, n=6, threshold=4)
    for author, round_number, kind in calls:
        share = fast_share(seed, author, round_number)
        forged = share._replace(value=bytes(32))
        if kind == "proposed":
            assert coin.share(author, round_number) == share
            shares = [share]
        elif kind == "valid":
            shares = [share]
        elif kind == "forged":
            shares = [share, forged]
        else:
            shares = [forged, share, forged]
        for candidate in shares:
            assert coin.verify_share(candidate) is (candidate == share)
        assert len(coin.verified) <= SHARE_MEMO_ROUNDS * 6


def test_threshold_coin_memo_gives_the_uncached_verdict(threshold_coins):
    """The memoized verdict equals a fresh coin's (no memo) for valid
    shares, forged ones, and forged ones carrying a verified share's
    author and round — in both orders."""
    coin = threshold_coins[0]
    valid = [threshold_coins[i].share(i, 40 + i) for i in range(4)]
    forged = [
        share._replace(value=share.value[:-1] + bytes([share.value[-1] ^ 1])) for share in valid
    ]
    for share in valid[:2] + forged + valid[2:] + forged + valid:
        fresh = ThresholdCoin(coin._setup)
        assert coin.verify_share(share) is fresh.verify_share(share)


def test_a_forged_share_with_a_verified_authors_round_still_raises(threshold_coins):
    """The memo keys a verdict by the value that verified, so a share
    that copies a verified one's author and round but not its value is
    checked, fails, and fails the reconstruction."""
    coin = threshold_coins[0]
    good = [threshold_coins[i].share(i, 61) for i in range(3)]
    assert all(coin.verify_share(share) for share in good)
    forged = good[2]._replace(value=threshold_coins[2].share(2, 62).value)
    assert not coin.verify_share(forged)
    with pytest.raises(InvalidShare):
        coin.reconstruct(61, good[:2] + [forged])
    assert coin.reconstruct(61, good) == threshold_coins[3].reconstruct(61, good)


def test_threshold_coin_checks_a_share_once(threshold_coins, monkeypatch):
    """A runtime validator checks a share at ingest and again in every
    reconstruction: with the memo, the check runs once per share."""
    coin = ThresholdCoin(threshold_coins[0]._setup)
    checks = CountingChecks(monkeypatch, ThresholdCoin)
    shares = [threshold_coins[i].share(i, 70) for i in range(4)]
    for share in shares:  # ingest
        assert coin.verify_share(share)
    first = coin.reconstruct(70, shares)
    assert coin.reconstruct(70, shares[1:]) == first
    assert checks.calls == 4


def test_an_evicted_round_is_checked_again_with_the_same_verdict(monkeypatch):
    coin = FastCoin(seed=b"evict", n=4, threshold=3)
    producer = FastCoin(seed=b"evict", n=4, threshold=3)
    checks = CountingChecks(monkeypatch, FastCoin)
    shares = [producer.share(1, r) for r in range(SHARE_MEMO_ROUNDS + 1)]
    for share in shares:
        assert coin.verify_share(share)
    assert checks.calls == SHARE_MEMO_ROUNDS + 1
    assert coin.verify_share(shares[-1])  # still remembered
    assert checks.calls == SHARE_MEMO_ROUNDS + 1
    assert coin.verify_share(shares[0])  # round 0 went first: checked again
    assert checks.calls == SHARE_MEMO_ROUNDS + 2
    assert len(coin.verified) == SHARE_MEMO_ROUNDS
