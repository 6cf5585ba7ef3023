"""Tests for the validator state machine (:class:`MahiMahiCore`)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Block, make_genesis
from repro.committee import Committee, CommitteeSchedule
from repro.config import ProtocolConfig
from repro.core.protocol import MahiMahiCore
from repro.crypto.coin import FastCoin
from repro.crypto.signing import NullSignatureScheme, generate_keys
from repro.dag.validation import BlockVerifier
from repro.transaction import Transaction

from ..helpers import committed_blocks, record_commits
from ..statesync.test_checkpoint import drive_rounds, make_core


def make_cores(n=4, wave=5, leaders=2, gc=0, max_txs=10_000):
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"core-test", n=n, threshold=committee.quorum_threshold)
    config = ProtocolConfig(
        wave_length=wave,
        leaders_per_round=leaders,
        garbage_collection_depth=gc,
        max_block_transactions=max_txs,
    )
    return [MahiMahiCore(i, committee, config, coin) for i in range(n)], committee


def run_lockstep(cores, rounds, txs_per_step=0):
    tx_id = 1
    for _ in range(rounds):
        blocks = []
        for core in cores:
            for _ in range(txs_per_step):
                core.add_transaction(Transaction.dummy(tx_id))
                tx_id += 1
            block = core.maybe_propose()
            if block is not None:
                blocks.append(block)
        for block in blocks:
            for core in cores:
                if core.authority != block.author:
                    core.add_block(block)
        for core in cores:
            core.try_commit()


class TestProposing:
    def test_first_proposal_is_round_one(self):
        cores, _ = make_cores()
        block = cores[0].maybe_propose()
        assert block is not None and block.round == 1
        assert block.parents[0].author == 0  # own genesis first

    def test_no_proposal_without_quorum(self):
        cores, _ = make_cores()
        cores[0].maybe_propose()
        assert cores[0].maybe_propose() is None  # round 1 lacks quorum

    def test_proposal_after_quorum(self):
        cores, _ = make_cores()
        blocks = [core.maybe_propose() for core in cores]
        for block in blocks[1:3]:  # deliver 2 peers -> 3 authors incl. self
            cores[0].add_block(block)
        follow_up = cores[0].maybe_propose()
        assert follow_up is not None and follow_up.round == 2

    def test_proposal_includes_quorum_of_previous_round(self):
        cores, committee = make_cores()
        run_lockstep(cores, 5)
        block = cores[0].store.round_blocks(5)[0]
        previous_authors = {p.author for p in block.parents if p.round == 4}
        assert len(previous_authors) >= committee.quorum_threshold

    def test_mempool_drained_into_block(self):
        cores, _ = make_cores()
        for i in range(5):
            cores[0].add_transaction(Transaction.dummy(i + 1))
        block = cores[0].maybe_propose()
        assert len(block.transactions) == 5
        assert len(cores[0].mempool) == 0

    def test_block_transaction_cap_respected(self):
        cores, _ = make_cores(max_txs=3)
        for i in range(10):
            cores[0].add_transaction(Transaction.dummy(i + 1))
        block = cores[0].maybe_propose()
        assert len(block.transactions) == 3
        assert len(cores[0].mempool) == 7

    def test_proposal_carries_coin_share(self):
        cores, _ = make_cores()
        block = cores[0].maybe_propose()
        assert block.coin_share is not None
        assert block.coin_share.author == 0
        assert block.coin_share.round == 1

    def test_signing_callback_applied(self):
        committee = Committee.of_size(4)
        scheme = NullSignatureScheme()
        keys = generate_keys(scheme, 4)
        committee = Committee.of_size(4, public_keys=[k.public_key for k in keys])
        coin = FastCoin(seed=b"s", n=4, threshold=3)
        core = MahiMahiCore(
            0,
            committee,
            ProtocolConfig(),
            coin,
            sign=lambda data: scheme.sign(keys[0].private_key, data),
        )
        block = core.maybe_propose()
        assert scheme.verify(keys[0].public_key, block.digest, block.signature)

    def test_late_tips_swept_into_later_proposal(self):
        """A block arriving late (older round) is referenced by the next
        proposal so its transactions still commit (Theorem 3's path)."""
        cores, _ = make_cores()
        run_lockstep(cores[:3] + [], 0)
        # Validators 0-2 advance 3 rounds without validator 3.
        for _ in range(3):
            blocks = [c.maybe_propose() for c in cores[:3]]
            for b in blocks:
                for c in cores[:3]:
                    if c.authority != b.author:
                        c.add_block(b)
        # Validator 3's round-1 block arrives late at validator 0.
        late = cores[3].maybe_propose()
        cores[0].add_block(late)
        next_block = cores[0].maybe_propose()
        assert late.reference in next_block.parents


    def test_parents_over_an_equivocating_sibling_tip_and_an_older_tip(self):
        """The tips are kept by set operations on a block's parent
        digests; the proposal they feed is, byte for byte, the one the
        per-reference loop produced: own block, the first-seen block of
        each previous-round author, then the older tips in reference
        order — here an equivocating sibling nobody built on and a
        straggler's block, both from round 1."""

        class PerReferenceTips(MahiMahiCore):
            def _track_tips(self, block):
                for ref in block.parents:
                    self._tips.pop(ref.digest, None)
                self._tips[block.digest] = block.reference

        committee = Committee.of_size(4)
        coin = FastCoin(seed=b"core-test", n=4, threshold=3)
        ours, reference = (
            cls(0, committee, ProtocolConfig(), coin) for cls in (MahiMahiCore, PerReferenceTips)
        )
        genesis = tuple(b.reference for b in make_genesis(4))

        def peer_block(author, round_number, parents, salt=b""):
            return Block(
                author=author,
                round=round_number,
                parents=parents,
                coin_share=coin.share(author, round_number),
                salt=salt,
            )

        first = {a: peer_block(a, 1, genesis) for a in (1, 2, 3)}
        sibling = peer_block(1, 1, genesis, salt=b"fork")
        proposals = []
        for core in (ours, reference):
            own_1 = core.maybe_propose()
            for block in (first[1], sibling, first[2]):
                assert core.add_block(block).accepted
            own_2 = core.maybe_propose()
            assert own_2.parents == (own_1.reference, first[1].reference, first[2].reference)
            second = {
                a: peer_block(a, 2, (first[a].reference, own_1.reference, first[3 - a].reference))
                for a in (1, 2)
            }
            for block in (second[1], first[3], second[2]):  # the straggler arrives late
                assert core.add_block(block).accepted
            own_3 = core.maybe_propose()
            assert own_3.parents == (
                own_2.reference,
                second[1].reference,
                second[2].reference,
                sibling.reference,
                first[3].reference,
            )
            proposals.append(own_3)
        assert proposals[0].digest == proposals[1].digest
        assert b"".join(ref.encode() for ref in proposals[0].parents) == b"".join(
            ref.encode() for ref in proposals[1].parents
        )
        assert list(ours._tips) == list(reference._tips)


class TestIngestion:
    def test_duplicate_block_ignored(self):
        cores, _ = make_cores()
        block = cores[0].maybe_propose()
        assert cores[1].add_block(block).accepted == (block,)
        assert cores[1].add_block(block).accepted == ()

    def test_out_of_order_blocks_buffered_and_flushed(self):
        cores, _ = make_cores()
        round1 = [core.maybe_propose() for core in cores]
        for block in round1:
            for core in cores:
                if core.authority != block.author:
                    core.add_block(block)
        round2 = cores[1].maybe_propose()
        fresh, _ = make_cores()
        receiver = fresh[0]
        result = receiver.add_block(round2)  # parents unknown
        assert result.accepted == ()
        assert {r.author for r in result.missing} == {0, 1, 2, 3} - {receiver.authority} | {0}
        for block in round1:
            receiver.add_block(block)
        assert round2.digest in receiver.store

    def test_block_behind_a_buffered_parent_waits_for_it(self):
        """A block whose parents are stored or buffered — none missing —
        is buffered too, asks for nothing, and enters the DAG with the
        chain once the first link arrives."""
        cores, _ = make_cores()
        chain = []
        for _ in range(3):
            blocks = [core.maybe_propose() for core in cores]
            for block in blocks:
                for core in cores:
                    if core.authority != block.author:
                        core.add_block(block)
            chain.append(blocks[1])
        receiver = make_cores()[0][0]
        round1 = list(cores[0].store.round_blocks(1))
        for block in round1:
            if block.author != 1:
                receiver.add_block(block)
        for block in cores[0].store.round_blocks(2):  # all built on the missing block
            result = receiver.add_block(block)
            assert result.accepted == () and [ref.author for ref in result.missing] == [1]
        third = receiver.add_block(chain[2])  # every parent is buffered
        assert third.accepted == () and third.missing == ()
        assert receiver.pending_count == 5
        flushed = receiver.add_block(chain[0]).accepted
        assert flushed[0] == chain[0] and flushed[-1] == chain[2] and len(flushed) == 6
        assert receiver.pending_count == 0

    def test_rejected_block_with_verifier(self):
        committee = Committee.of_size(4)
        scheme = NullSignatureScheme()
        keys = generate_keys(scheme, 4)
        committee = Committee.of_size(4, public_keys=[k.public_key for k in keys])
        coin = FastCoin(seed=b"s", n=4, threshold=3)
        verifier = BlockVerifier(committee, scheme, coin)
        core = MahiMahiCore(0, committee, ProtocolConfig(), coin, verifier=verifier)
        unsigned = Block(
            author=1,
            round=1,
            parents=tuple(b.reference for b in make_genesis(4)),
            coin_share=coin.share(1, 1),
        )
        result = core.add_block(unsigned)
        assert result.rejected
        assert unsigned.digest not in core.store


class TestCommitting:
    def test_lockstep_commits_transactions(self):
        cores, _ = make_cores()
        commits = record_commits(cores[0])
        run_lockstep(cores, 15, txs_per_step=1)
        committed = committed_blocks(commits)
        assert committed
        tx_ids = [tx.tx_id for b in committed for tx in b.transactions]
        assert len(tx_ids) == len(set(tx_ids))

    def test_all_validators_agree(self):
        cores, _ = make_cores()
        logs = [record_commits(c) for c in cores]
        run_lockstep(cores, 15, txs_per_step=1)
        sequences = [[b.digest for b in committed_blocks(log)] for log in logs]
        shortest = min(len(s) for s in sequences)
        assert shortest > 0
        for sequence in sequences:
            assert sequence[:shortest] == sequences[0][:shortest]

    @pytest.mark.parametrize("wave", [4, 5])
    def test_commit_latency_in_rounds(self, wave):
        """A round-1 leader block commits once round ``wave`` blocks
        are in the DAG — w message delays (the headline claim)."""
        cores, _ = make_cores(wave=wave, leaders=1)
        steps_needed = None
        for step in range(1, 12):
            blocks = [c.maybe_propose() for c in cores]
            for b in blocks:
                for c in cores:
                    if c.authority != b.author:
                        c.add_block(b)
            if cores[0].try_commit() and steps_needed is None:
                steps_needed = step
        assert steps_needed == wave

    def test_gc_prunes_store(self):
        cores, _ = make_cores(gc=8)
        run_lockstep(cores, 40)
        store = cores[0].store
        assert store.lowest_round > 0
        assert store.highest_round - store.lowest_round < 40

    def test_gc_does_not_affect_commits(self):
        pruned, _ = make_cores(gc=8)
        unpruned, _ = make_cores(gc=0)
        logs = [record_commits(pruned[0]), record_commits(unpruned[0])]
        run_lockstep(pruned, 30, txs_per_step=1)
        # Re-seed tx ids for the second cluster: ids just need to match.
        run_lockstep(unpruned, 30, txs_per_step=1)
        a, b = ([block.slot for block in committed_blocks(log)] for log in logs)
        assert a == b


# ----------------------------------------------------------------------
# quorum_round: kept as blocks enter, against the scan it replaced
# ----------------------------------------------------------------------
def scanned_quorum_round(core) -> int:
    """``quorum_round`` as it was before the core kept it: a scan down
    from the top round on every call (the oracle)."""
    store = core.store
    schedule = core.schedule
    r = store.highest_round
    if schedule.is_static and schedule.genesis_committee.size >= schedule.provisioned:
        quorum = schedule.genesis_committee.quorum_threshold
        while r > 0 and store.num_authors_at_round(r) < quorum:
            r -= 1
        return r
    while r > 0:
        committee = schedule.committee_at(r)
        if committee.count_members(store.authors_at_round(r)) >= committee.quorum_threshold:
            break
        r -= 1
    return r


def assert_quorum_round(core) -> None:
    assert core.quorum_round() == scanned_quorum_round(core)


def lockstep_dag() -> list[Block]:
    """Every block of eight lockstep rounds of four validators, plus a
    ninth round that only two of them reached (short of a quorum)."""
    cores, _ = make_cores()
    run_lockstep(cores, 8)
    stragglers = [cores[author].maybe_propose() for author in (1, 2)]
    return [block for block in cores[0].store if block.round > 0] + stragglers


LOCKSTEP_DAG = lockstep_dag()


class TestQuorumRound:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_equals_the_scan_after_every_insertion_in_any_order(self, rng, propose):
        """Blocks arriving in any order — most of them buffered behind a
        missing parent and released later — and the receiver's own
        proposals in between."""
        blocks = list(LOCKSTEP_DAG)
        rng.shuffle(blocks)
        receiver = make_cores()[0][3]
        assert_quorum_round(receiver)
        buffered = 0
        for block in blocks:
            buffered += bool(receiver.add_block(block).missing)
            assert_quorum_round(receiver)
            if propose and receiver.maybe_propose() is not None:
                assert_quorum_round(receiver)
        assert receiver.pending_count == 0 and receiver.quorum_round() >= 8
        assert buffered or blocks == sorted(blocks, key=lambda block: block.round)

    def test_follows_garbage_collection_and_a_store_pruned_past_it(self):
        cores, _ = make_cores(gc=4)
        for _ in range(30):
            run_lockstep(cores, 1)
            for core in cores:
                assert_quorum_round(core)
        store = cores[0].store
        assert store.lowest_round > 0
        store.prune_below(store.highest_round + 1)
        assert cores[0].quorum_round() == scanned_quorum_round(cores[0]) == 0

    def test_the_scan_reruns_only_when_the_floor_moves(self, monkeypatch):
        scans = []
        rescan = MahiMahiCore._rescan_quorum
        monkeypatch.setattr(
            MahiMahiCore, "_rescan_quorum", lambda core: (scans.append(core), rescan(core))
        )
        cores, _ = make_cores()
        run_lockstep(cores, 12)
        assert len(scans) == len(cores)  # one each, at construction
        cores, _ = make_cores(gc=4)
        run_lockstep(cores, 12)
        floors = cores[0].store.lowest_round
        assert floors > 0 and len(scans) > 2 * len(cores)

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4))
    def test_across_checkpoint_adoption_and_a_raised_floor(self, rng, raise_by):
        sources = [make_core(i, interval=2) for i in range(4)]
        drive_rounds(sources, 24)
        checkpoint = sources[0].committer.ledger.checkpoints[-1]
        adopter = make_core(3, interval=2)
        assert_quorum_round(adopter)
        adopter.adopt_checkpoint(checkpoint)
        assert_quorum_round(adopter)
        suffix = [block for block in sources[0].store if block.round >= checkpoint.floor]
        rng.shuffle(suffix)
        half = len(suffix) // 2
        for block in suffix[:half]:
            adopter.add_block(block)
            assert_quorum_round(adopter)
        adopter.raise_sync_floor(checkpoint.floor + raise_by)
        assert_quorum_round(adopter)
        for block in suffix[half:]:
            adopter.add_block(block)
            assert_quorum_round(adopter)
        assert adopter.quorum_round() == sources[0].quorum_round()

    def test_across_an_epoch_activation_with_a_non_contiguous_committee(self):
        """Six provisioned identities, a genesis committee of four (so
        raw author counts are not member counts), then an epoch of
        ``{0, 1, 4, 5}`` activating below the top round: rounds that had
        a quorum lose it, and the newcomers' blocks bring it back."""
        coin = FastCoin(seed=b"core-test", n=6, threshold=3)
        config = ProtocolConfig(wave_length=5, leaders_per_round=2)
        cores = [
            MahiMahiCore(i, CommitteeSchedule(Committee.of_size(4), provisioned=6), config, coin)
            for i in range(6)
        ]
        quorum_rounds = []
        for step in range(14):
            if step == 6:
                activation = cores[0].store.highest_round - 1
                for core in cores:
                    core.schedule.schedule_epoch(activation, Committee.of_members((0, 1, 4, 5)))
                    assert_quorum_round(core)
            blocks = [block for block in (core.maybe_propose() for core in cores) if block]
            for core in cores:
                for block in blocks:
                    if block.author != core.authority:
                        core.add_block(block)
                        assert_quorum_round(core)
                core.try_commit()
                assert_quorum_round(core)
            quorum_rounds.append(cores[0].quorum_round())
        assert quorum_rounds[6] < quorum_rounds[5]  # the epoch took a quorum away
        assert quorum_rounds[-1] > quorum_rounds[5]  # and the new committee moved on
