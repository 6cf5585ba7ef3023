"""Regression tests pinning adversary-scheduler target selection.

``AsyncAdversaryScheduler`` draws its per-window target set from a pure
function of the window epoch, so a sweep's adversarial delay pattern is
reproducible from the config alone; ``LeaderDosScheduler`` must delay
exactly the elected leader slots of each propose round — including
across committee resizes, where "the elected leader" is defined by the
round's *epoch* committee.  These pins keep both derivations from
drifting silently (a change invalidates every cached adversary sweep
point and must be deliberate).
"""

import functools
import random
from types import SimpleNamespace

from repro.messages import BlockMessage, FetchRequest, FetchResponse
from repro.sim.network import AsyncAdversaryScheduler, LeaderDosScheduler, Message
from repro.sim.node import Ack, Certificate, Header


def _message(src: int, body=BlockMessage, round_number: int = 0, author: int | None = None):
    """A message from ``src`` whose ``body`` type carries a stand-in
    block of ``round_number``."""
    block = SimpleNamespace(round=round_number, author=src if author is None else author)
    return Message(src=src, dst=(src + 1) % 10, body=body(block), size=100)


class TestAsyncAdversaryPinning:
    """The rotating-window draw is deterministic and pinned."""

    def test_pinned_window_targets(self):
        """The literal target sets for the first three windows at
        n=10, k=3 (the bench_fig4 adversary shape).  A drift here means
        every cached adversary point silently changed meaning."""
        scheduler = AsyncAdversaryScheduler(
            committee_size=10, targets_per_window=3, delay=0.5, window=1.0
        )
        assert sorted(scheduler._targets(0.5)) == [2, 5, 7]
        assert sorted(scheduler._targets(1.5)) == [0, 1, 6]
        assert sorted(scheduler._targets(2.5)) == [1, 3, 5]

    def test_independent_instances_agree(self):
        """Two schedulers (e.g. a run and its replay) delay the same
        messages at the same times."""
        make = lambda: AsyncAdversaryScheduler(  # noqa: E731
            committee_size=10, targets_per_window=3, delay=0.5, window=1.0
        )
        a, b = make(), make()
        rng_a, rng_b = random.Random(0), random.Random(0)
        times = [0.1, 0.9, 1.1, 2.7, 5.3, 11.2]
        for now in times:
            for src in range(10):
                message = _message(src)
                assert a.extra_delay(message, now, rng_a) == b.extra_delay(
                    message, now, rng_b
                )

    def test_window_length_scales_epochs(self):
        """Halving the window doubles the rotation rate but the epoch-e
        draw itself is window-independent (it hashes the epoch index)."""
        fast = AsyncAdversaryScheduler(10, 3, 0.5, window=0.5)
        slow = AsyncAdversaryScheduler(10, 3, 0.5, window=1.0)
        assert fast._targets(0.6) == slow._targets(1.2)  # both epoch 1


class TestLeaderDosTargeting:
    def test_targets_only_configured_slots(self):
        scheduler = LeaderDosScheduler(lambda r: (4, 2, 7), delay=1.0, slots=2)
        assert scheduler.targets(3) == (4, 2)

    def test_delays_only_the_leaders_own_blocks(self):
        """The DoS hits a targeted leader's block/cert traffic for its
        round and nothing else — not relays of the leader's block by
        other validators, not other kinds, not other rounds."""
        leaders = {5: (3,), 6: (8,)}
        scheduler = LeaderDosScheduler(
            lambda r: leaders.get(r, ()), delay=1.0, slots=1
        )
        rng = random.Random(0)
        # The leader's own block for its leader round: delayed.
        assert scheduler.extra_delay(_message(3, BlockMessage, 5), 0.0, rng) == 1.0
        assert scheduler.extra_delay(_message(3, Header, 5), 0.0, rng) == 1.0
        certificate = functools.partial(Certificate, signatures=7)
        assert scheduler.extra_delay(_message(8, certificate, 6), 0.0, rng) == 1.0
        # Another validator relaying the leader's block: untouched.
        assert scheduler.extra_delay(_message(1, BlockMessage, 5, author=3), 0.0, rng) == 0.0
        # The leader's traffic for a round it does not lead: untouched.
        assert scheduler.extra_delay(_message(3, BlockMessage, 6), 0.0, rng) == 0.0
        # Traffic from the leader that is not one block of its own:
        # untouched (an ack, a fetch request, a fetched batch).
        for body in (Ack(b"digest"), FetchRequest(refs=()), FetchResponse(blocks=())):
            message = Message(src=3, dst=4, body=body, size=100)
            assert scheduler.extra_delay(message, 0.0, rng) == 0.0

    def test_round_cache_refreshes_on_round_change(self):
        calls = []

        def resolver(round_number):
            calls.append(round_number)
            return (round_number % 10,)

        scheduler = LeaderDosScheduler(resolver, delay=1.0, slots=1)
        scheduler.targets(4)
        scheduler.targets(4)
        assert calls == [4]  # cached within a round
        scheduler.targets(5)
        assert calls == [4, 5]


class TestLeaderDosUnderEpochResize:
    def test_targets_follow_the_active_epoch_committee(self):
        """With epoch reconfiguration on, the resolver elects leaders
        from the committee of the *round's* epoch: once the committee
        grows, joined validators become targetable and the election
        modulus follows the new size."""
        from repro.sim.faults import FaultEvent
        from repro.sim.runner import Experiment, ExperimentConfig

        duration = 8.0
        config = ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=7,
            leaders_per_round=1,
            leader_dos_slots=1,
            leader_dos_delay=0.05,  # mild: the run must still commit
            load_tps=1_000.0,
            duration=duration,
            warmup=2.0,
            gc_depth=64,
            recover_mode="checkpoint",
            checkpoint_interval=2,
            fault_schedule=(
                FaultEvent(time=0.1 * duration, validator=4, kind="join"),
                FaultEvent(time=0.2 * duration, validator=5, kind="join"),
                FaultEvent(time=0.3 * duration, validator=6, kind="join"),
            ),
            seed=7,
        )
        experiment = Experiment(config)
        result = experiment.run()
        assert result.epoch_transitions >= 1
        schedule = experiment.nodes[0].core.schedule
        scheduler = experiment._make_scheduler()
        coin = experiment._coin
        wave_length = 5
        grown_round = schedule.epochs()[-1].start_round + 1
        assert schedule.committee_at(grown_round).size > 4
        seen_sizes = set()
        for propose_round in range(1, grown_round + 1):
            committee = schedule.committee_at(propose_round)
            seen_sizes.add(committee.size)
            expected = committee.leader_for(
                coin.peek(propose_round + wave_length - 1), 0
            )
            assert scheduler.targets(propose_round) == (expected,)
            assert expected in committee.members
        # The walk genuinely crossed a resize boundary.
        assert len(seen_sizes) >= 2
