"""The simulator's cost table (:mod:`repro.sim.costs`).

The table's values and provenance tags are pinned here in literals, so
a re-fit shows up as a diff of this file; and the cost object's prices
are pinned to what the validator charged before the table existed, for
a few hand-built blocks and every message kind.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.block import Block, make_genesis
from repro.messages import (
    Ack,
    BlockMessage,
    Certificate,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
    Header,
    SyncRequest,
    SyncResponse,
)
from repro.sim import costs as costs_module
from repro.sim.costs import PROVENANCE, CostModel
from repro.sim.runner import Experiment, ExperimentConfig
from repro.statesync import WalReplay
from repro.transaction import Transaction
from tests.statesync.test_checkpoint import make_checkpoint

#: name -> (value, provenance) of every constant of the table.
TABLE = {
    "MAX_SIM_TX_RATE": (2_000.0, "budget"),
    "MAX_BLOCK_TRANSACTIONS": (100_000, "budget"),
    "tx_ingress_cost": (80e-6, "unsourced"),
    "block_base_cost": (0.3e-3, "unsourced"),
    "tx_consensus_cost": (2.5e-6, "unsourced"),
    "certified_multiplier": (2.0, "unsourced"),
    "header_cost_factor": (0.2, "unsourced"),
    "control_message_cost": (20e-6, "unsourced"),
    "wal_replay_factor": (0.25, "unsourced"),
    "ref_size": (44, "unsourced"),
    "block_header_size": (150, "unsourced"),
    "signature_size": (64, "unsourced"),
    "count_size": (4, "unsourced"),
    "bare_message_size": (16, "unsourced"),
    "message_overhead": (128, "unsourced"),
    "bandwidth": (10e9 / 8, "paper"),
    "delivery_tick": (0.0005, "budget"),
    "fifo_gap": (1e-9, "budget"),
}


class TestTable:
    def test_values_and_tags_are_pinned(self):
        default = CostModel()
        values = {
            name: getattr(costs_module, name) if name.isupper() else getattr(default, name)
            for name in PROVENANCE
        }
        assert {name: (values[name], tag) for name, tag in PROVENANCE.items()} == TABLE

    def test_every_constant_carries_a_tag(self):
        """Each name the cost object declares is a per-run input or a
        tagged constant, each numeric module constant is tagged, and
        every tag names one of them."""
        per_run = {"tx_weight", "mean_tx_size", "mixed_sizes", "model_cpu"}
        declared = set(CostModel.__annotations__)
        for name in declared:
            assert (name in per_run) != (name in PROVENANCE), name
        module = ast.parse(Path(costs_module.__file__).read_text())
        constants = set()
        for statement in module.body:
            if isinstance(statement, ast.Assign) and isinstance(statement.value, ast.Constant):
                name = statement.targets[0].id
                if type(statement.value.value) in (int, float):
                    assert name in PROVENANCE, name
                    constants.add(name)
        assert set(PROVENANCE) == (declared - per_run) | constants
        assert set(PROVENANCE.values()) <= {"paper", "fitted", "budget", "unsourced"}

    def test_only_the_varied_constants_are_fields(self):
        """A constant is a constructor field only where a test varies
        it; the rest of the table cannot be set per run."""
        assert {field.name for field in dataclasses.fields(CostModel)} == {
            "tx_weight",
            "mean_tx_size",
            "mixed_sizes",
            "model_cpu",
            "tx_ingress_cost",
            "block_base_cost",
            "tx_consensus_cost",
            "bandwidth",
            "delivery_tick",
        }

    def test_the_defaults_price_the_paper_transaction_without_cpu(self):
        default = CostModel()
        assert (default.tx_weight, default.mean_tx_size) == (1.0, 512.0)
        assert not default.mixed_sizes and not default.model_cpu
        assert default.ingress_price() is None

    def test_an_experiment_prices_its_config(self):
        config = ExperimentConfig(
            load_tps=100_000, tx_size_mix=((100, 3.0), (500, 1.0)), duration=1.0, warmup=0.0
        )
        assert Experiment(config)._costs == CostModel(
            tx_weight=50.0, mean_tx_size=200.0, mixed_sizes=True, model_cpu=True
        )


def hand_built():
    """A block with four parents and no transactions, one with seven
    parents and four transactions (two with a size of their own), and
    the genesis references."""
    refs = tuple(block.reference for block in make_genesis(10))
    empty = Block(author=1, round=1, parents=refs[:4])
    transactions = (
        Transaction(1, 0.5),
        Transaction(2, 0.5, b"", 300),
        Transaction(3, 0.75, b"", 40),
        Transaction(4, 1.0),
    )
    loaded = Block(author=2, round=1, parents=refs[:7], transactions=transactions)
    return empty, loaded, refs


#: One cost object per case: the defaults with the CPU model on; 50 real
#: transactions of 300 B per simulated one; the same, priced per size.
CASES = {
    "default": CostModel(model_cpu=True),
    "heavy": CostModel(model_cpu=True, tx_weight=50.0, mean_tx_size=300.0),
    "mixed": CostModel(model_cpu=True, tx_weight=50.0, mean_tx_size=300.0, mixed_sizes=True),
}

#: What the validator charged before the table, by case: the consensus
#: stage for (empty, empty as a header, loaded, loaded as a header),
#: uncertified then certified.
STAGE = {
    "default": (
        (0.0003, 0.0003, 0.00031, 0.00030199999999999997),
        (0.0003, 0.0003, 0.00031999999999999997, 0.00030399999999999996),
    ),
    "heavy": (
        (0.0003, 0.0003, 0.0007999999999999999, 0.00039999999999999996),
        (0.0003, 0.0003, 0.0013, 0.0005),
    ),
    "mixed": (
        (0.0003, 0.0003, 0.0007999999999999999, 0.00039999999999999996),
        (0.0003, 0.0003, 0.0013, 0.0005),
    ),
}
#: Wire bytes of the messages :func:`messages` builds, in order.
WIRE = {
    "default": (326, 2506, 2506, 64, 2698, 136, 92, 2832, 2726, 16, 96),
    "heavy": (326, 60458, 60458, 64, 60650, 136, 92, 60784, 60678, 16, 96),
    "mixed": (326, 47458, 47458, 64, 47650, 136, 92, 47784, 47678, 16, 96),
}
#: The ingress stage per simulated transaction at full speed and at a
#: slow factor of 3, and the replay of (100 blocks, 500 transactions)
#: and of (3 blocks, none).
INGRESS = {"default": (8e-05, 0.00024000000000000003), "heavy": (0.004, 0.012)}
REPLAY = {"default": (0.0078125, 0.000225), "heavy": (0.023125, 0.000225)}
INGRESS["mixed"], REPLAY["mixed"] = INGRESS["heavy"], REPLAY["heavy"]


def messages(empty, loaded, refs):
    return (
        BlockMessage(empty),
        BlockMessage(loaded),
        Header(loaded),
        Ack(loaded.digest),
        Certificate(loaded, 3),
        FetchRequest(refs[:3]),
        SyncRequest(refs[:2], floor=5, token=9),
        FetchResponse((empty, loaded)),
        SyncResponse((loaded,), pruned=refs[:5], token=9),
        CheckpointRequest(),
        CheckpointResponse((make_checkpoint(),)),
    )


@pytest.mark.parametrize("case", CASES)
class TestPricesAsBefore:
    def test_a_block_and_a_tusk_header(self, case):
        for certified, expected in zip((False, True), STAGE[case]):
            empty, loaded, _ = hand_built()  # fresh blocks: the price is memoized
            prices = tuple(
                CASES[case].stage_price(block, header, certified)
                for block in (empty, loaded)
                for header in (False, True)
            )
            assert prices == expected

    def test_each_message_kind(self, case):
        wire = tuple(map(CASES[case].wire_size, messages(*hand_built())))
        assert wire == WIRE[case]

    def test_an_ingress_arrival_and_a_wal_replay(self, case):
        costs = CASES[case]
        assert (costs.ingress_price(), costs.ingress_price(3.0)) == INGRESS[case]
        replays = (WalReplay(100, 500, 9), WalReplay(3, 0, 9))
        assert tuple(map(costs.replay_price, replays)) == REPLAY[case]
        off = dataclasses.replace(costs, model_cpu=False)
        assert off.ingress_price() is None and off.replay_price(replays[0]) == 0.0

    def test_a_hop(self, case):
        assert CASES[case].hop(1000) == (1128, 9.024e-07)
