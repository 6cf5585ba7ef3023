"""Tests for the wire format of :mod:`repro.messages`."""

import pytest

from repro.block import Block, BlockRef, make_genesis
from repro.crypto.coin import CoinShare
from repro.errors import TransportError
from repro.messages import (
    BlockMessage,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
    MAX_FRAME,
    SyncRequest,
    SyncResponse,
    TransactionMessage,
    decode_message,
    encode_message,
    frame,
)
from repro.statesync import Checkpoint
from repro.transaction import Transaction


def sample_block():
    genesis = make_genesis(4)
    return Block(
        author=2,
        round=1,
        parents=tuple(b.reference for b in genesis),
        transactions=(Transaction.dummy(5),),
        coin_share=CoinShare(author=2, round=1, value=b"\x33" * 32),
        signature=b"signature",
    )


class TestRoundtrips:
    def test_block_message(self):
        message = BlockMessage(block=sample_block())
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert decoded.block.digest == message.block.digest

    def test_fetch_request(self):
        refs = tuple(b.reference for b in make_genesis(4))
        decoded = decode_message(encode_message(FetchRequest(refs=refs)))
        assert decoded == FetchRequest(refs=refs)

    def test_empty_fetch_request(self):
        decoded = decode_message(encode_message(FetchRequest(refs=())))
        assert decoded.refs == ()

    def test_fetch_response(self):
        blocks = (sample_block(), *make_genesis(2))
        decoded = decode_message(encode_message(FetchResponse(blocks=blocks)))
        assert decoded == FetchResponse(blocks=blocks)

    def test_checkpoint_request(self):
        decoded = decode_message(encode_message(CheckpointRequest()))
        assert decoded == CheckpointRequest()

    def test_checkpoint_response(self):
        checkpoint = Checkpoint(
            round=24,
            floor=8,
            next_slot=(25, 1),
            chain=b"\x11" * 32,
            sequence_length=37,
            committee_size=4,
            linearized=tuple(b.reference for b in make_genesis(3)),
            epochs=((0, 0, (0, 1, 2, 3)), (1, 40, (0, 1, 2, 3, 4))),
        )
        message = CheckpointResponse(checkpoints=(checkpoint,))
        decoded = decode_message(encode_message(message))
        assert decoded == message
        # Adoption matches on the content address, so it must survive
        # the trip byte-for-byte.
        assert decoded.checkpoints[0].checkpoint_id == checkpoint.checkpoint_id

    def test_sync_request(self):
        refs = tuple(b.reference for b in make_genesis(4))
        message = SyncRequest(refs=refs, floor=12, token=0xDEADBEEF)
        assert decode_message(encode_message(message)) == message

    def test_sync_request_negative_floor(self):
        # Floor is signed: "no horizon yet" is expressed as -1.
        message = SyncRequest(refs=(), floor=-1, token=1)
        assert decode_message(encode_message(message)) == message

    def test_sync_response(self):
        genesis = make_genesis(4)
        message = SyncResponse(
            blocks=(sample_block(),),
            pruned=(genesis[0].reference, genesis[2].reference),
            token=7,
        )
        assert decode_message(encode_message(message)) == message

    def test_transaction_message(self):
        transactions = (
            Transaction.dummy(1, submitted_at=123.5),
            Transaction(tx_id=2, payload=b"reconfig-ish"),
        )
        message = TransactionMessage(transactions=transactions)
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert decoded.transactions[0].submitted_at == 123.5


class TestErrors:
    def test_empty_buffer_rejected(self):
        with pytest.raises(TransportError):
            decode_message(b"")

    def test_unknown_kind_rejected(self):
        with pytest.raises(TransportError):
            decode_message(b"\xff\x00\x00")

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"\x02" + b"\xff" * 4, id="fetch-request"),
            pytest.param(b"\x03" + b"\xff" * 4, id="fetch-response"),
            pytest.param(b"\x05" + b"\xff" * 4, id="checkpoint-response"),
            pytest.param(b"\x06" + bytes(16) + b"\xff" * 4, id="sync-request"),
            pytest.param(b"\x07" + bytes(8) + b"\xff" * 4 + bytes(4), id="sync-response-blocks"),
            pytest.param(b"\x07" + bytes(12) + b"\xff" * 4, id="sync-response-pruned"),
            pytest.param(b"\x03\x01\x00\x00\x00" + b"\xff" * 4, id="block-length"),
        ],
    )
    def test_overdeclared_count_fails_before_anything_is_decoded_for_it(self, body, monkeypatch):
        """Four billion declared items (or bytes) in a handful of real
        ones: rejected on the count alone — no item decoder runs, and
        no loop or buffer is sized by it."""

        def unreachable(*args, **kwargs):
            raise AssertionError("decoded an item of an impossible count")

        monkeypatch.setattr(Block, "decode", unreachable)
        monkeypatch.setattr(BlockRef, "decode", unreachable)
        monkeypatch.setattr(Checkpoint, "decode", unreachable)
        with pytest.raises(TransportError, match="holds fewer"):
            decode_message(body + bytes(40))

    @pytest.mark.parametrize("kind", [2, 3, 5, 6, 7])
    def test_truncated_count_or_header_is_a_transport_error(self, kind):
        for tail in (b"", b"\x01", b"\x01\x00\x00"):
            with pytest.raises(TransportError):
                decode_message(bytes([kind]) + tail)

    def test_a_malformed_nested_item_is_a_transport_error_too(self):
        # One block of five bytes: the count and the length are honest,
        # the block is not one.
        with pytest.raises(TransportError, match="malformed message of kind 3"):
            decode_message(b"\x03\x01\x00\x00\x00\x05\x00\x00\x00" + bytes(5))

    def test_oversized_frame_rejected(self):
        with pytest.raises(TransportError):
            frame(b"\x00" * (MAX_FRAME + 1))

    def test_frame_prefixes_length(self):
        framed = frame(b"abc")
        assert framed[:4] == (3).to_bytes(4, "little")
        assert framed[4:] == b"abc"
