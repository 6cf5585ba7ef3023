"""WAN latency models.

:data:`PAPER_REGIONS` reproduces the paper's deployment (Section 5.1):
m5d.8xlarge instances in Ohio, Oregon, Cape Town, Hong Kong and Milan,
with validators spread across regions as equally as possible.  One-way
delays are typical public inter-region measurements for those AWS pairs.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import defaultdict
from typing import Callable

#: The five regions of the paper's evaluation, in assignment order.
PAPER_REGIONS = ("us-east-2", "us-west-2", "af-south-1", "ap-east-1", "eu-south-1")

#: Typical one-way delays (seconds) between the paper's regions.
_ONE_WAY: dict[frozenset[str], float] = {
    frozenset({"us-east-2", "us-west-2"}): 0.025,
    frozenset({"us-east-2", "af-south-1"}): 0.120,
    frozenset({"us-east-2", "ap-east-1"}): 0.095,
    frozenset({"us-east-2", "eu-south-1"}): 0.050,
    frozenset({"us-west-2", "af-south-1"}): 0.145,
    frozenset({"us-west-2", "ap-east-1"}): 0.072,
    frozenset({"us-west-2", "eu-south-1"}): 0.072,
    frozenset({"af-south-1", "ap-east-1"}): 0.150,
    frozenset({"af-south-1", "eu-south-1"}): 0.075,
    frozenset({"ap-east-1", "eu-south-1"}): 0.092,
}

#: One-way delay between two machines in the same region.
_INTRA_REGION = 0.0005


#: Jitter multipliers are pre-sampled this many at a time; one RNG/exp
#: refill pass then serves a whole block of messages.
_JITTER_BLOCK = 1024


class LatencyModel(ABC):
    """Maps a (source, destination) validator pair to a one-way delay."""

    #: Sigma of the default multiplicative lognormal jitter (a few
    #: percent, as on real WAN paths).
    jitter_sigma: float = 0.05

    @abstractmethod
    def base_delay(self, src: int, dst: int) -> float:
        """Deterministic component of the one-way delay, in seconds."""

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        """One-way delay with jitter (one draw; convenience API)."""
        base = self.base_delay(src, dst)
        if self.jitter_sigma <= 0.0:
            return base
        return base * math.exp(rng.gauss(0.0, self.jitter_sigma))

    def make_sampler(self, rng: random.Random) -> Callable[[int, int], float]:
        """A fast ``(src, dst) -> delay`` closure for the network hot path.

        Base delays are memoized per source, then per destination (no
        key tuple to build per message), and jitter multipliers are
        pre-sampled in blocks of :data:`_JITTER_BLOCK`, so the per-message
        cost is a dict hit plus a list index instead of a method dispatch
        and an ``exp(gauss())`` pair.  Draws come off ``rng`` in blocks,
        so a sweep stays deterministic for a fixed seed (the draw
        *order* differs from calling :meth:`sample` per message, which
        only reshuffles jitter — never protocol logic).
        """
        # A subclass overriding sample() keeps its custom distribution:
        # the fast path below only encodes the *default* base x lognormal
        # shape, so it must not silently replace an override.
        if type(self).sample is not LatencyModel.sample:
            custom_sample = self.sample

            def sample_custom(src: int, dst: int) -> float:
                return custom_sample(src, dst, rng)

            return sample_custom

        base_cache: defaultdict[int, dict[int, float]] = defaultdict(dict)
        base_delay = self.base_delay
        sigma = self.jitter_sigma
        if sigma <= 0.0:

            def sample_fast(src: int, dst: int) -> float:
                delay = base_cache[src].get(dst)
                if delay is None:
                    delay = base_cache[src][dst] = base_delay(src, dst)
                return delay

            return sample_fast

        gauss = rng.gauss
        exp = math.exp
        jitter: list[float] = []
        cursor = _JITTER_BLOCK  # force a refill on first use

        def sample_jittered(src: int, dst: int) -> float:
            nonlocal jitter, cursor
            delay = base_cache[src].get(dst)
            if delay is None:
                delay = base_cache[src][dst] = base_delay(src, dst)
            if cursor >= _JITTER_BLOCK:
                jitter = [exp(gauss(0.0, sigma)) for _ in range(_JITTER_BLOCK)]
                cursor = 0
            value = delay * jitter[cursor]
            cursor += 1
            return value

        return sample_jittered


class UniformLatencyModel(LatencyModel):
    """Constant one-way delay between every pair (unit tests, theory
    checks where 'message delay' should be a single number)."""

    def __init__(self, delay: float = 0.05, jitter_sigma: float = 0.0) -> None:
        self._delay = delay
        self.jitter_sigma = jitter_sigma

    def base_delay(self, src: int, dst: int) -> float:
        return self._delay if src != dst else _INTRA_REGION


class LatencyMatrixModel(LatencyModel):
    """An explicit per-region RTT matrix — the geo-distribution
    generalized beyond the paper's five fixed regions.

    ``matrix[i][j]`` is the one-way delay in seconds between regions
    ``i`` and ``j``; the diagonal holds the intra-region delay.
    Validators are spread over the regions round-robin, like the paper's
    deployment.
    """

    def __init__(
        self,
        regions: tuple[str, ...],
        matrix: tuple[tuple[float, ...], ...],
        num_validators: int,
    ) -> None:
        if len(matrix) != len(regions) or any(len(row) != len(regions) for row in matrix):
            raise ValueError(
                f"latency matrix must be {len(regions)}x{len(regions)} to match the regions"
            )
        for i in range(len(regions)):
            for j in range(len(regions)):
                if matrix[i][j] < 0:
                    raise ValueError(f"negative one-way delay for {regions[i]}->{regions[j]}")
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError(
                        f"latency matrix must be symmetric "
                        f"({regions[i]}<->{regions[j]} disagrees)"
                    )
        self._assignment = tuple(i % len(regions) for i in range(num_validators))
        self._matrix = matrix

    def base_delay(self, src: int, dst: int) -> float:
        return self._matrix[self._assignment[src]][self._assignment[dst]]


def _matrix_from_pairs(
    regions: tuple[str, ...], one_way: dict[frozenset[str], float], intra: float = _INTRA_REGION
) -> tuple[tuple[float, ...], ...]:
    return tuple(
        tuple(intra if a == b else one_way[frozenset({a, b})] for b in regions)
        for a in regions
    )


#: Named WAN matrices selectable from an experiment config
#: (``wan_matrix=...``): ``paper-5`` is the paper's five-region
#: deployment expressed as an explicit matrix, ``global-10`` stretches
#: it with five more far-flung regions (larger RTT spread), ``metro-3``
#: is three datacenters in one metro area (sub-millisecond paths).
WAN_PRESETS: dict[str, tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]] = {
    "paper-5": (PAPER_REGIONS, _matrix_from_pairs(PAPER_REGIONS, _ONE_WAY)),
    "metro-3": (
        ("metro-a", "metro-b", "metro-c"),
        (
            (0.0002, 0.0008, 0.0010),
            (0.0008, 0.0002, 0.0009),
            (0.0010, 0.0009, 0.0002),
        ),
    ),
    "global-10": (
        (
            "us-east-2",
            "us-west-2",
            "af-south-1",
            "ap-east-1",
            "eu-south-1",
            "sa-east-1",
            "ap-southeast-2",
            "eu-north-1",
            "me-south-1",
            "ap-south-1",
        ),
        (
            (0.0005, 0.025, 0.120, 0.095, 0.050, 0.065, 0.100, 0.055, 0.085, 0.100),
            (0.025, 0.0005, 0.145, 0.072, 0.072, 0.090, 0.070, 0.080, 0.110, 0.110),
            (0.120, 0.145, 0.0005, 0.150, 0.075, 0.170, 0.160, 0.090, 0.100, 0.130),
            (0.095, 0.072, 0.150, 0.0005, 0.092, 0.155, 0.060, 0.105, 0.060, 0.045),
            (0.050, 0.072, 0.075, 0.092, 0.0005, 0.110, 0.140, 0.020, 0.060, 0.080),
            (0.065, 0.090, 0.170, 0.155, 0.110, 0.0005, 0.160, 0.120, 0.140, 0.150),
            (0.100, 0.070, 0.160, 0.060, 0.140, 0.160, 0.0005, 0.155, 0.100, 0.075),
            (0.055, 0.080, 0.090, 0.105, 0.020, 0.120, 0.155, 0.0005, 0.075, 0.090),
            (0.085, 0.110, 0.100, 0.060, 0.060, 0.140, 0.100, 0.075, 0.0005, 0.020),
            (0.100, 0.110, 0.130, 0.045, 0.080, 0.150, 0.075, 0.090, 0.020, 0.0005),
        ),
    ),
}


def wan_matrix_model(name: str, num_validators: int) -> LatencyMatrixModel:
    """Build the named preset matrix for a committee of
    ``num_validators``, spread over its regions round-robin."""
    try:
        regions, matrix = WAN_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown WAN matrix {name!r}; presets: {sorted(WAN_PRESETS)}"
        ) from None
    return LatencyMatrixModel(regions, matrix, num_validators)
