"""Popularity samplers: uniform and Zipf (the paper's workload knobs).

§7.1 of the paper builds query workloads from two probability distributions —
one selecting the dataset graph a query is extracted from, one selecting the
seed node inside that graph — each of which is either uniform or Zipf with
parameter ``α`` (default 1.4; 1.1 and 2.0/2.4 are used in the skew studies).

The Zipf probability mass is ``p(x) ∝ x^-α`` over ranks ``1..n``; sampling
uses the inverse-CDF over precomputed cumulative weights.
"""

from __future__ import annotations

import bisect
import random
from abc import ABC, abstractmethod

__all__ = [
    "DriftingZipfSampler",
    "RankSampler",
    "UniformSampler",
    "ZipfSampler",
    "create_sampler",
]


class RankSampler(ABC):
    """Sampler over the ranks ``0..n-1`` (rank 0 is the most popular item)."""

    def __init__(self, num_items: int) -> None:
        if num_items < 1:
            raise ValueError("num_items must be positive")
        self.num_items = num_items

    @abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Draw one rank in ``[0, num_items)``."""

    @abstractmethod
    def probability(self, rank: int) -> float:
        """Probability mass of ``rank``."""


class UniformSampler(RankSampler):
    """Every rank is equally likely."""

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.num_items)

    def probability(self, rank: int) -> float:
        if not 0 <= rank < self.num_items:
            raise ValueError(f"rank {rank} out of range")
        return 1.0 / self.num_items


class ZipfSampler(RankSampler):
    """Zipf-distributed ranks: ``p(rank r) ∝ (r + 1)^-α``."""

    def __init__(self, num_items: int, alpha: float = 1.4) -> None:
        super().__init__(num_items)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        weights = [(rank + 1) ** (-alpha) for rank in range(num_items)]
        total = sum(weights)
        self._probabilities = [weight / total for weight in weights]
        self._cumulative: list[float] = []
        running = 0.0
        for probability in self._probabilities:
            running += probability
            self._cumulative.append(running)
        # Guard against floating point drift on the last bucket.
        self._cumulative[-1] = 1.0

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random())

    def probability(self, rank: int) -> float:
        if not 0 <= rank < self.num_items:
            raise ValueError(f"rank {rank} out of range")
        return self._probabilities[rank]


class DriftingZipfSampler(RankSampler):
    """Time-varying Zipf: the skew drifts and/or the hot set rotates.

    Models the non-stationary workloads of the paper's skew studies taken
    one step further: real query traffic is Zipf-like *and* its popular set
    changes over time, so the cache must keep replacing entries (§5) — a
    static popularity ranking would let one early cache fill win forever.

    Two independent axes, both optional:

    * **alpha drift** — the exponent moves linearly from ``alpha`` to
      ``alpha_end`` over ``drift_steps`` draws (then stays at
      ``alpha_end``).  The interpolation is quantised to ``resolution``
      phases so only that many :class:`ZipfSampler` tables are ever built.
    * **hot-set rotation** — every ``rotate_every`` draws the rank mapping
      shifts by ``rotate_stride``, so the identity of the most popular
      items changes while the popularity *shape* stays Zipf.

    The sampler is stateful (draw count advances the clock), so one
    instance must not be shared across streams that should be independent.
    """

    def __init__(
        self,
        num_items: int,
        alpha: float = 1.4,
        *,
        alpha_end: float | None = None,
        drift_steps: int | None = None,
        rotate_every: int | None = None,
        rotate_stride: int = 1,
        resolution: int = 16,
    ) -> None:
        super().__init__(num_items)
        if alpha_end is not None and drift_steps is None:
            raise ValueError("alpha_end requires drift_steps (the drift duration)")
        if drift_steps is not None and drift_steps < 1:
            raise ValueError("drift_steps must be positive")
        if rotate_every is not None and rotate_every < 1:
            raise ValueError("rotate_every must be positive")
        if resolution < 1:
            raise ValueError("resolution must be positive")
        self.alpha = alpha
        self.alpha_end = alpha_end
        self.drift_steps = drift_steps
        self.rotate_every = rotate_every
        self.rotate_stride = rotate_stride
        self.resolution = resolution
        self._step = 0
        #: phase index -> prebuilt ZipfSampler (lazily materialised)
        self._phases: dict[int, ZipfSampler] = {}

    # ------------------------------------------------------------------
    def _phase_of(self, step: int) -> int:
        if self.alpha_end is None:
            return 0
        progress = min(step / self.drift_steps, 1.0)
        return min(int(progress * self.resolution), self.resolution - 1)

    def _alpha_at(self, step: int) -> float:
        """Effective exponent at ``step`` (phase-quantised when drifting)."""
        if self.alpha_end is None:
            return self.alpha
        fraction = (self._phase_of(step) + 0.5) / self.resolution
        return self.alpha + (self.alpha_end - self.alpha) * fraction

    def _rotation_at(self, step: int) -> int:
        if self.rotate_every is None:
            return 0
        return (step // self.rotate_every) * self.rotate_stride % self.num_items

    def _sampler_at(self, step: int) -> ZipfSampler:
        phase = self._phase_of(step)
        sampler = self._phases.get(phase)
        if sampler is None:
            sampler = ZipfSampler(self.num_items, alpha=self._alpha_at(step))
            self._phases[phase] = sampler
        return sampler

    # ------------------------------------------------------------------
    def sample(self, rng: random.Random) -> int:
        step = self._step
        self._step += 1
        rank = self._sampler_at(step).sample(rng)
        return (rank + self._rotation_at(step)) % self.num_items

    def probability(self, rank: int) -> float:
        """Probability mass of ``rank`` at the *current* clock position."""
        if not 0 <= rank < self.num_items:
            raise ValueError(f"rank {rank} out of range")
        step = self._step
        base_rank = (rank - self._rotation_at(step)) % self.num_items
        return self._sampler_at(step).probability(base_rank)


def create_sampler(kind: str, num_items: int, alpha: float = 1.4, **drift) -> RankSampler:
    """Build a sampler by name.

    ``"uniform"`` / ``"uni"``, ``"zipf"``, or the time-varying
    ``"zipf-drift"`` / ``"drifting-zipf"`` (which accepts the
    :class:`DriftingZipfSampler` keyword arguments: ``alpha_end``,
    ``drift_steps``, ``rotate_every``, ``rotate_stride``, ``resolution``).
    """
    normalized = kind.lower()
    if normalized in ("uniform", "uni"):
        if drift:
            raise ValueError(f"uniform sampler takes no drift arguments: {sorted(drift)}")
        return UniformSampler(num_items)
    if normalized == "zipf":
        if drift:
            raise ValueError(
                f"static zipf takes no drift arguments: {sorted(drift)}; "
                "use kind='zipf-drift'"
            )
        return ZipfSampler(num_items, alpha=alpha)
    if normalized in ("zipf-drift", "drifting-zipf"):
        return DriftingZipfSampler(num_items, alpha=alpha, **drift)
    raise ValueError(
        f"unknown sampler kind {kind!r}; expected 'uniform', 'zipf' or 'zipf-drift'"
    )
