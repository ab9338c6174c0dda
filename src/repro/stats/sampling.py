"""Sampling strategies beyond the paper's plain Monte Carlo estimator.

The paper draws a fixed-size uniform random sample for every point of the
search space.  Three practical refinements are implemented here (they are used
by the sample-size ablation benchmark and available through the public API):

* **bootstrap confidence intervals** — percentile intervals that do not lean on
  the CLT normality assumption, useful because sub-problem solving times are
  heavily right-skewed;
* **sequential (adaptive) estimation** — keep drawing observations until the
  relative half-width of the confidence interval falls below a target, instead
  of fixing ``N`` in advance; Section 2's discussion of choosing ``N`` "large
  enough" is exactly this trade-off;
* **stratified sampling over a decomposition variable** — split the assignment
  space on the values of one chosen variable and sample each stratum
  separately; with proportional allocation the estimator's variance never
  exceeds plain Monte Carlo and shrinks when the strata differ.

Seed spawn discipline
---------------------

Parallel Monte Carlo estimation must not thread one RNG through concurrently
executing tasks: the ``j``-th draw would then depend on how many draws every
other worker has already made, so the sampled trajectory would change with the
execution interleaving (and with the worker count).  The functions
:func:`derive_child_seeds` and :func:`child_rng` implement the spawn
discipline the scheduler (:mod:`repro.runner.scheduler`) relies on instead:
every task receives its own child seed, derived deterministically from the
root seed via ``random.Random(seed).getrandbits(64)``, and draws from a
private ``random.Random(child_seed)``.  Sample ``j`` therefore depends only on
``(seed, j)`` — never on scheduling order — which is what makes parallel and
serial estimation produce bit-identical trajectories.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.stats.montecarlo import MonteCarloEstimate, sample_statistics

#: Bit width of spawned child seeds.  64 bits keeps the collision probability
#: over any realistic task count negligible (~2^-24 at a billion tasks).
CHILD_SEED_BITS = 64


def derive_child_seeds(seed: int, count: int) -> list[int]:
    """Spawn ``count`` independent child seeds from one root seed.

    The spawn discipline is ``random.Random(seed).getrandbits(64)`` repeated:
    child ``j`` is the ``j``-th 64-bit draw from a generator seeded with the
    root seed alone, so the sequence is a pure function of ``seed`` —
    independent of ``PYTHONHASHSEED``, platform, and of whichever child
    streams are actually consumed, in which order, by which worker.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    root = random.Random(seed)
    return [root.getrandbits(CHILD_SEED_BITS) for _ in range(count)]


def child_seed(seed: int, index: int) -> int:
    """The ``index``-th child seed of ``seed`` (see :func:`derive_child_seeds`)."""
    if index < 0:
        raise ValueError("index must be non-negative")
    return derive_child_seeds(seed, index + 1)[index]


def child_rng(seed: int, index: int) -> random.Random:
    """A private RNG for task ``index``, seeded by the spawn discipline."""
    return random.Random(child_seed(seed, index))


#: ``random.Random.getrandbits(2)`` is the top two bits of one 32-bit word of
#: the generator's stream; a word whose top byte is below 128 gives the bit
#: ``byte >> 6``, and any other word is redrawn.
_BIT_OF_TOP_BYTE = bytes(byte >> 6 for byte in range(256))
_REDRAWN_TOP_BYTES = bytes(range(128, 256))


def random_bits(rng: random.Random, width: int) -> tuple[int, ...]:
    """``width`` uniform bits drawn from ``rng``: the draw behind every random sample.

    Equal to ``tuple(rng.randint(0, 1) for _ in range(width))``, and leaves
    ``rng`` in the same state.  ``randint(0, 1)`` takes ``getrandbits(2)``,
    the top two bits of the stream's next 32-bit word, and draws again while
    they read 2 or 3.  This takes the words the remaining bits need at
    least, ``getrandbits(32 * k)`` at a time (first word lowest), keeps the
    bits of the words that ``randint`` accepts, and repeats for the words
    it would have redrawn, so no word past the last accepted one is drawn.
    The rows of :meth:`DecompositionSet.random_sample
    <repro.core.decomposition.DecompositionSet.random_sample>` (the random
    sample (4) of every evaluation, drawn in one call) and
    :func:`sample_bits` come from here.
    """
    bits = b""
    while len(bits) < width:
        need = width - len(bits)
        words = rng.getrandbits(need << 5).to_bytes(need << 2, "little")
        bits += words[3::4].translate(_BIT_OF_TOP_BYTE, _REDRAWN_TOP_BYTES)
    return tuple(bits)


def sample_bits(task_seed: int, width: int) -> tuple[int, ...]:
    """Draw one task's uniform bit vector of length ``width`` from its child seed.

    The bits of sample ``j`` are a pure function of its child seed
    (``derive_child_seeds(root, n)[j]``), so a parallel run samples exactly
    the assignments a serial run would, regardless of completion order or
    worker count.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    return random_bits(random.Random(task_seed), width)


def bootstrap_confidence_interval(
    observations: Sequence[float],
    confidence_level: float = 0.95,
    num_resamples: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean of ``observations``."""
    if not observations:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence_level < 1.0:
        raise ValueError("confidence_level must be in (0, 1)")
    if num_resamples < 10:
        raise ValueError("num_resamples must be at least 10")
    rng = random.Random(seed)
    n = len(observations)
    means = []
    for _ in range(num_resamples):
        resample = [observations[rng.randrange(n)] for _ in range(n)]
        means.append(sum(resample) / n)
    means.sort()
    alpha = (1.0 - confidence_level) / 2.0
    low_index = max(0, int(alpha * num_resamples))
    high_index = min(num_resamples - 1, int((1.0 - alpha) * num_resamples))
    return means[low_index], means[high_index]


@dataclass
class SequentialEstimate:
    """Result of sequential (adaptive) Monte Carlo estimation."""

    estimate: MonteCarloEstimate
    observations: list[float]
    converged: bool

    @property
    def sample_size(self) -> int:
        """Number of observations actually drawn."""
        return len(self.observations)


def sequential_estimate(
    draw: Callable[[int], float],
    target_relative_error: float = 0.1,
    confidence_level: float = 0.95,
    min_samples: int = 10,
    max_samples: int = 10_000,
    batch_size: int = 10,
) -> SequentialEstimate:
    """Draw observations until the CLT relative error drops below the target.

    ``draw(i)`` returns the ``i``-th observation (e.g. the cost of solving the
    ``i``-th random sub-problem).  Sampling always performs at least
    ``min_samples`` draws and stops at ``max_samples`` even without
    convergence (``converged`` is False in that case).
    """
    if target_relative_error <= 0:
        raise ValueError("target_relative_error must be positive")
    if min_samples < 2:
        raise ValueError("min_samples must be at least 2")
    if max_samples < min_samples:
        raise ValueError("max_samples must be at least min_samples")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")

    observations: list[float] = []
    converged = False
    while len(observations) < max_samples:
        take = min(batch_size, max_samples - len(observations))
        for _ in range(take):
            observations.append(float(draw(len(observations))))
        if len(observations) < min_samples:
            continue
        estimate = sample_statistics(observations, confidence_level)
        if estimate.relative_error <= target_relative_error:
            converged = True
            break
    estimate = sample_statistics(observations, confidence_level)
    return SequentialEstimate(estimate=estimate, observations=observations, converged=converged)


@dataclass
class StratifiedEstimate:
    """Combined estimate of a two-stratum stratified sampling experiment."""

    strata: list[MonteCarloEstimate]
    weights: list[float]
    confidence_level: float = 0.95

    @property
    def mean(self) -> float:
        """Weighted combination of the stratum means."""
        return sum(w * s.mean for w, s in zip(self.weights, self.strata))

    @property
    def variance_of_mean(self) -> float:
        """Variance of the stratified estimator of the mean."""
        total = 0.0
        for weight, stratum in zip(self.weights, self.strata):
            if stratum.sample_size > 0:
                total += (weight**2) * stratum.variance / stratum.sample_size
        return total

    @property
    def std_error(self) -> float:
        """Standard error of the stratified mean."""
        return self.variance_of_mean**0.5

    def scaled(self, factor: float) -> "StratifiedEstimate":
        """The estimate of ``factor · ξ`` (used to turn means into totals)."""
        return StratifiedEstimate(
            strata=[s.scaled(factor) for s in self.strata],
            weights=list(self.weights),
            confidence_level=self.confidence_level,
        )


def stratified_estimate(
    samples_per_stratum: Sequence[Sequence[float]],
    weights: Sequence[float] | None = None,
    confidence_level: float = 0.95,
) -> StratifiedEstimate:
    """Combine per-stratum observations into a stratified estimate.

    ``weights`` are the probabilities of the strata (they must sum to 1); the
    default assigns equal weights, which matches stratifying on the value of a
    single uniformly distributed decomposition variable.
    """
    if not samples_per_stratum:
        raise ValueError("at least one stratum is required")
    if weights is None:
        weights = [1.0 / len(samples_per_stratum)] * len(samples_per_stratum)
    if len(weights) != len(samples_per_stratum):
        raise ValueError("weights and strata must have the same length")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    strata = [sample_statistics(obs, confidence_level) for obs in samples_per_stratum]
    return StratifiedEstimate(strata=strata, weights=list(weights), confidence_level=confidence_level)
