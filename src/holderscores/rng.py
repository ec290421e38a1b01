"""Seed plumbing: one master seed, splittable counter-based streams."""

import numpy as np

from .errors import DomainError


def rng_for(seed, *path):
    """Return a Philox generator addressed by (seed, path).

    Streams with distinct paths are statistically independent, so drawn
    samples, sweep rows and Monte-Carlo replicates can each derive their own
    generator from a single master seed and stay reproducible regardless of
    execution order.  A negative seed or path entry raises
    :class:`DomainError`.
    """
    key = (int(seed),) + tuple(int(p) for p in path)
    if min(key) < 0:
        raise DomainError(f"seeds must be non-negative, got {', '.join(map(str, key))}")
    ss = np.random.SeedSequence(entropy=key[0], spawn_key=key[1:])
    return np.random.Generator(np.random.Philox(ss))
