"""Seed and RNG management for reproducible replication campaigns.

Every stochastic component of this package takes an explicit seed.
Replications spawn independent child streams with
``numpy.random.SeedSequence`` so runs are reproducible regardless of how
they are distributed over processes (the role the HPC cluster *taurus*
played for the original measurement campaign).
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | np.random.SeedSequence | None) -> np.random.Generator:
    """A PCG64 generator from a seed (None = OS entropy)."""
    return np.random.default_rng(seed)


def replication_entropies(
    campaign_seed: int | None, count: int
) -> list[tuple[int, ...]]:
    """The seed entropy of each of ``count`` replications of one cell.

    Child ``i`` of ``SeedSequence(campaign_seed)`` contributes its
    entropy followed by its spawn key; a run's seed is
    ``SeedSequence(entropy=list(entropy))``.  The one seeding convention
    of the package: the runs of every backend's replication blocks take
    replication ``i``'s seed from it, so a (cell, runs, campaign seed)
    names one set of replications on every backend, and the first
    ``count`` seeds of a longer sweep are these.
    """
    return [
        tuple(int(v) for v in np.atleast_1d(child.entropy))
        + tuple(child.spawn_key)
        for child in np.random.SeedSequence(campaign_seed).spawn(count)
    ]
