"""Shared knobs for every probabilistic or size-capped computation."""

from __future__ import annotations

import random
from collections import namedtuple


class SamplingConfig(
    namedtuple("SamplingConfig", ("seed", "trials", "sample_bound", "symbolic_cap"))
):
    """Parameters for randomized rank estimation and witness search.

    seed          -- RNG seed; every operation derives its own
                     ``random.Random(seed)``, so a report is a pure
                     function of (input, config).
    trials        -- number of sample points / candidate linear forms.
    sample_bound  -- coordinates are drawn uniformly from
                     [-sample_bound, sample_bound].
    symbolic_cap  -- largest square size for which symbolic determinant
                     expansion is attempted.
    """

    __slots__ = ()

    def __new__(
        cls,
        seed: int = 0,
        trials: int = 12,
        sample_bound: int = 10**6,
        symbolic_cap: int = 12,
    ) -> "SamplingConfig":
        if trials < 1:
            raise ValueError("trials must be positive")
        if sample_bound < 1:
            raise ValueError("sample_bound must be positive")
        if symbolic_cap < 0:
            raise ValueError("symbolic_cap must be nonnegative")
        return super().__new__(cls, seed, trials, sample_bound, symbolic_cap)

    # The inherited _make, which _replace calls, would bypass __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def rng(self, *tags: object) -> "random.Random":
        """A fresh generator for one named operation.

        Seeding with a string is deterministic across processes, so two
        runs with the same config and the same tags draw identical
        samples, while differently tagged operations are decorrelated.
        """
        label = ":".join(str(t) for t in (self.seed,) + tags)
        return random.Random(label)


DEFAULT_CONFIG = SamplingConfig()
