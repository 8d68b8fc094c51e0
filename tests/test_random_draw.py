"""The sweep's random families, pinned to the draw they were defined by.

``sweep._random_families`` decodes the generator's 32-bit outputs in
bulk.  The reference below is the draw the families were first made
with, one ``randint(2, 3)`` and ``randrange(1 << order)`` call at a
time, kept here as the independent route: every record of a sweep with
random families depends on the two agreeing, on every supported Python.
This module needs only numpy and pytest, so it runs on the oldest and
the newest supported Python alike.
"""

import random

import pytest

from sglab.sweep import SweepConfig, _random_families


def reference(seed, order, idx, count):
    rng = random.Random(f"{seed}:{order}:{idx}")
    return [
        tuple(rng.randrange(1 << order) for _ in range(rng.randint(2, 3)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("count", [0, 1, 7, 20, 100, 1000])
def test_the_bulk_draw_equals_the_call_by_call_draw(order, count):
    # Small counts at many catalog positions, so the first bulk draw
    # sometimes keeps too few outputs for a family and is topped up more
    # than once; 1,000 families always need further draws.
    positions = range(0, 400, 3) if count <= 20 else range(0, 40, 7) if count == 100 else (0, 5)
    for seed in (0, 1, 9):
        cfg = SweepConfig(random_families=count, seed=seed)
        for idx in positions:
            assert _random_families(cfg, order, idx) == reference(seed, order, idx, count), (
                seed, idx)

