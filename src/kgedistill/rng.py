"""Seeded random streams.

Every source of randomness in the package is a numpy ``Generator`` made by
:func:`stream`: PCG64 keyed by a seed plus an optional stream label. Streams
with different labels are statistically independent, which lets the trainer
keep initialization, shuffling, and dropout on separate streams (enabling or
disabling a feature must not shift the draws of unrelated ones). A
``Generator`` is not safe to share between threads, and its draws depend on
their order, so each stream is drawn whole, in order, by one thread; two
streams may be drawn at once on two threads, as the trainer's model and
block init are. A stream's ``bit_generator.state`` is a JSON-serializable
dict; assigning it back restores the exact position, so checkpoints resume
a run bit-exactly.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, label: str = "") -> np.random.Generator:
    """A deterministic random stream: same seed, same label, same draws."""
    spawn_key = (zlib.crc32(label.encode("utf-8")),) if label else ()
    seq = np.random.SeedSequence(int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(seq))
