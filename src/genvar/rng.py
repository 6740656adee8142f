"""Splittable deterministic randomness.

Every random draw in the package flows from one root seed through
`derive`, so runs are reproducible and independent subtasks get
independent streams.
"""

from __future__ import annotations

import hashlib
import random

from .errors import InputError


def derive(seed: int, *tags) -> int:
    """Derive a child seed from a root int seed (InputError otherwise) and a tag path."""
    if type(seed) is not int:
        raise InputError("seed %r must be an integer" % (seed,))
    material = repr((seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def make_rng(seed: int, *tags) -> random.Random:
    """Return a `random.Random` seeded from the derived child seed."""
    return random.Random(derive(seed, *tags))
