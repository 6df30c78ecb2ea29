"""Deterministic seed derivation.

Every randomized routine in the package derives its generator from
sha256 of its arguments, so results are reproducible across runs,
platforms and schedules (per-sample generators never share state).
"""

import hashlib
import random


def seed_of_text(text: str) -> int:
    """The seed of the ":"-joined text of some parts (derive_seed)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed(*parts) -> int:
    return seed_of_text(":".join(str(p) for p in parts))


def rng_for(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))
