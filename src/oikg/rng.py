"""Named, seed-derived random streams.

Every random draw in the package flows from one root seed through a named
substream, so independent components (environment layout, latents, noise,
episode sampling, parameter init, student-forcing samples) never share or
perturb each other's state.  Stream identity is a stable hash of the purpose
tags, not Python's salted ``hash``.
"""

import hashlib

import numpy as np

from .errors import InvalidArgument

SEED_BOUND = 2 ** 64   # a root seed lies in [0, SEED_BOUND)


def _tag_int(tag) -> int:
    digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(root_seed: int, *tags) -> np.random.Generator:
    """Return a Generator unique to (root_seed, tags), stable across runs.

    A root seed outside [0, 2**64) is rejected, never folded into that
    range, so no two seeds share a stream."""
    root_seed = int(root_seed)
    if not 0 <= root_seed < SEED_BOUND:
        raise InvalidArgument(f"root seed {root_seed} is outside [0, 2**64)")
    entropy = [root_seed] + [_tag_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))
