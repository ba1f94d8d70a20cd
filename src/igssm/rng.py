"""Counter-based random streams with one independent stream per replication.

All randomness in the package flows through the streams :func:`stream`
defines.  A stream is addressed by the experiment seed plus a path of small
integers (domain tag, replication index, ...), so replication ``r`` of any
Monte Carlo loop draws from the same stream whether the loop runs serially
or split across workers.  :func:`streams` walks the streams of a range of
replications of one domain without building a generator for each.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = [
    "stream",
    "streams",
    "OBSERVATION",
    "SIEVE_DRAW",
    "HIERARCHY_DRAW",
    "AUDIT_DRAW",
    "SUITE_GEN",
]

# Stream domain tags.  Keep values stable: they are part of the
# reproducibility contract (same seed => byte-identical outputs).
OBSERVATION = 1
SIEVE_DRAW = 2
HIERARCHY_DRAW = 3
AUDIT_DRAW = 4
SUITE_GEN = 5


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *path)``.

    Built on the counter-based Philox engine, so distinct paths give
    statistically independent streams and the mapping is pure: calling
    twice with the same address yields generators producing identical
    draws.
    """
    _check_seed(seed)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def streams(seed: int, domain: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Iterate, for ``r = start .. stop - 1``, over a generator that draws
    what ``stream(seed, domain, r)`` draws.

    It is one generator, reset at each step, so draw from it before the
    next.  The reset sets the state a fresh ``Philox`` seeded from the
    address starts in: the key ``SeedSequence`` derives, counter 0 and an
    empty buffer; this skips building a bit generator and a generator per
    replication.
    """
    _check_seed(seed)
    if not 0 <= start <= stop:
        raise ValueError(f"replication range [{start}, {stop}) needs 0 <= start <= stop")
    return _reset_each(int(seed), int(domain), range(int(start), int(stop)))


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _reset_each(seed: int, domain: int, reps: range) -> Iterator[np.random.Generator]:
    """One generator, set for each ``r`` of ``reps`` in turn to the state
    ``stream(seed, domain, r)`` starts in."""
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"counter": zeros, "key": None}
    fresh = {
        "bit_generator": "Philox", "state": state, "buffer": zeros,
        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    for r in reps:
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(domain, r))
        state["key"] = seq.generate_state(2, np.uint64)
        bit_gen.state = fresh
        yield gen
