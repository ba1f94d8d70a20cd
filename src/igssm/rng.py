"""Counter-based random streams with one independent stream per replication.

All randomness in the package flows through the streams :func:`stream`
defines.  A stream is addressed by the experiment seed plus a path of small
integers (domain tag, replication index, ...), so replication ``r`` of any
Monte Carlo loop draws from the same stream whether the loop runs serially
or split across workers.  :func:`streams` walks the streams of a range of
replications of one domain without building a seed sequence or a generator
for each.
"""

from __future__ import annotations

import functools
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
    empty buffer; this skips building a seed sequence, a bit generator and
    a generator per replication.  The keys are derived in batches by
    ``_keys``, which runs ``SeedSequence``'s hash on arrays of replication
    indices, so a caller opens one range for as many replications as it
    can: the Monte Carlo kernel one per block of replications.
    """
    _check_seed(seed)
    if not 0 <= start <= stop:
        raise ValueError(f"replication range [{start}, {stop}) needs 0 <= start <= stop")
    return _reset_each(int(seed), int(domain), int(start), int(stop))


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _reset_each(seed: int, domain: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """One generator, set for each ``r`` of ``start .. stop - 1`` in turn to
    the state ``stream(seed, domain, r)`` starts in."""
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    zeros = (0, 0, 0, 0)  # Python ints: the state setter reads them faster than array items
    state = {"counter": zeros, "key": None}
    fresh = {
        "bit_generator": "Philox", "state": state, "buffer": zeros,
        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    pool, const = _prefix(seed, domain)
    r = start
    while r < stop:
        # a batch shares every word of its indices but the lowest
        end = min(stop, r + _KEY_BATCH, ((r >> 32) + 1) << 32)
        for key in _keys(pool, const, r, end).tolist():
            state["key"] = key
            bit_gen.state = fresh
            yield gen
        r = end


# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, the entropy mixed in by ``hashmix`` and ``mix``, and the
# state read out by a second ``hashmix`` chain.  The hash constants advance
# the same way whatever the data, so the words an address shares with the
# others of its range, the seed and the domain, are mixed once per seed
# and domain (``_prefix``, cached) and the replication index, last in the
# entropy, on arrays.
_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_KEY_BATCH = 4096  # keys derived at once


def _words(n: int) -> list:
    """The 32-bit words of ``n``, least significant first, as
    ``SeedSequence`` reads an integer (one word for 0)."""
    words = [n & _MASK]
    while n > _MASK:
        n >>= 32
        words.append(n & _MASK)
    return words


def _hashmix(value, const, mult: int = _MULT_A):
    """``(hashed value, next constant)``; ``value`` and ``const`` ints or
    uint32 arrays."""
    nxt = const * mult & _MASK
    value = (value ^ const) * nxt & _MASK
    return value ^ value >> 16, nxt


def _mix(x, y):
    value = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return value ^ value >> 16


def _absorb(pool, words, const: int) -> tuple:
    """Mix entropy ``words`` past the first four into ``pool``, each into
    every pool word: ``(pool, constant)``."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


@functools.lru_cache(maxsize=64)
def _prefix(seed: int, domain: int) -> tuple:
    """The pool and hash constant after the entropy every address
    ``(seed, domain, r)`` starts with: the seed's words, padded with zeros
    to the pool size, then the domain's."""
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy)) + _words(domain)
    pool, const = [], _INIT_A
    for word in entropy[:_POOL]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    pool, const = _absorb(pool, entropy[_POOL:], const)
    return tuple(pool), const


def _keys(pool: tuple, const: int, start: int, stop: int) -> np.ndarray:
    """``(stop - start, 2)`` uint64: row ``i`` the Philox key
    ``SeedSequence(seed, spawn_key=(domain, start + i)).generate_state(2,
    np.uint64)``, for ``pool, const = _prefix(seed, domain)`` and indices
    that differ only in their lowest word, which are hashed as one array."""
    low, high = start & _MASK, _words(start)[1:]
    words = np.arange(low, low + stop - start, dtype=np.uint32)
    a, b, c, d = _state(pool, const, [words, *high]).astype(np.uint64)
    return np.stack([a | b << 32, c | d << 32], axis=1)


def _state(pool: tuple, const: int, words: list) -> np.ndarray:
    """The four words of ``generate_state(4, np.uint32)``, the rows of a
    ``(4, n)`` array, once the replication index's ``words`` are mixed into
    the prefix's pool.  A word is hashed into the four pool words with four
    successive constants, which depend on nothing but the first, so the
    four are one operation on a column of constants; so is the read-out."""
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for word in words:
        consts, const = _constants(const, _MULT_A)
        pool = _mix(pool, _hashmix(word, consts)[0])
    return _hashmix(pool, _constants(_INIT_B, _MULT_B)[0], _MULT_B)[0]


def _constants(const: int, mult: int) -> tuple:
    """``(column, next)``: the constants ``_POOL`` successive ``_hashmix``
    calls start from, as a ``(_POOL, 1)`` uint32 column, and the one the
    last advances to."""
    consts = [const]
    for _ in range(_POOL):
        consts.append(consts[-1] * mult & _MASK)
    return np.array(consts[:_POOL], dtype=np.uint32)[:, None], consts[_POOL]
