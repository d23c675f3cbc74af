"""Convergence study: coefficient spread under test subsampling.

For each subsample size k, k distinct tests are drawn uniformly without
replacement and the draw is repeated (ten times by default). Every
coefficient is one minus the mean of per-test terms that do not depend
on the subsample, so each is computed once over the full suite with
``concordance.randomness`` and a subsample's value is one minus the
mean over its drawn terms. The report holds these values as one
sizes × coefficients × repeats array, with the mean and std of each
(size, coefficient) taken along the repeats axis. Small-k spread shows
how quickly a coefficient converges to its full-suite value as the
suite grows.

Repeat ``rep`` of size ``k`` draws from its own stream, numpy's
``default_rng(SeedSequence(rng_seed, spawn_key=(k, rep)))``
(``RNG_ALGORITHM``). Every stream is seeded in one vectorised pass by
:func:`_pcg64_states`, which reimplements the SeedSequence → PCG64
seeding that NumPy's compatibility policy keeps stable, and each state
is set on one reused generator. The draw itself is numpy's own
``Generator.choice``, which carries no such guarantee: a numpy release
that changes it changes the draws, and the pinned converge outputs in
the tests fail.

Each draw is sorted, so only its set matters, and up to 10,000 tests it
is ``choice(n_tests, k, replace=False, shuffle=False)``. There numpy
always takes Floyd's algorithm, which picks the set from the stream
first and only then shuffles it with further draws, so skipping the
shuffle leaves the set as it was. Above 10,000 tests numpy's cutoff
between a tail shuffle and Floyd's algorithm depends on ``shuffle``
(``n // 50`` or ``n // 20``), so the sets would differ for sizes
between the two, and the shuffle stays.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .concordance import coefficients_for, randomness
from .ranking import RankCube

RNG_ALGORITHM = "numpy-pcg64-seedsequence"

# numpy.random.SeedSequence's hash constants (its pool holds 4 words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Streams seeded per block. Only one block's words are held at once, so
# memory does not grow with sizes x repeats; a block spans many sizes,
# because one numpy pass per size costs most of what the pass saves.
_SEED_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Coefficient values of every subsample, held as arrays.

    ``values[i, j, r]`` is coefficient ``coefficients[j]`` on repeat
    ``r``'s draw of ``sizes[i]`` tests. ``mean`` and ``std`` reduce it
    along the repeats axis; ``std`` is the sample std (ddof=1), and 0.0
    when every repeat agrees or there is a single repeat.
    """

    sizes: tuple[int, ...]
    repeats: int
    coefficients: tuple[str, ...]
    rng_seed: int
    rng_algorithm: str
    provenance: str  # sha256 of the canonical rank-cube serialization
    full_suite_value: dict[str, float]
    values: np.ndarray  # sizes x coefficients x repeats
    mean: np.ndarray  # sizes x coefficients
    std: np.ndarray  # sizes x coefficients
    warnings: tuple[str, ...]  # kernel warnings of the full-suite terms


def _digest(cube: RankCube) -> str:
    h = hashlib.sha256()
    for test, ranks in zip(cube.suite, cube.ranks):
        h.update(repr((test, cube.policy.value, cube.algorithms, cube.seeds)).encode())
        h.update(np.ascontiguousarray(ranks).tobytes())
    return h.hexdigest()


def _hashmix(words: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of every word; returns the words and the next constant."""
    words = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    words *= np.uint32(hash_const)
    return words ^ (words >> 16), hash_const


def _pcg64_states(rng_seed: int, sizes: Sequence[int], repeats: int) -> Iterator[dict]:
    """``PCG64(SeedSequence(rng_seed, spawn_key=(k, rep))).state`` for every stream.

    Yields one state per (size, repeat), sizes outer, computed with
    uint32 array arithmetic a block of streams at a time. Every stream
    shares ``SeedSequence(rng_seed).pool``: a spawn key pads the seed's
    words to the 4-word pool, so the two spawn-key words k and rep (each
    below 2**32) are mixed in after 4 × max(4, seed words) hash steps.
    """
    pool = np.random.SeedSequence(rng_seed).pool
    seed_words = max(1, -(-operator.index(rng_seed).bit_length() // 32))
    mixed_const = _INIT_A * pow(_MULT_A, 4 * max(4, seed_words), 1 << 32) & _MASK32
    sizes = np.asarray(sizes, dtype=np.uint32)
    n_streams = len(sizes) * repeats
    for start in range(0, n_streams, _SEED_BLOCK):
        stream = np.arange(start, min(start + _SEED_BLOCK, n_streams))
        mixer = np.tile(pool, (len(stream), 1))
        hash_const = mixed_const
        for key in (sizes[stream // repeats], (stream % repeats).astype(np.uint32)):
            for i in range(4):
                hashed, hash_const = _hashmix(key, hash_const, _MULT_A)
                mixed = mixer[:, i] * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
                mixer[:, i] = mixed ^ (mixed >> 16)
        # generate_state(4, uint64): 8 words cycled from the mixer, paired
        # little-endian into (seed high, seed low, inc high, inc low).
        words = np.empty((len(stream), 8), dtype=np.uint32)
        hash_const = _INIT_B
        for i in range(8):
            words[:, i], hash_const = _hashmix(mixer[:, i % 4], hash_const, _MULT_B)
        words = words.astype("<u4").view("<u8").astype(np.uint64)
        for row in words:
            seed_hi, seed_lo, inc_hi, inc_lo = row.tolist()
            # pcg_setseq_128_srandom_r: inc = 2·initseq + 1, then two LCG
            # steps from 0 with the seed added between them.
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
            yield {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }


def subsample_convergence(
    cube: RankCube,
    coefficients: Sequence[str] | None = None,
    sizes: Sequence[int] | None = None,
    repeats: int = 10,
    rng_seed: int = 0,
) -> ConvergenceReport:
    """Recompute coefficients on random test subsamples of each size.

    Deterministic for a given rng_seed: each (size, repeat) pair gets
    its own RNG stream derived from the seed, so the draws do not depend
    on evaluation order. The streams are seeded in one pass, and each
    draws the set of tests that ``choice`` of numpy's
    ``SeedSequence(rng_seed, spawn_key=(k, rep))`` generator draws, with
    no shuffle after it up to 10,000 tests (see the module docstring).
    At k = number of tests every repeat reproduces the
    full-suite value exactly. By default every coefficient defined for
    the cube's tie policy is studied. A size that is not an integer or
    not in 1 to the number of tests, no sizes, a repeated coefficient, a
    bare ``str`` of coefficients and a ``repeats`` that is not an integer
    (a ``bool`` included) are each a ValueError, as they are usage errors
    of ``converge``.
    """
    n_tests = len(cube.suite)
    if not n_tests:
        raise ValueError("empty suite")
    if coefficients is None:
        coefficients = coefficients_for(cube.policy)
    if isinstance(coefficients, str):
        raise ValueError(f"coefficients must be a sequence of names, got {coefficients!r}")
    if not coefficients:
        raise ValueError("empty coefficient set")
    if len(set(coefficients)) < len(coefficients):
        raise ValueError(f"repeated coefficient in {list(coefficients)}")
    try:
        if isinstance(repeats, bool):
            raise TypeError
        repeats = operator.index(repeats)
    except TypeError:
        raise ValueError(f"repeats must be an integer, got {repeats!r}") from None
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if sizes is None:
        sizes = range(1, n_tests + 1)
    try:
        sizes = list(map(operator.index, sizes))
    except TypeError:
        raise ValueError(f"subsample sizes must be integers, got {list(sizes)}") from None
    if not sizes:
        raise ValueError("empty size set")
    for k in sizes:
        if not 1 <= k <= n_tests:
            raise ValueError(f"subsample size {k} out of range [1, {n_tests}]")

    # Allocated first, so that a study too large for memory fails at once.
    values = np.empty((len(sizes), len(coefficients), repeats))
    results = [randomness(cube, c) for c in coefficients]
    terms = np.array([r.per_test for r in results])  # coefficients x tests

    bit_generator = np.random.PCG64(0)  # every stream sets its own state
    rng = np.random.Generator(bit_generator)
    states = _pcg64_states(rng_seed, sizes, repeats)
    for i, k in enumerate(sizes):
        draws = np.empty((repeats, k), dtype=np.intp)  # repeats x k test indexes
        for draw, state in zip(draws, itertools.islice(states, repeats)):
            bit_generator.state = state
            # The shuffled choice's set: only numpy's cutoff above 10,000 tests differs.
            draw[:] = rng.choice(n_tests, size=k, replace=False, shuffle=n_tests > 10_000)
        draws.sort(axis=1)
        # take() is C-contiguous, so each mean sums its k terms in the order
        # a one-coefficient gather does; terms[:, draws] is not, and changes
        # the last bits of some means from k = 8.
        values[i] = 1.0 - terms.take(draws, axis=1).mean(axis=2)

    if repeats == 1:
        std = np.zeros(values.shape[:2])
    else:
        agree = (values == values[..., :1]).all(axis=-1)
        std = np.where(agree, 0.0, values.std(axis=-1, ddof=1))

    return ConvergenceReport(
        sizes=tuple(sizes),
        repeats=repeats,
        coefficients=tuple(coefficients),
        rng_seed=rng_seed,
        rng_algorithm=RNG_ALGORITHM,
        provenance=_digest(cube),
        full_suite_value={r.coefficient: r.value for r in results},
        values=values,
        mean=values.mean(axis=-1),
        std=std,
        warnings=tuple(w for r in results for w in r.warnings),
    )


def plot_data_csv(report: ConvergenceReport) -> list[str]:
    """Long-format CSV ``size,repeat,coefficient,value``: the header, then one piece per size."""
    pieces = ["size,repeat,coefficient,value\n"]
    for k, by_coefficient in zip(report.sizes, report.values):
        pieces.append(
            "".join(
                [
                    f"{k},{rep},{c},{value!r}\n"
                    for c, values in zip(report.coefficients, by_coefficient.tolist())
                    for rep, value in enumerate(values)
                ]
            )
        )
    return pieces


def summary_csv(report: ConvergenceReport) -> list[str]:
    """Summary CSV ``size,coefficient,mean,std``: the header, then one piece per size."""
    pieces = ["size,coefficient,mean,std\n"]
    for k, means, stds in zip(report.sizes, report.mean.tolist(), report.std.tolist()):
        pieces.append(
            "".join(
                [f"{k},{c},{m!r},{sd!r}\n" for c, m, sd in zip(report.coefficients, means, stds)]
            )
        )
    return pieces
