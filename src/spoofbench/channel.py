"""Aerial path-loss channel between a UAV and ground base stations.

Theoretical path loss follows the urban-macro aerial model for elevated
user terminals (22.5 m to 300 m):

    LoS:  PL = 28.0 + 22 log10(d3d) + 20 log10(fc)
    NLoS: PL = -17.5 + (46 - 7 log10(h)) log10(d3d) + 20 log10(40 pi fc / 3)

with d3d in meters, fc in GHz and h the UAV height in meters. Above 100 m
the link is line-of-sight with probability one; between 22.5 m and 100 m
the LoS probability uses the model's d1/p1 height rule (below 22.5 m the
height is clamped to 22.5 for that rule). LoS shadow fading has standard
deviation 4.64 exp(-0.0066 h) dB; NLoS shadow fading is configurable.

"Measured" path loss is synthesized from the true UAV position plus shadow
fading plus independent measurement noise; the theoretical value is computed
noise-free from the reported GPS position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .scenario import BaseStation, ChannelParams

LOS_PROBABILITY_MIN_HEIGHT = 22.5  # rule below this clamps to the model floor


def los_probability(heights, d2d) -> np.ndarray:
    """Probability that each UAV-to-station link is line-of-sight."""
    h = np.maximum(np.asarray(heights, dtype=float), LOS_PROBABILITY_MIN_HEIGHT)
    d2d = np.asarray(d2d, dtype=float)
    d1 = np.maximum(460.0 * np.log10(h) - 700.0, 18.0)
    p1 = 4300.0 * np.log10(h) - 3800.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        far = d1 / d2d + np.exp(-d2d / p1) * (1.0 - d1 / d2d)
    prob = np.where(d2d <= d1, 1.0, far)
    return np.where(h > 100.0, 1.0, np.clip(prob, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class Link:
    """Noise-free path loss of every station's link along every sampled
    flight path, as (paths, stations, samples) arrays.

    Everything here depends only on (path, station, params), so a dataset
    builds it once and every row that flies a path shares that path's links.
    """

    los_db: np.ndarray  # LoS-branch path loss
    nlos_db: np.ndarray  # NLoS-branch path loss
    los_prob: np.ndarray
    los_sigma: np.ndarray  # LoS shadow-fading sigma

    @classmethod
    def along(cls, positions, stations: list[BaseStation], params: ChannelParams) -> Link:
        """Link quantities for a (paths, samples, 3) array of UAV positions
        and every station."""
        positions = np.asarray(positions, dtype=float)[:, None]  # (paths, 1, samples, 3)
        delta = positions - np.array([bs.position for bs in stations])[:, None]
        d3d = np.linalg.norm(delta, axis=-1)
        if np.any(d3d == 0.0):
            raise ValueError("UAV position coincides with the base station")
        d2d = np.linalg.norm(delta[..., :2], axis=-1)
        heights = positions[..., 2]  # (paths, 1, samples): shared by every station
        fc = params.carrier_frequency
        # A height <= 0 makes the NLoS loss non-finite, which check_finite
        # refuses; no ScenarioConfig lays out such a flight.
        with np.errstate(divide="ignore", invalid="ignore"):
            nlos_db = (
                -17.5
                + (46.0 - 7.0 * np.log10(heights)) * np.log10(d3d)
                + 20.0 * np.log10(40.0 * math.pi * fc / 3.0)
            )
        los_sigma = 4.64 * np.exp(-0.0066 * heights) if params.los_shadow_formula else 0.0
        return cls(
            los_db=28.0 + 22.0 * np.log10(d3d) + 20.0 * np.log10(fc),
            nlos_db=nlos_db,
            los_prob=los_probability(heights, d2d),
            los_sigma=np.broadcast_to(los_sigma, d3d.shape),
        )

    def branch(self, los: np.ndarray, nlos_sigma: float, index) -> tuple[np.ndarray, np.ndarray]:
        """Path loss and shadow-fading sigma per sample for a LoS mask over
        the links at index (along the leading axes of every array)."""
        return (
            np.where(los, self.los_db[index], self.nlos_db[index]),
            np.where(los, self.los_sigma[index], nlos_sigma),
        )

    def theoretical(self) -> np.ndarray:
        """(stations, samples) noise-free path loss of path 0, LoS where its
        probability is at least one half."""
        return np.where(self.los_prob[0] >= 0.5, self.los_db[0], self.nlos_db[0])


# NumPy's SeedSequence (NEP 19) pool size and hash constants, and PCG64's
# 128-bit LCG multiplier as two uint64 halves. window_states reproduces
# default_rng's seeding with them on array lanes, one lane per window, so a
# NumPy that changed them would move every draw: the pinned digests and
# tests/test_channel.py's default_rng oracle test catch that.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _uint32_words(values) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's split of ints >= 0 into uint32 words, least
    significant first, as a (len(values), width) array zero-padded to the
    widest, and each value's word count; 0 is the one word 0."""
    values = np.array(values, dtype=object)  # Python ints: seeds exceed int64
    width = max(1, -(-int(np.max(values, initial=0)).bit_length() // 32))
    words = np.stack([values >> 32 * i & _MASK32 for i in range(width)], axis=-1).astype(np.uint32)
    return words, np.max(np.where(words != 0, np.arange(1, width + 1), 1), axis=-1)


def _xorshift(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> 16)


class _HashMix:
    """SeedSequence's hashmix on uint32 lanes: x -> (x ^ h) * h', then an
    xorshift, where h is the running hash constant and h' = h * mult is
    the next one."""

    def __init__(self, init: int, mult: int):
        self.h, self.mult = init, mult

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = x ^ np.uint32(self.h)
        self.h = self.h * self.mult & _MASK32
        return _xorshift(x * np.uint32(self.h))


def _seed_words(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(e) for every row e of a
    (windows, words) uint32 entropy array, its first lengths[w] words row
    w's entropy and the rest zero, as (windows, 8) uint32 words.

    Every operation is the scalar algorithm's on uint32 lanes, one lane per
    window; uint32 arrays wrap on overflow as its C arithmetic does. The
    pool takes zeros for a row's missing words, and a row skips the mixing
    of the words beyond its entropy.
    """
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]

    def mix(x, y):
        return _xorshift(x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R))

    for src, dst in product(range(_POOL_SIZE), repeat=2):
        if src != dst:
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):  # entropy beyond the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(src < lengths, mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    hashmix = _HashMix(_INIT_B, _MULT_B)  # generate_state's
    return np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 on 128-bit (high, low) uint64 lanes."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _times_pcg64_mult(hi, lo) -> tuple[np.ndarray, np.ndarray]:
    """x * PCG64's multiplier mod 2**128 on 128-bit (high, low) uint64
    lanes; the low words' full product is built from 32-bit halves."""
    a0, a1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG64_MULT_LO & _MASK32, _PCG64_MULT_LO >> 32
    cross0, cross1 = a0 * m1, a1 * m0
    mid = (a0 * m0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    carry = a1 * m1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    return carry + hi * _PCG64_MULT_LO + lo * _PCG64_MULT_HI, lo * _PCG64_MULT_LO


def window_states(rng_seed: int, noise_seeds, bs_ids) -> np.ndarray:
    """PCG64 (state, inc) of np.random.default_rng([rng_seed, seed, bs_id])
    for every seed in noise_seeds and, within it, every bs_id, as
    (windows, 4) uint64 words: state high, state low, inc high, inc low.

    Every window is seeded in one pass of array operations, whatever the
    word counts of its seed and station id: its entropy is rng_seed's
    words, then the seed's, then the station id's.
    """
    (head, _), (seeds, seed_lengths), (tails, tail_lengths) = map(_uint32_words, ([rng_seed], noise_seeds, bs_ids))
    h = head.shape[1]
    entropy = np.zeros((len(seeds), len(tails), max(h + seeds.shape[1] + tails.shape[1], _POOL_SIZE)), np.uint32)
    entropy[..., :h], entropy[..., h : h + seeds.shape[1]] = head, seeds[:, None]  # (seed, station, word)
    np.put_along_axis(entropy, h + seed_lengths[:, None, None] + np.arange(tails.shape[1]), tails, axis=2)
    lengths = h + seed_lengths[:, None] + tail_lengths
    words = _seed_words(entropy.reshape(-1, entropy.shape[2]), lengths.ravel()).astype(np.uint64)
    # generate_state's uint64 words are little-endian uint32 pairs:
    # (seed high, seed low, sequence high, sequence low). PCG64's srandom:
    # inc = 2 seq + 1, then two LCG steps from 0 with the seed added in between.
    seed_hi, seed_lo, seq_hi, seq_lo = (words[:, 2 * i] | words[:, 2 * i + 1] << 32 for i in range(4))
    inc = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    state = _add128(*_times_pcg64_mult(*_add128(*inc, seed_hi, seed_lo)), *inc)
    return np.stack([*state, *inc], axis=1)


def measured_windows(links: Link, dests, params: ChannelParams, states) -> np.ndarray:
    """Noisy path loss the stations report along a batch of windows, as a
    (rows, stations, samples) array.

    links holds (destinations, stations, samples) arrays, and row i flies
    to destination dests[i]. Window (i, j), of row i and station j, draws
    from the PCG64 stream of states[i * stations + j] (window_states), in
    the order every dataset depends on: the LoS branch of every sample
    (sampled_los only), then every shadow-fading value, then every
    measurement-noise value. One generator takes each window's state in
    turn through one reused state dict, and the path loss is assembled
    once per batch, and refused unless finite.
    """
    rows, (stations, n) = len(dests), links.los_prob.shape[1:]
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    draws = np.empty((rows * stations, 3 if params.sampled_los else 2, n))
    state = {"state": 0, "inc": 0}
    value = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    for window, (state_hi, state_lo, inc_hi, inc_lo) in zip(draws, states.tolist(), strict=True):
        state["state"], state["inc"] = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
        bitgen.state = value
        if params.sampled_los:
            gen.random(out=window[0])
        gen.standard_normal(out=window[-2:])
    draws = draws.reshape(rows, stations, -1, n)
    if params.sampled_los:
        pl, sigma = links.branch(draws[:, :, 0] < links.los_prob[dests], params.nlos_shadow_sigma, dests)
    else:  # one branch per destination, gathered by row
        pl, sigma = (a[dests] for a in links.branch(links.los_prob >= 0.5, params.nlos_shadow_sigma, ...))
    # pl + sigma * shadow + meas_noise_sigma * noise without temporaries;
    # IEEE addition commutes, so the sums are bit for bit the same. And
    # sigma * standard_normal() is normal(0, sigma) bit for bit, without the
    # per-call scale checks that normal() makes on an array sigma. An
    # overflow, from a sigma near the largest float, warns nothing here:
    # check_finite refuses it with one error.
    with np.errstate(over="ignore", invalid="ignore"):
        measured = sigma * draws[:, :, -2]
        measured += pl
        noise = draws[:, :, -1]
        noise *= params.meas_noise_sigma
        measured += noise
    return check_finite(measured)


def check_finite(values: np.ndarray) -> np.ndarray:
    """values, if every one is finite; the shared guard on simulated path loss."""
    if not np.all(np.isfinite(values)):
        raise ValueError("path loss values must be finite")
    return values

