import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import split_deltas
from oracles import cdf_area_distance, reference_row_plan, reference_window, wasserstein_1d
from spoofbench.features import extract
from spoofbench.scenario import ChannelParams, default_config
from spoofbench.spec import FEATURES_PER_BS, DatasetSpec

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False)
delta_floats = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)


def mvsk(series):
    """extract's mvsk block of one station's series."""
    return tuple(extract(np.asarray(series, dtype=float)[None, None], "mvsk")[0].tolist())


def box(series):
    """extract's box block of one station's series."""
    return tuple(extract(np.asarray(series, dtype=float)[None, None], "box")[0].tolist())


# ---------------------------------------------------------------- delta series


def test_delta_series_is_absolute_difference():
    """The simulated deltas are |measured - theoretical| of the scalar oracle."""
    config = default_config()
    spec = DatasetSpec(config, ChannelParams(carrier_frequency=2.0), "wd", n_bs=2,
                       train_size=6, test_size=2)
    deltas = split_deltas(spec, "train")
    for (_, dest, seed), row in zip(reference_row_plan(spec, "train"), deltas, strict=True):
        for bs_id, delta in zip((1, 3), row):
            measured, theoretical, _ = reference_window(
                config, dest, seed, config.base_station_by_id(bs_id), spec.channel
            )
            assert delta.tolist() == [abs(m - t) for m, t in zip(measured, theoretical)]


def test_delta_series_sign_flip_invariant():
    theoretical = np.full(2, 80.0)
    up = np.abs(np.array([81.0, 82.0]) - theoretical)
    down = np.abs(np.array([79.0, 78.0]) - theoretical)
    for method in ("mvsk", "box", "wd"):
        assert np.array_equal(extract(up[None, None], method), extract(down[None, None], method))


def test_delta_series_validates_values():
    with pytest.raises(ValueError, match=">= 0"):
        extract(np.array([[[0.5, -0.1]]]), "box")


# ------------------------------------------------------------------------ mvsk


def test_mvsk_of_one_to_five():
    mean, var, skew, kurt = mvsk([1, 2, 3, 4, 5])
    assert mean == pytest.approx(3.0)
    assert var == pytest.approx(2.5)
    assert skew == pytest.approx(0.0, abs=1e-15)
    assert kurt == pytest.approx(-1.3)


def test_mvsk_constant_series_convention():
    assert mvsk([4.2, 4.2, 4.2]) == (4.2, 0.0, 0.0, 0.0)


def test_mvsk_needs_two_values():
    with pytest.raises(ValueError):
        mvsk([1.0])


UNIT_ROUNDOFF = 2.0**-53


def exact_mvsk_and_tolerances(xs):
    """The exact mean, variance, skewness and excess kurtosis of xs
    (fractions; the skewness through one float sqrt), and how far a float
    two-pass computation of each can stray from it, from the input's
    conditioning.

    With u the unit roundoff, n values x_i >= 0, exact mean mu, c_i = x_i - mu
    and exact central moments m_k = sum c_i^k / n:
    - the float mean sums n values >= 0 and divides, so it is off by at
      most d = (n + 1) u sum x_i / n;
    - a float moment sums fl((x_i - mean)^k) and divides by n. The mean's
      error moves each term by at most (|c_i| + d)^k - |c_i|^k; the
      subtraction, the power's at most k - 1 roundings, the n - 1 additions
      and the division by at most (n + k + 2) u (|c_i| + d)^k. E_k, the sum
      of both over i, divided by n, bounds the moment's error;
    - the variance, sum_sq / (n - 1), is off by n E_2 / (n - 1) + u var;
    - with r = E_2 / m_2, g1 = m3 / (m2 sqrt m2) is off by
      E_3 / m2^1.5 + |g1| (1.5 r + 3u) to first order (sqrt, the product
      and the quotient round once each), and the reference's float
      rounding adds 4u |g1|; g2 = m4 / m2^2 - 3 is off by
      E_4 / m2^2 + (g2 + 3)(2r + 2u) + u |g2|, and its reference by u |g2|.
    The first-order bounds are doubled to cover the higher-order terms they
    drop, small while r is. Past r = 1e-3 the spread is within the mean's
    error: the float moments do not fix g1 and g2, which are not compared.
    """
    n, u = len(xs), Fraction(UNIT_ROUNDOFF)
    exact = [Fraction(x) for x in xs]
    mu = sum(exact) / n
    c = [abs(x - mu) for x in exact]  # |c_i|: the bounds need no signs
    m2, m3, m4 = (sum((x - mu) ** k for x in exact) / n for k in (2, 3, 4))
    assume(m2 == 0 or m2 > Fraction(1e-100))  # past the float moments' range
    d = (n + 1) * u * sum(exact) / n
    e2, e3, e4 = (sum((a + d) ** k - a**k + (n + k + 2) * u * (a + d) ** k for a in c) / n for k in (2, 3, 4))
    var = m2 * n / (n - 1)
    want = [float(mu), float(var), 0.0, 0.0]
    tolerance = [d, n * e2 / (n - 1) + u * var, math.inf, math.inf]
    if m2 != 0 and e2 / m2 <= Fraction(1, 1000):
        r = e2 / m2
        want[2] = math.copysign(math.sqrt(float(m3**2 / m2**3)), m3)
        want[3] = float(m4 / m2**2 - 3)
        g1, g2 = Fraction(abs(want[2])), Fraction(abs(want[3]))
        tolerance[2] = math.sqrt(float(e3**2 / m2**3)) + float(g1 * (Fraction(3, 2) * r + 7 * u))
        tolerance[3] = float(e4 / m2**2 + (m4 / m2**2) * (2 * r + 2 * u) + 2 * u * g2)
    return want, [2 * float(t) for t in tolerance]


# Once failed against the naive two-pass oracle at rel=1e-12: the mean is one
# ulp high, which moves m3 by 3 m2 d, about 3e-11 of it. The library's
# skewness, -0.035904143256744465, and the naive oracle's,
# -0.03590414325573619, are both more than 1e-12 from the exact
# -0.035904143255988244.
@example(xs=[994330.9999999999, 994930.9999999999, 994983.9999999999, 994211.0])
@settings(max_examples=200)
@given(st.lists(delta_floats, min_size=2, max_size=60))
def test_mvsk_matches_exact_oracle_within_its_conditioning(xs):
    n = len(xs)
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs) / n
    assume(m2 == 0.0 or m2 > 1e-100)  # m2**1.5 must not underflow
    want, tolerance = exact_mvsk_and_tolerances(xs)
    for got, w, t in zip(mvsk(xs), want, tolerance):
        assert abs(got - w) <= t


# ------------------------------------------------------------------------- box


def test_box_exact_order_statistics():
    assert box([1, 2, 3, 4, 5]) == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_box_singleton():
    assert box([3.0]) == (3.0, 3.0, 3.0, 3.0, 3.0)


def test_box_linear_interpolation():
    assert box([1, 2, 3, 4]) == pytest.approx((1.0, 1.75, 2.5, 3.25, 4.0))


@settings(max_examples=200)
@given(st.lists(delta_floats, min_size=1, max_size=60))
def test_box_output_is_monotone(xs):
    q = box(xs)
    assert q[0] <= q[1] <= q[2] <= q[3] <= q[4]
    assert q[0] == min(xs) and q[4] == max(xs)


# ----------------------------------------------------------------- wasserstein


def test_wasserstein_identical_samples():
    assert wasserstein_1d([1.0, 5.0, 2.0], [1.0, 5.0, 2.0]) == 0.0


def test_wasserstein_uniform_shift():
    assert wasserstein_1d([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)


def test_wasserstein_matches_cdf_area_oracle_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = rng.normal(size=50) * rng.uniform(0.5, 3.0)
        b = rng.normal(size=50) + rng.uniform(-2.0, 2.0)
        assert wasserstein_1d(a, b) == pytest.approx(cdf_area_distance(a, b), abs=1e-9)


@settings(max_examples=100)
@given(
    a=st.lists(finite_floats, min_size=1, max_size=30),
    b=st.lists(finite_floats, min_size=1, max_size=30),
    c=st.lists(finite_floats, min_size=1, max_size=30),
)
def test_wasserstein_metric_properties(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    dab = wasserstein_1d(a, b)
    assert dab >= 0.0
    assert dab == wasserstein_1d(b, a)
    assert (dab == 0.0) == (sorted(a) == sorted(b))
    assert dab <= wasserstein_1d(a, c) + wasserstein_1d(c, b) + 1e-9 * (1 + dab)


@settings(max_examples=100)
@given(
    a=st.lists(finite_floats, min_size=1, max_size=30),
    b=st.lists(finite_floats, min_size=1, max_size=30),
    shift=finite_floats,
)
def test_wasserstein_translation_pairing_invariance(a, b, shift):
    n = min(len(a), len(b))
    a, b = np.array(a[:n]), np.array(b[:n])
    base = wasserstein_1d(a, b)
    assert wasserstein_1d(a + shift, b + shift) == pytest.approx(base, rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------- extract


def synthetic_deltas(n_bs, n=10, seed=0, rows=1):
    rng = np.random.default_rng(seed)
    return np.abs(rng.normal(size=(rows, n_bs, n)))


@pytest.mark.parametrize(
    "method,n_bs,width",
    [
        ("mvsk", 3, 12), ("box", 3, 15), ("wd", 3, 3),
        ("mvsk", 2, 8), ("box", 2, 10), ("wd", 2, 2),
        ("mvsk", 1, 4), ("box", 1, 5), ("wd", 1, 1),
    ],
)
def test_extract_widths(method, n_bs, width):
    assert extract(synthetic_deltas(n_bs, rows=2), method).shape == (2, width)
    assert width == n_bs * FEATURES_PER_BS[method]


def test_extract_blocks_follow_the_station_axis():
    deltas = synthetic_deltas(3, rows=4)
    for method, per in FEATURES_PER_BS.items():
        blocks = extract(deltas, method).reshape(4, 3, per)
        shuffled = extract(deltas[:, [2, 0, 1]], method).reshape(4, 3, per)
        assert np.array_equal(shuffled, blocks[:, [2, 0, 1]])


def test_extract_is_invariant_to_sample_order():
    deltas = synthetic_deltas(2, n=20, rows=3)
    rng = np.random.default_rng(5)
    for method in ("mvsk", "box", "wd"):
        permuted = deltas[..., rng.permutation(20)]
        assert np.array_equal(extract(permuted, method), extract(deltas, method))


def test_extract_matches_per_series_features_bit_for_bit():
    deltas = synthetic_deltas(3, n=100, seed=4, rows=50)
    deltas[7, 1] = 0.25  # constant series: the mvsk zero-variance convention
    for method, fn in (("mvsk", mvsk), ("box", box)):
        for row, series in zip(extract(deltas, method), deltas):
            assert row.tolist() == [v for s in series for v in fn(s)]


def test_extract_wd_default_is_delta_against_zero():
    deltas = synthetic_deltas(1, n=30, rows=5)
    for fv, d in zip(extract(deltas, "wd"), deltas):
        assert fv[0] == wasserstein_1d(d[0], np.zeros_like(d[0]))


def test_extract_errors():
    with pytest.raises(ValueError, match="non-empty"):
        extract(np.ones((0, 1, 10)), "mvsk")
    with pytest.raises(ValueError, match="non-empty"):
        extract(np.ones((1, 2, 0)), "mvsk")
    with pytest.raises(ValueError, match="rows, stations, samples"):
        extract(np.ones((2, 10)), "mvsk")
    with pytest.raises(ValueError, match="length >= 2"):
        extract(np.ones((1, 1, 1)), "mvsk")
    # A variance of 2.5e-241 has no square at double precision.
    with pytest.raises(ValueError, match="^mvsk skewness and kurtosis underflow: .* 2.5e-241 dB"):
        extract(np.array([[[0.0, 1e-120]]]), "mvsk")
    with pytest.raises(ValueError, match="unknown feature method"):
        extract(synthetic_deltas(1), "pca")
