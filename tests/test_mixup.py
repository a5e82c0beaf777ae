import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from smile_lab import mixup


def test_mix_endpoints_exact():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(4, 3))
    v = rng.normal(size=(4, 3))
    assert np.array_equal(mixup.mix(u, v, 0.0), u)
    assert np.array_equal(mixup.mix(u, v, 1.0), v)


def test_mix_midpoint():
    u = np.array([0.0, 2.0])
    v = np.array([4.0, 6.0])
    assert np.array_equal(mixup.mix(u, v, 0.5), [2.0, 4.0])


def test_mix_quarter():
    # (1 - 0.25) * 0 + 0.25 * 8 = 2
    assert mixup.mix(np.array([0.0]), np.array([8.0]), 0.25) == pytest.approx(
        [2.0])


def test_mix_rejects_bad_inputs():
    u = np.zeros((2, 2))
    with pytest.raises(ValueError):
        mixup.mix(u, np.zeros((3, 2)), 0.5)
    for lam in (-0.1, 1.1):
        with pytest.raises(ValueError):
            mixup.mix(u, u, lam)


def test_mix_rows_keeps_endpoint_bits():
    # the rule written out, since mix is mix_rows' one-coefficient case;
    # the signed zeros tell a copied endpoint from the sum at 0 and 1
    u = np.array([[-0.0, 0.25], [1.0, -0.0]])[..., None]
    v = np.array([[-2.0, -0.0], [0.5, 3.0]])[..., None]
    assert ((1 - 0.0) * u + 0.0 * v).tobytes() != u.tobytes()
    assert ((1 - 1.0) * u + 1.0 * v).tobytes() != v.tobytes()
    coefs = [0.0, 1.0, 0.3, 0.0, 0.75]
    rows = mixup.mix_rows(u, v, coefs)
    assert rows.shape == (len(coefs), *u.shape)
    for row, c in zip(rows, coefs, strict=True):
        expected = {0.0: u, 1.0: v}.get(c, (1 - c) * u + c * v)
        assert row.tobytes() == expected.tobytes()


def test_mix_rows_refuses_with_mix_messages():
    u = np.zeros((2, 2))
    with pytest.raises(ValueError,
                       match=r"^mix shape mismatch: \(2, 2\) vs \(3, 2\)$"):
        mixup.mix_rows(u, np.zeros((3, 2)), [0.5])
    for lam in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match=f"^lambda out of range: {lam}$"):
            mixup.mix_rows(u, u, [0.5, lam])


def test_sample_lambda_range_and_determinism():
    draws = [mixup.sample_lambda(1.0, np.random.default_rng(7))
             for _ in range(200)]
    assert all(0.0 <= lam <= 1.0 for lam in draws)
    again = [mixup.sample_lambda(1.0, np.random.default_rng(7))
             for _ in range(200)]
    assert draws == again


def test_sample_lambda_beta_moments():
    rng = np.random.default_rng(123)
    draws = np.array([mixup.sample_lambda(1.0, rng)
                      for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.01
    # Beta(1, 1) is uniform: variance 1/12
    assert abs(draws.var() - 1.0 / 12) < 0.005


def test_sample_lambda_symmetry():
    rng = np.random.default_rng(9)
    draws = np.array([mixup.sample_lambda(2.0, rng)
                      for _ in range(100_000)])
    # lam and 1 - lam should follow the same law: compare empirical CDFs
    grid = np.linspace(0.0, 1.0, 101)
    cdf = np.searchsorted(np.sort(draws), grid) / draws.size
    cdf_flip = np.searchsorted(np.sort(1.0 - draws), grid) / draws.size
    assert np.max(np.abs(cdf - cdf_flip)) < 0.02


def test_sample_lambda_alpha_shapes_distribution():
    rng = np.random.default_rng(11)
    big_alpha = np.array([mixup.sample_lambda(50.0, rng)
                          for _ in range(10_000)])
    # Beta(50, 50) concentrates near 0.5
    assert big_alpha.std() < 0.06


@pytest.mark.parametrize("alpha", [1e-8, 1e-300])
def test_sample_lambda_small_alpha(alpha):
    # both Gamma(alpha) draws underflow to 0.0 at such an alpha; the mass of
    # Beta(alpha, alpha) sits at 0 and 1 in equal shares
    rng = np.random.default_rng(0)
    draws = np.array([mixup.sample_lambda(alpha, rng) for _ in range(400)])
    assert np.all((draws == 0.0) | (draws == 1.0))
    assert 0.4 < draws.mean() < 0.6


@pytest.mark.parametrize("alpha", [1.0, 0.05])
def test_sample_lambda_keeps_bits_and_draws_without_underflow(alpha):
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(2000):
        g1, g2 = ref.gamma(alpha, 1.0), ref.gamma(alpha, 1.0)
        assert mixup.sample_lambda(alpha, rng) == float(g1 / (g1 + g2))
    assert rng.bit_generator.state == ref.bit_generator.state


class _UnderflowingGenerator:
    """A generator whose first two Gamma draws underflow to 0.0."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def gamma(self, shape, scale):
        self.calls += 1
        return 0.0 if self.calls <= 2 else self.rng.gamma(shape, scale)

    def random(self):
        return self.rng.random()


def test_sample_lambda_underflow_branch_draws_beta():
    # Beta(2, 2) has mean 1/2 and variance 1/20
    rng = np.random.default_rng(17)
    draws = np.array([mixup.sample_lambda(2.0, _UnderflowingGenerator(rng))
                      for _ in range(40_000)])
    assert abs(draws.mean() - 0.5) < 0.005
    assert abs(draws.var() - 0.05) < 0.002


finite_arrays = hnp.arrays(np.float64, (3, 4),
                           elements=st.floats(-1e6, 1e6))


@settings(max_examples=50, deadline=None)
@given(u=finite_arrays, lam=st.floats(0.0, 1.0))
def test_mix_self_is_identity(u, lam):
    assert np.allclose(mixup.mix(u, u, lam), u, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(u=finite_arrays, v=finite_arrays, lam=st.floats(0.0, 1.0))
def test_mix_swap_symmetry(u, v, lam):
    assert np.allclose(mixup.mix(u, v, lam), mixup.mix(v, u, 1.0 - lam),
                       atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(u=finite_arrays, v=finite_arrays,
       lam1=st.floats(0.0, 1.0), lam2=st.floats(0.0, 1.0),
       w=st.floats(0.0, 1.0))
def test_mix_affine_in_lambda(u, v, lam1, lam2, w):
    lam = (1.0 - w) * lam1 + w * lam2
    direct = mixup.mix(u, v, lam)
    composed = (1.0 - w) * mixup.mix(u, v, lam1) + w * mixup.mix(u, v, lam2)
    assert np.allclose(direct, composed, atol=1e-6)
