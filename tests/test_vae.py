"""Likelihood objectives: reparameterization, KL, bounds, NLL estimation."""

import math

import numpy as np
import pytest

from degm import rng
from degm.nn import InvalidSpecError, ShapeError, Tensor
from degm.vae import (
    DomainError,
    build_vae,
    elbo,
    elbo_parts,
    gaussian_kl,
    iw_logpx_np,
    iwelbo,
    nll_estimate,
    reparameterize,
)
from helpers import max_grad_error, oracle_encode, oracle_gaussian_kl, recon_loglik


def tiny_model(likelihood="bernoulli", seed=3, normalize=False):
    return build_vae(
        data_dim=6,
        latent_dim=2,
        trunk_widths=(5,),
        decoder_widths=(5,),
        likelihood=likelihood,
        normalize_recon=normalize,
        seed=seed,
    )


class TestReparameterize:
    def test_zero_noise_returns_mu(self):
        mu = np.array([[0.3, -1.0]])
        z = reparameterize(Tensor(mu), Tensor(np.zeros((1, 2))), np.zeros((1, 2)))
        np.testing.assert_array_equal(z.data, mu)

    def test_unit_scale(self):
        noise = np.array([[1.5, -0.5]])
        z = reparameterize(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), noise)
        np.testing.assert_array_equal(z.data, noise)

    def test_hand_value(self):
        z = reparameterize(
            Tensor(np.array([1.0])), Tensor(np.array([math.log(4.0)])), np.array([0.5])
        )
        assert z.data[0] == pytest.approx(2.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reparameterize(Tensor(np.zeros(2)), Tensor(np.zeros(3)), np.zeros(2))

    def test_leading_sample_axis(self):
        mu = np.array([[0.3, -1.0]])
        noise = rng.stream(0, "n").standard_normal((3, 1, 2))
        z = reparameterize(Tensor(mu), Tensor(np.zeros((1, 2))), noise)
        np.testing.assert_array_equal(z.data, mu + noise)
        with pytest.raises(ShapeError):
            reparameterize(Tensor(mu), Tensor(np.zeros((1, 2))), np.zeros((3, 2, 2)))


class TestGaussianKl:
    def test_standard_normal_is_zero(self):
        assert float(gaussian_kl(np.zeros((4, 3)), np.zeros((4, 3)))) == 0.0

    def test_hand_value(self):
        assert float(gaussian_kl(np.array([1.0, 0.0]), np.zeros(2))) == pytest.approx(0.5)

    def test_matches_monte_carlo(self):
        # MC oracle: E_q[log q - log p] over 1e5 samples, 3 standard errors
        g = rng.stream(7, "klmc")
        for case in range(6):
            mu = g.normal(0, 1.5, size=4)
            logvar = g.normal(0, 0.7, size=4)
            analytic = float(gaussian_kl(mu, logvar))
            n = 100_000
            sd = np.exp(0.5 * logvar)
            z = mu + sd * g.standard_normal((n, 4))
            log_q = -0.5 * (((z - mu) / sd) ** 2 + logvar + math.log(2 * math.pi)).sum(axis=1)
            log_p = -0.5 * (z**2 + math.log(2 * math.pi)).sum(axis=1)
            draws = log_q - log_p
            se = draws.std(ddof=1) / math.sqrt(n)
            assert abs(draws.mean() - analytic) < 3 * se + 1e-9
            assert analytic >= 0.0


class TestReconLoglik:
    def test_bernoulli_perfect_reconstruction(self):
        x = np.array([[0.0, 1.0, 1.0, 0.0]])
        val = float(recon_loglik(Tensor(x), Tensor(x), "bernoulli"))
        assert val == pytest.approx(0.0, abs=1e-5)

    def test_bernoulli_finite_at_saturation(self):
        x = np.array([[1.0, 0.0]])
        y = np.array([[0.0, 1.0]])  # worst case, clamped
        val = float(recon_loglik(Tensor(y), Tensor(x), "bernoulli"))
        assert np.isfinite(val)

    def test_bernoulli_domain_check(self):
        with pytest.raises(DomainError):
            recon_loglik(Tensor(np.array([[0.5]])), Tensor(np.array([[1.5]])), "bernoulli")

    def test_gaussian_half_constant(self):
        x = np.zeros((1, 4))
        val = float(recon_loglik(Tensor(x), Tensor(x), "gaussian_half"))
        assert val == pytest.approx(-2.0 * math.log(math.pi), rel=1e-12)

    def test_gaussian_identity_hand_value(self):
        x = np.array([[1.0, 0.0, 0.0, 0.0]])
        y = np.zeros((1, 4))
        val = float(recon_loglik(Tensor(y), Tensor(x), "gaussian_identity"))
        assert val == pytest.approx(-0.5 - 2.0 * math.log(2 * math.pi), rel=1e-12)

    def test_normalization_divides_by_d(self):
        x = rng.stream(0, "x").random((3, 4))
        y = rng.stream(0, "y").random((3, 4))
        raw = float(recon_loglik(Tensor(y), Tensor(x), "gaussian_identity", normalize=False))
        norm = float(recon_loglik(Tensor(y), Tensor(x), "gaussian_identity", normalize=True))
        assert norm == pytest.approx(raw / 4.0, rel=1e-12)


class TestElbo:
    def test_decomposition_identity(self):
        m = tiny_model()
        x = rng.stream(0, "x").random((8, 6))
        est = elbo(m, x, rng=rng.stream(1, "noise"))
        assert est.total == pytest.approx(est.recon_term - est.kl_term, rel=1e-12)
        assert est.kl_term >= 0.0

    def test_constant_decoder_splits_terms(self):
        # zero decoder weights: output is sigmoid(0) = 0.5 regardless of z
        m = tiny_model()
        for w in m.decoder[0].weights:
            w.data[:] = 0.0
        for b in m.decoder[0].biases:
            b.data[:] = 0.0
        x = (rng.stream(0, "x").random((16, 6)) > 0.5).astype(float)
        est = elbo(m, x, rng=rng.stream(1, "noise"))
        direct = float(recon_loglik(Tensor(np.full((16, 6), 0.5)), Tensor(x), "bernoulli"))
        with np.errstate(all="raise"):
            mu, lv = oracle_encode(m, x)
        assert est.recon_term == pytest.approx(direct, rel=1e-12)
        assert est.kl_term == pytest.approx(oracle_gaussian_kl(mu, lv).mean(), rel=1e-12)

    def test_gaussian_half_decomposition(self):
        m = tiny_model(likelihood="gaussian_half")
        x = rng.stream(0, "x").random((8, 6))
        est = elbo(m, x, rng=rng.stream(1, "noise"))
        assert est.total == pytest.approx(est.recon_term - est.kl_term, rel=1e-12)

    def test_elbo_below_tight_estimate(self):
        m = tiny_model(seed=11)
        x = rng.stream(3, "x").random((64, 6))
        est = elbo(m, x, rng=rng.stream(1, "noise"))
        logpx = iw_logpx_np(m, x, 5000, rng=rng.stream(2, "iw"))
        se = logpx.std(ddof=1) / math.sqrt(len(logpx))
        assert est.total <= logpx.mean() + 3 * se

    def test_gradients_match_fd(self):
        m = tiny_model()
        x = rng.stream(5, "x").random((4, 6))
        noise = rng.stream(6, "n").standard_normal((1, 4, 2))
        params = m.parameters()

        def value():
            recon, kl = elbo_parts(m, x, noise=noise)
            return float(recon) - float(kl)

        def loss():
            recon, kl = elbo_parts(m, x, noise=noise)
            return recon - kl

        assert max_grad_error(value, loss, params) < 1e-4


class TestIwelbo:
    def test_k1_equals_elbo_shared_noise(self):
        m = tiny_model()
        x = rng.stream(0, "x").random((8, 6))
        noise = rng.stream(1, "n").standard_normal((1, 8, 2))
        assert float(iwelbo(m, x, 1, noise=noise)) == elbo(m, x, noise=noise).total

    def test_zero_k_rejected(self):
        m = tiny_model()
        with pytest.raises(InvalidSpecError):
            iwelbo(m, rng.stream(0, "x").random((2, 6)), 0)

    def test_monotone_in_k(self):
        # one-sided paired test over 200 repeats at alpha = 0.01
        from scipy import stats

        m = tiny_model(seed=21)
        x = rng.stream(9, "x").random((32, 6))
        reps = 200
        e1 = np.empty(reps)
        e5 = np.empty(reps)
        e50 = np.empty(reps)
        for r in range(reps):
            e1[r] = elbo(m, x, rng=rng.stream(100 + r, "elbo")).total
            e5[r] = float(iwelbo(m, x, 5, rng=rng.stream(100 + r, "iw5")))
            e50[r] = float(iwelbo(m, x, 50, rng=rng.stream(100 + r, "iw50")))
        t5 = stats.ttest_1samp(e5 - e1, 0.0, alternative="greater")
        t50 = stats.ttest_1samp(e50 - e5, 0.0, alternative="greater")
        assert t5.pvalue < 0.01
        assert t50.pvalue < 0.01

    def test_degenerate_weights_constant_in_k(self):
        # encoder = prior and constant decoder -> all importance weights equal
        m = tiny_model()
        for net in (m.trunk, m.mu_head, m.logvar_head, m.decoder[0]):
            for w in net.weights:
                w.data[:] = 0.0
            for b in net.biases:
                b.data[:] = 0.0
        x = (rng.stream(0, "x").random((4, 6)) > 0.5).astype(float)
        vals = [float(iwelbo(m, x, k, rng=rng.stream(4, f"iw{k}"))) for k in (1, 7, 30)]
        assert max(vals) - min(vals) < 1e-9

    def test_gradients_match_fd(self):
        m = tiny_model()
        x = rng.stream(5, "x").random((3, 6))
        noise = rng.stream(6, "n").standard_normal((4, 3, 2))
        params = m.parameters()

        def value():
            return float(iwelbo(m, x, 4, noise=noise))

        def loss():
            return iwelbo(m, x, 4, noise=noise)

        assert max_grad_error(value, loss, params) < 1e-4


class TestNllEstimate:
    def test_bounds_direction(self):
        m = tiny_model(seed=13)
        x = rng.stream(2, "x").random((48, 6))
        nll, se = nll_estimate(m, x, k_prime=1000, rng=rng.stream(3, "nll"))
        est = elbo(m, x, rng=rng.stream(4, "noise"))
        assert nll <= -est.total + 3 * se

    def test_monotone_in_k_in_expectation(self):
        m = tiny_model(seed=13)
        x = rng.stream(2, "x").random((32, 6))
        means = []
        for k in (1, 5, 50, 500):
            vals = [
                nll_estimate(m, x, k_prime=k, rng=rng.stream(50 + r, f"nll{k}"))[0]
                for r in range(8)
            ]
            means.append(np.mean(vals))
        assert means[0] >= means[1] >= means[2] >= means[3]

    def test_empty_dataset_rejected(self):
        m = tiny_model()
        with pytest.raises(InvalidSpecError):
            nll_estimate(m, np.zeros((0, 6)), k_prime=10)

    def test_chunking_consistent(self):
        # the default chunking under the same generator stream gives the same
        # estimate and standard error
        m = tiny_model(seed=13)
        x = rng.stream(2, "x").random((20, 6))
        a = nll_estimate(m, x, k_prime=200, rng=rng.stream(1, "c"))
        b = nll_estimate(m, x, k_prime=200, rng=rng.stream(1, "c"))
        assert a == b  # bitwise reproducible under a fixed stream


class TestEstimateType:
    def test_elbo_rng_matches_noise(self):
        m = tiny_model()
        x = rng.stream(0, "x").random((8, 6))
        # same labeled stream -> same noise -> identical values
        a = elbo(m, x, rng=rng.stream(5, "shared")).total
        noise = rng.stream(5, "shared").standard_normal((8, 2))[None]
        b = elbo(m, x, noise=noise)
        assert a == pytest.approx(b.total, rel=1e-12)
