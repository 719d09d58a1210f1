import math
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

import cvteleport as cv
from cvteleport import mc
from oracles import ks_two_sample, per_sample_shard_sums


def optimal_spec(N, n1, n2, rbar):
    return cv.ResourceSpec(N, n1, n2, rbar, cv.d_N_opt(N, n1, n2, rbar),
                           constrain_bias=False)


class TestSimulate:
    def test_two_mode_agreement(self):
        spec = optimal_spec(2, 1, 1, 0.5)
        est = cv.simulate(cv.McConfig(samples=400_000, seed=1, spec=spec))
        analytic = 1 / (1 + math.exp(-1))
        assert abs(est.fidelity_mean - analytic) < 3 * est.std_error

    def test_three_mode_agreement(self):
        spec = optimal_spec(3, 1, 1, 0.5)
        est = cv.simulate(cv.McConfig(samples=400_000, seed=2, spec=spec))
        analytic = cv.optimal_fidelity(3, 1, 1, 0.5).fidelity_opt
        assert abs(est.fidelity_mean - analytic) < 3 * est.std_error

    def test_deterministic(self):
        spec = optimal_spec(3, 1.2, 1.0, 0.4)
        cfg = cv.McConfig(samples=50_000, seed=777, spec=spec)
        a, b = cv.simulate(cfg), cv.simulate(cfg)
        assert a == b  # bit-identical, all fields

    def test_seed_changes_estimate(self):
        spec = optimal_spec(2, 1, 1, 0.3)
        a = cv.simulate(cv.McConfig(samples=50_000, seed=1, spec=spec))
        b = cv.simulate(cv.McConfig(samples=50_000, seed=2, spec=spec))
        assert a.fidelity_mean != b.fidelity_mean

    def test_error_shrinks_with_samples(self):
        # doubling samples shrinks the standard error by sqrt(2) +- 15 %
        spec = optimal_spec(2, 1, 1, 0.5)
        ratios = []
        for seed in range(10):
            small = cv.simulate(cv.McConfig(samples=40_000, seed=seed, spec=spec))
            big = cv.simulate(cv.McConfig(samples=80_000, seed=seed + 100, spec=spec))
            ratios.append(small.std_error / big.std_error)
        assert np.mean(ratios) == pytest.approx(math.sqrt(2), rel=0.15)

    def test_guards(self):
        spec = optimal_spec(2, 1, 1, 0.5)
        with pytest.raises(ValueError):
            cv.McConfig(samples=1, seed=0, spec=spec)

    @pytest.mark.parametrize("samples,seed,field", [
        (10.5, 1, "samples"), (1e6, 1, "samples"), (15, 1, "samples"),
        (1000, 1.5, "seed"), (1000, -1, "seed"), (1000, "1", "seed"),
    ])
    def test_config_fields_checked(self, samples, seed, field):
        # 15 samples leave a shard empty, with no variance for its shard_chi2 term
        spec = optimal_spec(2, 1, 1, 0.5)
        with pytest.raises(ValueError, match=field):
            cv.McConfig(samples=samples, seed=seed, spec=spec)
        with pytest.raises(ValueError, match=field):
            cv.variance_of_form(np.zeros(4), spec, samples, seed)

    @pytest.mark.parametrize("sender,receiver", [(-1, 0), (0, -2), (0, 5), (3, 1)])
    def test_sender_receiver_checked(self, sender, receiver):
        spec = optimal_spec(3, 1, 1, 0.5)
        params = cv.ProtocolParams(sender=sender, receiver=receiver)
        with pytest.raises(ValueError, match="sender/receiver"):
            cv.simulate(cv.McConfig(samples=1000, seed=0, spec=spec, params=params))
        with pytest.raises(ValueError, match="sender/receiver"):
            cv.fidelity_network(spec, params)


class TestPinnedDraws:
    """float.hex of every sampled estimate field: a change to the drawn normals or
    chi-squares, their order, the shard sizes or the shard reductions shows up here
    bit for bit."""

    @pytest.mark.parametrize("spec,params,samples,seed,want", [
        (optimal_spec(2, 1, 1, 0.5), cv.ProtocolParams(), 50_000, 1,
         ("0x1.7639acb24067ap-1", "0x1.cd292759441d9p-11",
          "0x1.79d7d860f9fecp-1", "0x1.78260d299bb61p-1", "0x1.10248c2c11b2dp+4")),
        (optimal_spec(4, 1.5, 1.1, 1.0), cv.ProtocolParams(gain=0.7), 123_457, 9,
         ("0x1.838ee37188d3ap-1", "0x1.15cd6f23961acp-11",
          "0x1.f32f057c4d3cbp-2", "0x1.9cee3d95d0f54p-1", "0x1.7cd7d38942b68p+3")),
        (cv.ResourceSpec(5, 1, 1, 0.3, 0.1), cv.ProtocolParams(sender=3, receiver=1), 20_003, 0,
         ("0x1.28ff0df570f2dp-1", "0x1.c3a699d959f80p-10",
          "0x1.5411f00a26b98p+0", "0x1.925431534f605p+0", "0x1.36635d0e53e76p+3")),
        # 65,537 samples in each shard but the last, which holds 65,538
        (cv.ResourceSpec(2, 1, 1, 0.3), cv.ProtocolParams(), 1_048_593, 42,
         ("0x1.4a7956fe7401ap-1", "0x1.d4aa5d188f8e3p-13",
          "0x1.18cc0e7317d82p+0", "0x1.19ad0da96fb38p+0", "0x1.7ab8125d3ccc8p+4")),
    ])
    def test_simulate(self, spec, params, samples, seed, want):
        est = cv.simulate(cv.McConfig(samples=samples, seed=seed, spec=spec, params=params))
        got = (est.fidelity_mean, est.std_error, est.var_x_rel_hat, est.var_p_tot_hat,
               est.shard_chi2)
        assert tuple(v.hex() for v in got) == want
        assert est.samples == samples

    @pytest.mark.parametrize("coefficients,spec,samples,seed,want", [
        ([-0.8999060592918622, 0.012644597142898784, 0.03846805925942309,
          -0.46959357212557795, -0.7415567102963319, -0.9585379348462681],
         cv.ResourceSpec(3, 1.3, 1.1, 0.6, 0.1), 40_000, 0,
         ("0x1.6d2267fc3395ep-5", "0x1.936a501c3d762p+2", "0x1.a209f638ea287p+2")),
        ([1.0, 0.0, -1.0, 0.0], cv.ResourceSpec(2, 1, 1, 0.5, 0.0), 70_001, 5,
         ("0x1.019c467dd59ffp-8", "0x1.78850129e6426p-1", "0x1.c35098829884bp+3")),
        ([0.3, -0.7, 1.1, 0.2], cv.ResourceSpec(2, 1.2, 1.0, 0.4, 0.1), 1_048_593, 8,
         ("0x1.78fa9358b6cdcp-8", "0x1.0a90f98283295p+2", "0x1.7e627bb9f3995p+3")),
    ])
    def test_variance_of_form(self, coefficients, spec, samples, seed, want):
        est = cv.variance_of_form(np.array(coefficients), spec, samples, seed)
        assert (est.std_error.hex(), est.var_x_rel_hat.hex(), est.shard_chi2.hex()) == want
        assert math.isnan(est.fidelity_mean) and math.isnan(est.var_p_tot_hat)
        assert math.isnan(est.gain)


class TestVarianceOfForm:
    def test_zero_coefficients(self):
        spec = cv.ResourceSpec(2, 1, 1, 0.5, 0.0)
        est = cv.variance_of_form(np.zeros(4), spec, samples=10_000, seed=3)
        assert est.var_x_rel_hat == 0.0

    def test_single_mode_vacuum_x(self):
        spec = cv.ResourceSpec(2, 1, 1, 0.0, 0.0)
        c = np.array([1.0, 0.0, 0.0, 0.0])
        est = cv.variance_of_form(c, spec, samples=200_000, seed=4)
        assert abs(est.var_x_rel_hat - 1.0) < 3 * est.std_error

    def test_x_rel_two_mode(self):
        spec = cv.ResourceSpec(2, 1, 1, 0.5, 0.0)
        c = np.array([1.0, 0.0, -1.0, 0.0])
        est = cv.variance_of_form(c, spec, samples=400_000, seed=5)
        assert abs(est.var_x_rel_hat - 2 * math.exp(-1)) < 3 * est.std_error

    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(29)
        spec = cv.ResourceSpec(3, 1.3, 1.1, 0.6, 0.1)
        sigma = cv.build_resource(spec).entries
        for seed in range(3):
            c = rng.uniform(-1, 1, size=6)
            exact = float(c @ sigma @ c)
            est = cv.variance_of_form(c, spec, samples=400_000, seed=seed)
            assert abs(est.var_x_rel_hat - exact) < 4 * est.std_error

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            cv.variance_of_form(np.zeros(3), cv.ResourceSpec(2, 1, 1, 0.1), 100, 0)


class TestExactDraws:
    """The exact-distribution draw against the per-sample oracle: two-sample KS tests
    over 1,000 seeds a side, at alpha = 1e-3, on every estimate field."""

    SPEC = cv.ResourceSpec(4, 1.5, 1.1, 0.7, 0.1)
    PARAMS = cv.ProtocolParams(sender=2, receiver=0, gain=0.8)
    FORM = np.random.default_rng(5).uniform(-1, 1, size=8)
    SAMPLES, ALPHA = 640, 1e-3

    def fields(self, seeds):
        """Per seed: simulate's F, vx, vp and shard_chi2, variance_of_form's v and chi2."""
        rows = []
        for seed in seeds:
            est = cv.simulate(cv.McConfig(self.SAMPLES, seed, self.SPEC, self.PARAMS))
            form = cv.variance_of_form(self.FORM, self.SPEC, self.SAMPLES, seed)
            rows.append((est.fidelity_mean, est.var_x_rel_hat, est.var_p_tot_hat,
                         est.shard_chi2, form.var_x_rel_hat, form.shard_chi2))
        return np.array(rows).T

    def test_same_distribution_as_per_sample_draws(self, monkeypatch):
        exact = self.fields(range(1000))
        monkeypatch.setattr(mc, "_shard_sums", per_sample_shard_sums)
        per_sample = self.fields(range(1000, 2000))
        for name, a, b in zip(("F", "vx", "vp", "chi2", "form", "form_chi2"), exact, per_sample):
            assert ks_two_sample(a, b)[1] > self.ALPHA, name

    def test_a_five_percent_p_variance_defect_is_seen(self, monkeypatch):
        exact = self.fields(range(1000))
        form_variances = mc.form_variances
        monkeypatch.setattr(mc, "form_variances",
                            lambda *args: (lambda vx, vp: (vx, 1.05 * vp))(*form_variances(*args)))
        assert ks_two_sample(exact[2], self.fields(range(1000, 2000))[2])[1] < self.ALPHA


class TestDrawCounts:
    """Counts, not clocks: one generator per estimate, drawing 16 shards x 2 statistics
    per form, whatever the sample count or N."""

    @pytest.fixture
    def draws(self, monkeypatch):
        count = {"generators": 0, "variates": 0}

        class Counting:
            def __init__(self, bits):
                count["generators"] += 1
                self.rng = np.random.Generator(bits)

            def __getattr__(self, name):
                def counted(*args, **kwargs):
                    out = getattr(self.rng, name)(*args, **kwargs)
                    count["variates"] += np.size(out)
                    return out
                return counted

        monkeypatch.setattr(mc, "Generator", Counting)
        return count

    @pytest.mark.parametrize("N", [2, 1000])
    @pytest.mark.parametrize("samples", [16, 1_000_000, 1_048_593])
    def test_per_estimate(self, draws, N, samples):
        spec = optimal_spec(N, 1, 1, 0.5)
        cv.simulate(cv.McConfig(samples=samples, seed=3, spec=spec))
        assert draws == {"generators": 1, "variates": 64}
        cv.variance_of_form(np.ones(2 * N), spec, samples, seed=3)
        assert draws == {"generators": 2, "variates": 96}

    def test_memory_is_linear_in_N(self, draws):
        """At 10^5 modes an estimate allocates a few length-N vectors, at most 8 x 8N
        bytes: no N x N matrix (which would take 80 GB) is built."""
        N = 100_000
        config = cv.McConfig(samples=1_000_000, seed=3, spec=optimal_spec(N, 1, 1, 0.5))
        tracemalloc.start()
        try:
            cv.simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws == {"generators": 1, "variates": 64}
        assert peak <= 8 * 8 * N, peak


class TestFormVariances:
    """The variances the sampler draws from are the closed form's and the dense
    resource's, to rounding."""

    @pytest.mark.parametrize("N", [2, 3, 50, 1000, 10_000, 100_000])
    @pytest.mark.parametrize("n1,n2,rbar,d", [(1, 1, 0.5, 0.0), (1.5, 1.2, 3.0, 0.4),
                                              (2, 1, 6.0, -1.0)])
    def test_pair_forms_against_network_variances(self, N, n1, n2, rbar, d):
        spec = cv.ResourceSpec(N, n1, n2, rbar, d, constrain_bias=False)
        for (sender, receiver), g in product(((0, 1), (1, 0), (N - 1, 0)),
                                             (0.0, 0.3, 1.0, spec.iso.gain)):
            got = mc.form_variances(N, spec.variances, *mc.pair_forms(N, sender, receiver, g))
            want = cv.network_variances(N, spec.variances, g)
            assert got == pytest.approx(want, rel=1e-12, abs=0), (sender, receiver, g)

    @pytest.mark.parametrize("N", [2, 3, 8, 50])
    @pytest.mark.parametrize("rbar", [0.0, 1.0, 3.0])
    def test_any_form_against_the_dense_resource(self, N, rbar):
        """For any 2N-vector c, the x and p variances sum to c^T sigma c (the form
        ``variance_of_form`` samples), with sigma from ``build_resource``."""
        rng = np.random.default_rng(N)
        for n1, n2, d in ((1, 1, 0.0), (1.5, 1.2, rbar / 2), (2, 1, -rbar)):
            spec = cv.ResourceSpec(N, n1, n2, rbar, d)
            sigma = cv.build_resource(spec).entries
            for c in rng.uniform(-1, 1, size=(10, 2 * N)):
                got = sum(mc.form_variances(N, spec.variances, c[0::2], c[1::2]))
                assert got == pytest.approx(c @ sigma @ c, rel=1e-12, abs=0)


class TestSparseDraws:
    """A draw's cost depends on neither the sample count nor N."""

    def test_budget_at_50_modes(self):
        cfg = cv.McConfig(samples=1_000_000, seed=42, spec=optimal_spec(50, 1, 1, 0.5))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            cv.simulate(cfg)
            times.append(time.perf_counter() - t0)
        assert min(times) < 0.2, times


class TestStandardError:
    """The Gaussian plug-in standard errors, and the shard-consistency chi^2."""

    @pytest.mark.parametrize("spec,params", [
        (optimal_spec(2, 1, 1, 0.5), cv.ProtocolParams()),
        (optimal_spec(3, 1, 1, 0.5), cv.ProtocolParams()),
        (optimal_spec(4, 1, 1, 1.0), cv.ProtocolParams()),
        (cv.ResourceSpec(5, 1.2, 1.0, 0.6, 0.1), cv.ProtocolParams(sender=3, receiver=1, gain=0.7)),
    ])
    def test_simulate_se_is_the_delta_method_at_the_truth(self, spec, params):
        n = 200_000
        est = cv.simulate(cv.McConfig(samples=n, seed=13, spec=spec, params=params))
        exact = cv.fidelity_network(spec, params)  # from network_variances
        vx, vp = exact.var_x_rel, exact.var_p_tot
        se = exact.fidelity / 2 * math.sqrt(2 / (n - 1)) * math.hypot(vx / (vx + 2), vp / (vp + 2))
        assert est.std_error == pytest.approx(se, rel=0.02)
        assert est.gain == exact.gain_used

    def test_variance_of_form_se(self):
        n, spec = 200_000, cv.ResourceSpec(3, 1.3, 1.1, 0.6, 0.1)
        c = np.random.default_rng(31).uniform(-1, 1, size=6)
        exact = float(c @ cv.build_resource(spec).entries @ c)
        est = cv.variance_of_form(c, spec, samples=n, seed=14)
        assert est.std_error == pytest.approx(exact * math.sqrt(2 / (n - 1)), rel=0.02)

    @pytest.mark.parametrize("samples", [16, 31, 32])
    def test_smallest_sample_counts(self, samples):
        # shards of one sample have no variance: the estimate stands, its chi^2 is NaN
        spec = optimal_spec(3, 1, 1, 0.5)
        est = cv.simulate(cv.McConfig(samples=samples, seed=5, spec=spec))
        form = cv.variance_of_form(np.ones(6), spec, samples, seed=5)
        for e in (est, form):
            assert math.isfinite(e.std_error) and math.isfinite(e.var_x_rel_hat)
            assert math.isnan(e.shard_chi2) == (samples < 32)

    def test_shard_chi2_has_15_degrees_of_freedom(self):
        spec = optimal_spec(3, 1, 1, 0.5)
        chi2 = [cv.simulate(cv.McConfig(samples=16_000, seed=seed, spec=spec)).shard_chi2
                for seed in range(100)]
        assert 12 < np.mean(chi2) < 18
