import math
import sys
import time

import numpy as np
import pytest

import cvteleport as cv
from cvteleport import mc


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
    """float.hex of every sampled estimate field: a change to the drawn normals,
    their order, the kept modes, the chunking or the shard reductions shows up
    here bit for bit."""

    @pytest.mark.parametrize("spec,params,samples,seed,want", [
        (optimal_spec(2, 1, 1, 0.5), cv.ProtocolParams(), 50_000, 1,
         ("0x1.76c891d30513fp-1", "0x1.cbfa6aa28aae7p-11",
          "0x1.757e3fe9a4162p-1", "0x1.78538ed03ef39p-1", "0x1.a8c71ab064c86p+3")),
        (optimal_spec(4, 1.5, 1.1, 1.0), cv.ProtocolParams(gain=0.7), 123_457, 9,
         ("0x1.842556508af37p-1", "0x1.1512ffefded90p-11",
          "0x1.ecb60688ee041p-2", "0x1.9c3b72f758c09p-1", "0x1.b3e2ed61b71b4p+3")),
        (cv.ResourceSpec(5, 1, 1, 0.3, 0.1), cv.ProtocolParams(sender=3, receiver=1), 20_003, 0,
         ("0x1.2883d75129faap-1", "0x1.c3e4acbe4d724p-10",
          "0x1.590273cfd5f9fp+0", "0x1.9003370833d64p+0", "0x1.8082256191ce9p+3")),
        # 65,537 samples per shard: two chunks each
        (cv.ResourceSpec(2, 1, 1, 0.3), cv.ProtocolParams(), 1_048_593, 42,
         ("0x1.4ab3e2310090dp-1", "0x1.d4661f30ab406p-13",
          "0x1.190199717aadcp+0", "0x1.185ea153f9d43p+0", "0x1.58d476eb41ba5p+3")),
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
         ("0x1.6b5675176963bp-5", "0x1.916e2491bd046p+2", "0x1.173a9488ace0bp+2")),
        ([1.0, 0.0, -1.0, 0.0], cv.ResourceSpec(2, 1, 1, 0.5, 0.0), 70_001, 5,
         ("0x1.02e70149b2702p-8", "0x1.7a6864e04af12p-1", "0x1.d452b187b53d6p+3")),
        ([0.3, -0.7, 1.1, 0.2], cv.ResourceSpec(2, 1.2, 1.0, 0.4, 0.1), 1_048_593, 8,
         ("0x1.79fa27865baedp-8", "0x1.0b45b29243427p+2", "0x1.7301242844902p+3")),
    ])
    def test_variance_of_form(self, coefficients, spec, samples, seed, want):
        est = cv.variance_of_form(np.array(coefficients), spec, samples, seed)
        assert (est.std_error.hex(), est.var_x_rel_hat.hex(), est.shard_chi2.hex()) == want
        assert math.isnan(est.fidelity_mean) and math.isnan(est.var_p_tot_hat)
        assert math.isnan(est.gain)


class TestScaledDot:
    """The shard kernel scales the drawn block in place; its result must be
    ``np.multiply(z, s) @ w`` bit for bit, for one kept mode and for several."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
    def test_bitwise_equal_to_the_broadcast(self, k):
        rng = np.random.Generator(np.random.SFC64([7, k]))
        z = rng.standard_normal((62_500, k))
        s, w = rng.uniform(0.05, 20.0, k), rng.normal(size=k)
        want = np.multiply(z, s) @ w
        got = mc._scaled_dot(z.copy(), s, w)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


def serial_shard_sums(spec, cx, cp, samples, seed, forms, dense=False):
    """Reference: the shards one after another, each chunk drawn into fresh
    arrays, as _shard_sums did before its shards ran on threads.  Only the
    modes with |w s| above 1e-15 of the largest are drawn, or all N if dense."""
    O = cv.n_splitter(spec.N).entries[0::2, 0::2]
    wx, wp = O.T @ cx, O.T @ cp
    sx, sp = mc._input_scales(spec)
    if not dense:
        kx = np.abs(wx * sx) > 1e-15 * np.abs(wx * sx).max()
        kp = np.abs(wp * sp) > 1e-15 * np.abs(wp * sp).max()
        wx, sx, wp, sp = wx[kx], sx[kx], wp[kp], sp[kp]
    counts = [samples // mc._SHARDS] * mc._SHARDS
    counts[-1] += samples - sum(counts)
    sums = []
    for shard, count in enumerate(counts):
        rng = np.random.Generator(np.random.SFC64([seed, shard]))
        total = 0.0
        for done in range(0, count, mc._CHUNK):
            m = min(mc._CHUNK, count - done)
            xr = (rng.standard_normal((m, len(wx))) * sx) @ wx
            pt = (rng.standard_normal((m, len(wp))) * sp) @ wp
            total = total + np.array([t for v in forms(xr, pt) for t in (v.sum(), (v * v).sum())])
        sums.append(total.tolist())
    return counts, sums


class TestConcurrentShards:
    """The shards run on mc._WORKERS threads; the sums must not depend on it."""

    SPEC = cv.ResourceSpec(4, 1.5, 1.1, 0.7, 0.1)
    CX, CP = np.array([1.0, -1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.8, 0.8])
    FORMS = {
        "simulate": lambda xr, pt: (xr, pt),
        "variance_of_form": lambda xr, pt: (xr + pt,),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("chunk", [mc._CHUNK, 1000], ids=["one_chunk", "two_chunks"])
    def test_sums_independent_of_worker_count(self, monkeypatch, form, chunk):
        monkeypatch.setattr(mc, "_CHUNK", chunk)
        samples, seed = 16 * 1500 + 7, 11  # shards of 1,500 and 1,507 samples
        args = (self.SPEC, self.CX, self.CP, samples, seed, self.FORMS[form])
        self.assert_sums_at_each_worker_count(monkeypatch, args, serial_shard_sums(*args))

    @pytest.mark.parametrize("chunk", [mc._CHUNK, 1000], ids=["one_chunk", "two_chunks"])
    def test_sparse_equals_dense_when_every_mode_is_weighted(self, monkeypatch, chunk):
        monkeypatch.setattr(mc, "_CHUNK", chunk)
        cx, cp = np.array([1.0, -1.0, 0.0, 0.3]), np.array([1.0, 1.0, 0.8, 0.5])
        args = (self.SPEC, cx, cp, 16 * 1500 + 7, 11, self.FORMS["simulate"])
        O = cv.n_splitter(4).entries[0::2, 0::2]
        sx, sp = mc._input_scales(self.SPEC)
        assert len(mc._kept(O.T @ cx, sx)) == len(mc._kept(O.T @ cp, sp)) == 4  # none dropped
        self.assert_sums_at_each_worker_count(
            monkeypatch, args, serial_shard_sums(*args, dense=True))

    @staticmethod
    def assert_sums_at_each_worker_count(monkeypatch, args, want):
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)  # interleave the worker threads finely
            for workers in (1, 2, 16):
                monkeypatch.setattr(mc, "_WORKERS", workers)
                assert mc._shard_sums(*args) == want, workers
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("workers", [1, 2, 16])
    def test_shard_exception_reaches_caller(self, monkeypatch, workers):
        monkeypatch.setattr(mc, "_WORKERS", workers)
        error = ArithmeticError("shard 15 failed")

        def forms(xr, pt):
            if len(xr) == 105:  # only the last shard holds 16 * 100 + 5 - 15 * 100 samples
                raise error
            return (xr,)

        with pytest.raises(ArithmeticError) as raised:
            mc._shard_sums(self.SPEC, self.CX, self.CP, 16 * 100 + 5, 0, forms)
        assert raised.value is error


def pair_weights(spec, sender, receiver, gain):
    """simulate's forms pulled back onto the input modes, with their scales."""
    cx, cp = np.zeros(spec.N), np.full(spec.N, gain)
    cx[sender], cx[receiver] = 1.0, -1.0
    cp[sender] = cp[receiver] = 1.0
    O = cv.n_splitter(spec.N).entries[0::2, 0::2]
    sx, sp = mc._input_scales(spec)
    return (O.T @ cx, sx), (O.T @ cp, sp)


class TestSparseDraws:
    """Only the input modes a form weights are drawn."""

    @pytest.mark.parametrize("N,kept_x,kept_p", [
        (2, [1], [0]), (3, [1, 2], [0, 1, 2]), (8, [1, 2], [0, 1, 2]),
        (50, [1, 2], [0, 1, 2]), (200, [1, 2], [0, 1, 2]),
    ])
    def test_pair_01_at_optimal_gain(self, N, kept_x, kept_p):
        spec = optimal_spec(N, 1, 1, 0.5)
        (wx, sx), (wp, sp) = pair_weights(spec, 0, 1, cv.fidelity_network(spec).gain_used)
        assert mc._kept(wx, sx).tolist() == kept_x
        assert mc._kept(wp, sp).tolist() == kept_p

    def test_only_negligible_weights_dropped(self):
        spec = cv.ResourceSpec(5, 1, 1, 0.3, 0.1)
        for w, s in pair_weights(spec, 3, 1, 0.7):
            ws = np.abs(w * s)
            dropped = np.setdiff1d(np.arange(5), mc._kept(w, s))
            assert np.all(ws[dropped] <= 1e-15 * ws.max())

    def test_budget_at_50_modes(self):
        # five normals per sample instead of 100: over 1 s with every mode drawn
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
