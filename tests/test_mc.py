import math
import sys

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
        # 15 samples leave a shard empty, which the jackknife cannot take
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
    """float.hex of every estimate field: a change to the drawn normals, their
    order, the chunking or the shard reductions shows up here bit for bit."""

    @pytest.mark.parametrize("spec,params,samples,seed,want", [
        (optimal_spec(2, 1, 1, 0.5), cv.ProtocolParams(), 50_000, 1,
         ("0x1.763e3f3472e8fp-1", "0x1.fffb331e97d7fp-11",
          "0x1.7a04feecdb158p-1", "0x1.77d6c0f2de59bp-1")),
        (optimal_spec(4, 1.5, 1.1, 1.0), cv.ProtocolParams(gain=0.7), 123_457, 9,
         ("0x1.83bcc0c8ce18fp-1", "0x1.d565fe3e42d9bp-12",
          "0x1.f01dd7b345e11p-2", "0x1.9d5570915cefdp-1")),
        (cv.ResourceSpec(5, 1, 1, 0.3, 0.1), cv.ProtocolParams(sender=3, receiver=1), 20_003, 0,
         ("0x1.2911d77607d00p-1", "0x1.8819bd5d9ef1cp-10",
          "0x1.56946b6c239d4p+0", "0x1.8f317f634a153p+0")),
        # 65,537 samples per shard: two chunks each
        (cv.ResourceSpec(2, 1, 1, 0.3), cv.ProtocolParams(), 1_048_593, 42,
         ("0x1.4a769d8f20659p-1", "0x1.979d14b828a81p-13",
          "0x1.196392da357b2p+0", "0x1.19228ed953682p+0")),
    ])
    def test_simulate(self, spec, params, samples, seed, want):
        est = cv.simulate(cv.McConfig(samples=samples, seed=seed, spec=spec, params=params))
        got = (est.fidelity_mean, est.std_error, est.var_x_rel_hat, est.var_p_tot_hat)
        assert tuple(v.hex() for v in got) == want
        assert est.samples == samples

    @pytest.mark.parametrize("coefficients,spec,samples,seed,want", [
        ([-0.8999060592918622, 0.012644597142898784, 0.03846805925942309,
          -0.46959357212557795, -0.7415567102963319, -0.9585379348462681],
         cv.ResourceSpec(3, 1.3, 1.1, 0.6, 0.1), 40_000, 0,
         ("0x1.dfd6755420be2p-6", "0x1.94d8f5fdd0e9ep+2")),
        ([1.0, 0.0, -1.0, 0.0], cv.ResourceSpec(2, 1, 1, 0.5, 0.0), 70_001, 5,
         ("0x1.340f68f05a36cp-8", "0x1.7aca0123285f0p-1")),
        ([0.3, -0.7, 1.1, 0.2], cv.ResourceSpec(2, 1.2, 1.0, 0.4, 0.1), 1_048_593, 8,
         ("0x1.7afe7e9170c8fp-8", "0x1.0a56d4ab869cep+2")),
    ])
    def test_variance_of_form(self, coefficients, spec, samples, seed, want):
        est = cv.variance_of_form(np.array(coefficients), spec, samples, seed)
        assert (est.std_error.hex(), est.var_x_rel_hat.hex()) == want
        assert math.isnan(est.fidelity_mean) and math.isnan(est.var_p_tot_hat)


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


def serial_shard_sums(spec, cx, cp, samples, seed, forms):
    """Reference: the shards one after another, each chunk drawn into fresh
    arrays, as _shard_sums did before its shards ran on threads."""
    O = cv.n_splitter(spec.N).entries[0::2, 0::2]
    wx, wp = O.T @ cx, O.T @ cp
    sx, sp = mc._input_scales(spec)
    counts = [samples // mc._SHARDS] * mc._SHARDS
    counts[-1] += samples - sum(counts)
    sums = []
    for shard, count in enumerate(counts):
        rng = np.random.Generator(np.random.Philox(key=[seed, shard]))
        total = 0.0
        for done in range(0, count, mc._CHUNK):
            m = min(mc._CHUNK, count - done)
            xr = (rng.standard_normal((m, spec.N)) * sx) @ wx
            pt = (rng.standard_normal((m, spec.N)) * sp) @ wp
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
        want = serial_shard_sums(*args)
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
