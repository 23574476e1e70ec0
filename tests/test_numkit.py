import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odup.numkit import Adam, Rng, choice_cdf, gumbel_from_uniform, sigmoid, softmax, softplus

from helpers import grad_check, log_softmax, sample_gumbel


class TestSoftmax:
    def test_symmetry(self):
        out = softmax([0.0, 0.0, 0.0])
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_argmax_limit(self):
        out = softmax(np.array([10.0, 0.0, 0.0]) / 0.01)
        assert out[0] >= 1 - 1e-9

    def test_frozen_values(self):
        # oracle: exp(v) / sum(exp(v)) evaluated at high precision
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        assert np.allclose(softmax([1.0, 2.0, 3.0]), expected, atol=1e-12)

    def test_order_preserving(self):
        v = np.array([0.3, -1.2, 2.0, 0.31])
        out = softmax(v)
        assert np.array_equal(np.argsort(out), np.argsort(v))

    def test_nonfinite_input_gives_nan(self):
        # no scan: train_codec's loss check reports the NaN as divergence
        with np.errstate(invalid="ignore"):
            assert np.isnan(softmax([1.0, np.nan])).all()
            assert np.isnan(softmax([1.0, np.inf])).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            softmax([])

    @settings(max_examples=100)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=30),
        st.floats(0.01, 10.0),
    )
    def test_probability_vector(self, values, tau):
        out = softmax(np.array(values) / tau)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out >= 0)


class TestGumbel:
    def test_transform_at_half(self):
        # -log(-log 0.5) evaluated directly
        assert abs(gumbel_from_uniform(0.5) - 0.36651292058166435) < 1e-12

    def test_clamping_keeps_finite(self):
        assert np.isfinite(gumbel_from_uniform(0.0))
        assert np.isfinite(gumbel_from_uniform(1.0))

    def test_deterministic_per_seed(self):
        a = sample_gumbel(Rng(99).child("noise"), 64)
        b = sample_gumbel(Rng(99).child("noise"), 64)
        assert np.array_equal(a, b)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            sample_gumbel(Rng(0), 0)


class TestRng:
    def test_same_seed_same_sequence(self):
        assert np.array_equal(Rng(7).uniform(10), Rng(7).uniform(10))

    def test_children_independent(self):
        r = Rng(7)
        a = r.child("alpha").uniform(8)
        b = r.child("beta").uniform(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(7).child("alpha").uniform(8))

    def test_never_global_state(self):
        np.random.seed(123)
        before = np.random.get_state()[1].copy()
        Rng(7).uniform(100)
        assert np.array_equal(before, np.random.get_state()[1])

    @pytest.mark.parametrize("size", [1, 10])
    def test_inverse_cdf_draws_what_generator_choice_draws(self, size):
        # zero entries leave steps in the table that no uniform may land on
        w = np.array([0.0, 3.0, 0.0, 1.0, 0.5, 0.0, 2.0, 0.0])
        p = w / w.sum()
        ours, theirs = Rng(11), Rng(11)._gen
        got = ours.inverse_cdf(choice_cdf(p), size)
        want = theirs.choice(len(p), size, replace=True, p=p)
        assert got.tolist() == want.tolist() and got.shape == (size,)
        assert not np.isin(got, np.flatnonzero(p == 0)).any()
        assert ours.uniform() == theirs.random()

    def test_inverse_cdf_breaks_ties_as_generator_choice_does(self):
        # uniforms that land exactly on the table's steps, 0.0 included,
        # must not pick an index of zero probability
        class Fixed(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.array([0.0, 0.5, 0.25, 0.5, 0.75])[:size]

        p = np.array([0.0, 0.5, 0.0, 0.5])
        rng = Rng(0)
        rng._gen = Fixed(np.random.PCG64(0))
        want = rng._gen.choice(len(p), 5, replace=True, p=p)
        assert rng.inverse_cdf(choice_cdf(p), 5).tolist() == want.tolist() == [1, 3, 1, 3, 3]

    @pytest.mark.parametrize("n, size", [(50, 0), (50, 7), (50, 50), (1, 1)])
    def test_sample_is_generator_choice_sorted(self, n, size):
        ours, theirs = Rng(13), Rng(13)._gen
        got = ours.sample(n, size)
        want = theirs.choice(n, size=size, replace=False)
        assert got.tolist() == sorted(want.tolist())
        assert got.shape == (size,) and np.all(np.diff(got) > 0)
        # the stream continues where Generator.choice leaves it
        assert ours.uniform() == theirs.random()

    def test_choice_cdf_ends_at_one_and_keeps_an_empty_table(self):
        cdf = choice_cdf(np.array([0.1, 0.2, 0.7]))
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) > 0)
        assert choice_cdf(np.array([])).size == 0


class TestGradCheck:
    def test_quadratic_exact(self):
        err = grad_check(lambda x: float(x[0] ** 2), [6.0], [3.0], h=1e-5)
        assert err <= 1e-8

    def test_sigmoid_sum(self):
        rng = Rng(3)
        point = rng.uniform(6) * 2 - 1

        def f(x):
            return float(np.sum(sigmoid(x)))

        analytic = sigmoid(point) * (1 - sigmoid(point))
        assert grad_check(f, analytic, point, h=1e-5) <= 1e-6

    def test_wrong_gradient_reports_third(self):
        # |cd - 2a| / (|2a| + |cd|) -> 1/3 when analytic is doubled
        point = np.array([1.5, -0.7])

        def f(x):
            return float(np.sum(x**2))

        err = grad_check(f, 2 * (2 * point), point, h=1e-6)
        assert abs(err - 1 / 3) < 1e-4

    def test_nonfinite_f_raises(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: float("nan"), [1.0], [1.0])


class TestShapeAlgebra:
    def test_matmul_shapes(self):
        a = np.zeros((2, 3))
        b = np.zeros((3, 4))
        assert (a @ b).shape == (2, 4)

    def test_matmul_mismatch_rejected(self):
        with pytest.raises(ValueError):
            np.zeros((2, 3)) @ np.zeros((4, 5))


class TestAdam:
    def test_minimizes_quadratic(self):
        x = np.array([5.0, -3.0])
        adam = Adam([x], lr=0.1)
        for _ in range(500):
            adam.step([2 * x])
        assert np.all(np.abs(x) < 1e-3)

    def test_lr_zero_is_bitwise_noop(self):
        x = np.array([1.2345, -0.5])
        orig = x.copy()
        adam = Adam([x], lr=0.0)
        for _ in range(5):
            adam.step([np.array([1.0, -2.0])])
        assert np.array_equal(x, orig)

    def test_zero_grad_never_moves(self):
        x = np.array([0.7, -0.1])
        orig = x.copy()
        adam = Adam([x], lr=0.05)
        for _ in range(10):
            adam.step([np.zeros(2)])
        assert np.array_equal(x, orig)

    @staticmethod
    def oracle_step(params, grads, ms, vs, t, lr, b1=0.9, b2=0.999, eps=1e-8):
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, m, v in zip(params, grads, ms, vs):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

    def test_matches_expression_oracle_bitwise(self):
        rng = np.random.default_rng(4)
        shapes = [(19, 7), (7,), (1,)]
        params = [rng.normal(size=s) for s in shapes]
        ref = [p.copy() for p in params]
        ms = [np.zeros(s) for s in shapes]
        vs = [np.zeros(s) for s in shapes]
        adam = Adam(params, lr=0.03)
        for t in range(1, 21):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s) for s in shapes]
            grads[0][rng.random(shapes[0]) < 0.3] = 0.0
            adam.step(grads)
            self.oracle_step(ref, grads, ms, vs, t, 0.03)
            for p, r in zip(params, ref):
                assert np.array_equal(p, r)

    def test_float32_parameters_step_in_float32(self):
        # as the recommender steps its float32 table beside its float64
        # gate: each parameter's moments take its dtype, and each step is
        # the expression evaluated in that dtype, bit for bit
        rng = np.random.default_rng(5)
        shapes, dtypes = [(19, 7), (1,)], [np.float32, np.float64]
        params = [rng.normal(size=s).astype(dt) for s, dt in zip(shapes, dtypes)]
        ref = [p.copy() for p in params]
        ms = [np.zeros(s, dt) for s, dt in zip(shapes, dtypes)]
        vs = [np.zeros(s, dt) for s, dt in zip(shapes, dtypes)]
        adam = Adam(params, lr=0.01)
        for t in range(1, 21):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s).astype(dt)
                     for s, dt in zip(shapes, dtypes)]
            adam.step(grads)
            self.oracle_step(ref, grads, ms, vs, t, 0.01)
            for p, r, dt in zip(params, ref, dtypes):
                assert p.dtype == r.dtype == dt and p.tobytes() == r.tobytes()
        moments = [(m.dtype, v.dtype) for m, v in zip(adam._m, adam._v)]
        assert moments == [(np.dtype(dt),) * 2 for dt in dtypes]

    @pytest.mark.parametrize("count", [1, 3], ids=["one-too-few", "one-too-many"])
    def test_gradient_count_must_match_parameters(self, count):
        params = [np.ones(3), np.ones(2)]
        adam = Adam(params, lr=0.1)
        with pytest.raises(ValueError, match=f"{count} gradients for 2 parameters"):
            adam.step([np.ones(3), np.ones(2), np.ones(1)][:count])
        assert adam.t == 0
        assert all(np.array_equal(p, np.ones(p.shape)) for p in params)

    def test_moments_allocated_at_construction(self):
        # the recommender's float32 table and float64 gate
        params = [np.ones((5, 3), np.float32), np.zeros(1)]
        adam = Adam(params, lr=0.1)
        for moments in (adam._m, adam._v):
            assert [(m.shape, m.dtype) for m in moments] == [((5, 3), np.float32), ((1,), np.float64)]
            assert not any(m.any() for m in moments)


class TestSoftplus:
    Z = np.linspace(-800.0, 800.0, 160001)

    def test_matches_logaddexp_without_overflow(self):
        # e^-|z| underflows to a subnormal or zero for |z| > 708, which is
        # its correctly rounded value (the logaddexp reference underflows
        # there too); overflow and invalid operations must not occur
        with np.errstate(all="raise", under="ignore"):
            sp = softplus(self.Z)
            ref = np.logaddexp(0.0, self.Z)
        assert np.max(np.abs(sp - ref)) <= 1e-15

    def test_sigmoid_from_softplus(self):
        with np.errstate(all="raise", under="ignore"):
            derived = np.exp(self.Z - softplus(self.Z))
            ref = sigmoid(self.Z)
        # z - softplus(z) cancels for large positive z, so the absolute
        # error grows with the rounding of softplus(z): half an ulp of |z|
        assert np.all(np.abs(derived - ref) <= 1e-15 + 2.0**-53 * np.abs(self.Z))
        small = np.abs(self.Z) <= 8.0
        assert np.max(np.abs(derived - ref)[small]) <= 1e-15

    def test_no_warning_under_default_errstate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.exp(self.Z - softplus(self.Z))


def test_log_softmax_matches_log_of_softmax():
    v = np.array([0.1, 2.0, -3.0, 0.4])
    assert np.allclose(log_softmax(v), np.log(softmax(v)), atol=1e-12)
