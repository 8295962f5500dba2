import math
import tracemalloc

import numpy as np
import pytest

from polaron2d._quad import (QuadratureError, adaptive_gk15,
                             arc_adaptive_batch, leggauss, lockstep_gk15)


class TestAdaptiveGK:
    def test_polynomial_exact(self):
        val = adaptive_gk15(lambda x: x * x, 0.0, 1.0, 1e-12, 1e-14)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_sine(self):
        val = adaptive_gk15(np.sin, 0.0, math.pi, 1e-12, 1e-14)
        assert val == pytest.approx(2.0, rel=1e-13)

    def test_oscillatory(self):
        val = adaptive_gk15(lambda x: np.cos(50.0 * x), 0.0, 1.0, 1e-12, 1e-14)
        assert val == pytest.approx(math.sin(50.0) / 50.0, rel=1e-11)

    def test_sqrt_endpoint(self):
        val = adaptive_gk15(np.sqrt, 0.0, 1.0, 1e-12, 1e-14,
                            max_subdivisions=400)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_empty_interval(self):
        assert adaptive_gk15(np.sin, 2.0, 2.0, 1e-12, 1e-14) == 0.0

    def test_reversed_interval_is_negated(self):
        fwd = adaptive_gk15(np.exp, 0.0, 1.0, 1e-12, 1e-14)
        rev = adaptive_gk15(np.exp, 1.0, 0.0, 1e-12, 1e-14)
        assert rev == pytest.approx(-fwd, rel=1e-14)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_gk15(lambda x: np.abs(np.sin(200.0 / (x + 1e-3))),
                          0.0, 1.0, 1e-13, 1e-15, max_subdivisions=3)

    def test_panels_first_pass_is_one_call(self):
        sizes = []

        def f(x):
            sizes.append(len(x))
            return np.exp(x)

        val = adaptive_gk15(f, 0.0, 2.0, 1e-12, 1e-14, panels=8)
        assert val == pytest.approx(math.e ** 2 - 1.0, rel=1e-14)
        assert sizes == [8 * 15]

    def test_panels_then_bisection(self):
        # a peak narrower than one first-pass panel still needs bisection
        def peaked(x):
            return 1.0 / ((x - 0.3) ** 2 + 1e-6)

        sizes = []

        def f(x):
            sizes.append(len(x))
            return peaked(x)

        val = adaptive_gk15(f, 0.0, 1.0, 1e-11, 1e-14, panels=4)
        expected = (math.atan(0.7 / 1e-3) + math.atan(0.3 / 1e-3)) / 1e-3
        assert val == pytest.approx(expected, rel=1e-10)
        assert sizes[0] == 4 * 15 and set(sizes[1:]) == {15}
        reverse = adaptive_gk15(peaked, 1.0, 0.0, 1e-11, 1e-14, panels=4)
        assert reverse == pytest.approx(-val, rel=1e-12)


class TestLockstep:
    """lockstep_gk15 runs adaptive_gk15's algorithm on every row."""

    centres = np.array([0.3, 0.5, 0.71, 0.9])
    widths = np.array([1e-1, 1e-3, 1e-2, 3e-4])

    def peaked(self, x, rows):
        c, w = self.centres[rows, None], self.widths[rows, None]
        return w / ((x - c) ** 2 + w * w)

    @pytest.mark.parametrize("panels", [1, 4])
    def test_rows_match_scalar_routine(self, panels):
        shapes = []

        def f(x, rows):
            shapes.append(x.shape)
            return self.peaked(x, rows)

        got, failures = lockstep_gk15(f, 4, 0.0, 1.0, 1e-11, 1e-14,
                                      panels=panels)
        assert failures == [None] * 4
        for i in range(4):
            want = adaptive_gk15(lambda x: self.peaked(x, np.array([i]))[0],
                                 0.0, 1.0, 1e-11, 1e-14, panels=panels)
            assert got[i] == pytest.approx(want, rel=1e-15)
        # one call for the first pass of all rows, then one per round with
        # the two halves of every unconverged row, fewer rows each time
        assert shapes[0] == (4, 15 * panels)
        assert all(k == 30 for _, k in shapes[1:])
        active = [m for m, _ in shapes[1:]]
        assert active == sorted(active, reverse=True) and active[-1] == 1
        assert len(shapes) > 5

    def test_budget_exhaustion_is_reported_per_row(self):
        # rows need 9, 29, 19 and 31 subdivisions
        got, failures = lockstep_gk15(self.peaked, 4, 0.0, 1.0, 1e-11, 1e-14,
                                      max_subdivisions=20)
        assert failures[0] is None and failures[2] is None
        assert got[0] == pytest.approx(
            math.atan(7.0) + math.atan(3.0), rel=1e-11)
        for i in (1, 3):
            with pytest.raises(QuadratureError) as want:
                adaptive_gk15(lambda x: self.peaked(x, np.array([i]))[0],
                              0.0, 1.0, 1e-11, 1e-14, max_subdivisions=20)
            assert isinstance(failures[i], QuadratureError)
            assert str(failures[i]) == str(want.value)

    def test_empty_interval_and_no_rows(self):
        got, failures = lockstep_gk15(self.peaked, 4, 1.0, 1.0, 1e-11, 1e-14)
        assert got.tolist() == [0.0] * 4 and failures == [None] * 4
        got, failures = lockstep_gk15(self.peaked, 0, 0.0, 1.0, 1e-11, 1e-14)
        assert got.shape == (0,) and failures == []


    def test_store_grows_on_demand(self):
        # 128 rows that converge on the first pass under a budget of 10**4;
        # a panel store sized by the budget would take about 80 MB
        calls = []

        def smooth(x, rows):
            calls.append(len(rows))
            return np.exp(x) * (1.0 + rows[:, None])

        tracemalloc.start()
        try:
            got, failures = lockstep_gk15(smooth, 128, 0.0, 1.0, 1e-12,
                                          1e-14, max_subdivisions=10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [128] and failures == [None] * 128
        assert got == pytest.approx((math.e - 1.0) * np.arange(1, 129),
                                    rel=1e-14)
        assert peak < 2**20

    def test_long_row_equals_scalar_routine(self):
        # 356 of a 400-step budget: the store grows many times on the way
        def f(x):
            return np.sqrt(np.abs(np.cos(30.0 * x)))

        calls = []

        def rows_f(x, rows):
            calls.append(x.shape)
            return f(x)

        got, failures = lockstep_gk15(rows_f, 1, 0.0, 1.0, 1e-12, 1e-14,
                                      max_subdivisions=400)
        assert failures == [None] and len(calls) == 1 + 356
        assert got[0] == adaptive_gk15(f, 0.0, 1.0, 1e-12, 1e-14,
                                       max_subdivisions=400)

    @pytest.mark.parametrize("panels", [2, 4])
    @pytest.mark.parametrize("f", [
        lambda x: 1.0 / (x * x + 0.05 ** 2),
        lambda x: 1.0 / np.cosh(x / 0.03),
    ], ids=["lorentzian", "sech"])
    def test_tied_panels_go_lowest_counter_first(self, f, panels):
        # even about the midpoint of [-1, 1]: mirrored panels have equal
        # error estimates, and which one is bisected first shows in the
        # last bits, so this pins the heap's lowest-counter-first rule
        got, failures = lockstep_gk15(lambda x, rows: f(x), 1, -1.0, 1.0,
                                      1e-12, 1e-14, 400, panels)
        assert failures == [None]
        assert got[0] == adaptive_gk15(f, -1.0, 1.0, 1e-12, 1e-14, 400,
                                       panels)


class TestArcBatch:
    def test_rows_with_different_intervals(self):
        hi = np.array([0.5, 1.0, 2.0, math.pi])
        lo = np.zeros_like(hi)
        got = arc_adaptive_batch(np.sin, lo, hi, 1e-12, 1e-14)
        assert got == pytest.approx(1.0 - np.cos(hi), rel=1e-12)

    def test_degenerate_rows(self):
        lo = np.array([1.0, 0.0])
        hi = np.array([1.0, 1.0])
        got = arc_adaptive_batch(np.exp, lo, hi, 1e-12, 1e-14)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_peaked_integrand_refines(self):
        centre = np.array([0.3, 0.7])

        def peaked(theta):
            return 1.0 / ((theta - centre[:, None]) ** 2 + 1e-4)

        lo = np.zeros(2)
        hi = np.ones(2)
        got = arc_adaptive_batch(peaked, lo, hi, 1e-10, 1e-14,
                                 max_subdivisions=200)
        scale = 1e-2
        expected = (np.arctan((hi - centre) / scale)
                    - np.arctan((lo - centre) / scale)) / scale
        assert got == pytest.approx(expected, rel=1e-9)

    def test_budget_exhaustion_raises(self):
        def nasty(theta):
            return np.abs(np.sin(500.0 / (theta + 1e-3)))
        with pytest.raises(QuadratureError):
            arc_adaptive_batch(nasty, np.zeros(2), np.ones(2), 1e-13, 1e-15,
                               max_subdivisions=3)


class TestLegGauss:
    def test_cached_and_correct(self):
        x1, w1 = leggauss(32)
        x2, w2 = leggauss(32)
        assert x1 is x2 and w1 is w2
        assert w1.sum() == pytest.approx(2.0, rel=1e-14)
        assert (w1 * x1 ** 2).sum() == pytest.approx(2.0 / 3.0, rel=1e-13)

