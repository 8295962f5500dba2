import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron2d._quad import (QuadratureError, _gk15, adaptive_gk15,
                             arc_adaptive_batch, leggauss, lockstep_gk15)

from oracles import gk15_heap

# Integrands of the bit-for-bit comparisons with the heap loop
HEAP_INTEGRANDS = {
    "lorentzian": lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4),
    "sqrt_cos": lambda x: np.sqrt(np.abs(np.cos(20.0 * x))),
    "exp": np.exp,
    "sech": lambda x: 1.0 / np.cosh((x - 0.6) / 0.03),
}


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
        # both halves of a bisection in one call
        assert sizes[0] == 4 * 15 and set(sizes[1:]) == {30}
        reverse = adaptive_gk15(peaked, 1.0, 0.0, 1e-11, 1e-14, panels=4)
        assert reverse == pytest.approx(-val, rel=1e-12)

    @pytest.mark.parametrize("panels", [1, 2, 4, 8])
    @pytest.mark.parametrize("name", sorted(HEAP_INTEGRANDS))
    def test_equals_heap_loop(self, name, panels):
        # the one-row lockstep run against the heap loop, bit for bit
        f = HEAP_INTEGRANDS[name]
        for a, b in [(0.0, 1.0), (1.0, 0.0), (0.25, 1.75)]:
            got = adaptive_gk15(f, a, b, 1e-12, 1e-14, 400, panels)
            assert type(got) is float
            assert got == gk15_heap(f, a, b, 1e-12, 1e-14, 400, panels)

    def test_budget_message_equals_heap_loop(self):
        def nasty(x):
            return np.abs(np.sin(200.0 / (x + 1e-3)))

        with pytest.raises(QuadratureError) as want:
            gk15_heap(nasty, 0.0, 1.0, 1e-13, 1e-15, max_subdivisions=3)
        with pytest.raises(QuadratureError) as got:
            adaptive_gk15(nasty, 0.0, 1.0, 1e-13, 1e-15, max_subdivisions=3)
        assert str(got.value) == str(want.value)


class TestLockstep:
    """lockstep_gk15 runs the heap loop's algorithm on every row."""

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
            want = gk15_heap(lambda x: self.peaked(x, np.array([i]))[0],
                             0.0, 1.0, 1e-11, 1e-14, panels=panels)
            assert got[i] == want
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
                gk15_heap(lambda x: self.peaked(x, np.array([i]))[0],
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
        assert got[0] == gk15_heap(f, 0.0, 1.0, 1e-12, 1e-14,
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
        assert got[0] == gk15_heap(f, -1.0, 1.0, 1e-12, 1e-14, 400, panels)


class TestBatchInvariance:
    """The sums of a GK15 panel depend on its own 15 values alone, not on
    the number or position of the panels computed with it."""

    @given(n=st.integers(1, 300), panels=st.sampled_from([None, 2, 8]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_every_prefix_and_their_one_row_call(
            self, n, panels, seed, data):
        # rows of 15 node values, or of `panels` panels as in a first pass;
        # magnitudes spread over 16 decades so that sum orders show
        rng = np.random.default_rng(seed)
        shape = (n, 15) if panels is None else (n, panels, 15)
        y = rng.standard_normal(shape) * 10.0 ** rng.uniform(
            -8.0, 8.0, shape[:-1] + (1,))
        half = rng.uniform(1e-3, 1.0, shape[:-1])
        full = _gk15(y, half)
        for m in range(1, n + 1):
            for got, want in zip(_gk15(y[:m], half[:m]), full):
                np.testing.assert_array_equal(got, want[:m])
        i = data.draw(st.integers(0, n - 1), label="row")
        for got, want in zip(_gk15(y[i], half[i]), full):
            np.testing.assert_array_equal(got, want[i])


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
        # still exactly 0 beside a row that refines for many rounds
        got = arc_adaptive_batch(lambda t: 1.0 / ((t - 0.3) ** 2 + 1e-6),
                                 np.array([0.0, 0.3]), np.array([1.0, 0.3]),
                                 1e-11, 1e-14)
        assert got[1] == 0.0

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

    def test_rows_refine_independently_on_full_arrays(self):
        # the wide row converges rounds before the narrow one, and every
        # call of f still gets both rows
        centre = np.array([0.3, 0.7])
        width = np.array([1e-1, 1e-3])
        shapes = []

        def peaked(theta):
            shapes.append(theta.shape)
            return width[:, None] / ((theta - centre[:, None]) ** 2
                                     + width[:, None] ** 2)

        lo, hi = np.zeros(2), np.ones(2)
        got = arc_adaptive_batch(peaked, lo, hi, 1e-11, 1e-14)
        expected = np.arctan((hi - centre) / width) \
            - np.arctan((lo - centre) / width)
        assert got == pytest.approx(expected, rel=1e-10)
        assert shapes[0] == (2, 15)
        assert set(shapes[1:]) == {(2, 30)}
        # rounds of each row alone: a first pass, then two calls per
        # bisection; the batch runs as long as its slowest row
        rounds = []
        for i in range(2):
            calls = []

            def one(x, i=i):
                calls.append(x)
                return width[i] / ((x - centre[i]) ** 2 + width[i] ** 2)

            gk15_heap(one, 0.0, 1.0, 1e-11, 1e-14)
            rounds.append((len(calls) - 1) // 2)
        assert 0 < rounds[0] < rounds[1] == len(shapes) - 1

    def test_budget_error_names_the_row_interval(self):
        def f(theta):
            nasty = np.abs(np.sin(500.0 / (theta[1] - 0.5 + 1e-3)))
            return np.stack([np.exp(theta[0]), nasty])

        lo, hi = np.array([0.0, 0.5]), np.array([1.0, 2.0])
        with pytest.raises(QuadratureError, match=r"over \[0\.5, 2\.0\]"):
            arc_adaptive_batch(f, lo, hi, 1e-13, 1e-15, max_subdivisions=3)


class TestLegGauss:
    def test_cached_and_correct(self):
        x1, w1 = leggauss(32)
        x2, w2 = leggauss(32)
        assert x1 is x2 and w1 is w2
        assert w1.sum() == pytest.approx(2.0, rel=1e-14)
        assert (w1 * x1 ** 2).sum() == pytest.approx(2.0 / 3.0, rel=1e-13)

