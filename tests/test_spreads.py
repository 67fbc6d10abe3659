"""Price panels, normalized returns, and the hedge ratio and oriented
spread of the per-pair reference (``pair_reference``) that the candidate
engine is checked against; the engine itself where it shows them."""
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fractalport.errors import InsufficientDataError, ValidationError
from fractalport.selection import SelectionConfig, build_generating_matrix
from fractalport.io import write_prices_wide
from fractalport.spreads import PriceSeries, build_panel, spread_returns, window_returns
from pair_reference import hedge_ratio, oriented_spread
from panels import dates


class Row(NamedTuple):
    """One asset's returns, labelled for the orientation checks."""

    symbol: str
    returns: np.ndarray


def make_returns(symbol, values):
    return Row(symbol, np.asarray(values, dtype=np.float64))


class TestPriceSeries:
    """A series is a plain record; ``write_prices_wide`` is where it is
    checked, and a refused series writes no file."""

    @staticmethod
    def refused(tmp_path, series, message):
        out = tmp_path / "refused.csv"
        with pytest.raises(ValidationError, match=message):
            write_prices_wide(out, series)
        assert not out.exists()

    def test_rejects_nonpositive_prices(self, tmp_path):
        x = PriceSeries(symbol="X", dates=dates(2), prices=np.array([100.0, 0.0]))
        self.refused(tmp_path, [x], "^X: price 0.0 on ")

    def test_rejects_repeated_date(self, tmp_path):
        days = ("2020-01-01", "2020-01-03", "2020-01-03")
        x = PriceSeries(symbol="X", dates=days, prices=[1.0, 2.0, 3.0])
        self.refused(tmp_path, [x], "^dates are not sorted and distinct: '2020-01-03' then '2020-01-03'$")

    def test_rejects_decreasing_dates(self, tmp_path):
        x = PriceSeries(symbol="X", dates=dates(3)[::-1], prices=[1.0, 2.0, 3.0])
        self.refused(tmp_path, [x], "^dates are not sorted and distinct: '2020-01-03' then '2020-01-02'$")


class TestWindowReturns:
    def test_linearity_in_prices(self):
        rng = np.random.default_rng(4)
        prices = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal(40))
        np.testing.assert_allclose(
            window_returns(prices[None, :]),
            window_returns(3.0 * prices[None, :]),
            rtol=1e-11,
            atol=1e-15,
        )


def reference_returns(p):
    """The returns of one window of prices, written out: each row's price
    differences over its entry price."""
    return np.diff(p, axis=1) / p[:, :1]


@st.composite
def price_blocks(draw):
    n_assets = draw(st.integers(1, 6))
    n_days = draw(st.integers(2, 40))
    prices = draw(arrays(np.float64, (n_assets, n_days), elements=st.floats(1e-3, 1e6)))
    a = draw(st.integers(0, n_days - 2))
    b = draw(st.integers(a + 1, n_days))
    return prices, a, b


@settings(max_examples=60, deadline=None)
@given(price_blocks())
def test_window_returns_match_per_row_reference(block):
    prices, a, b = block
    got = window_returns(prices[:, a:b])
    # the reference: each row on its own, normalized by its price on day a
    want = np.empty((prices.shape[0], b - a - 1))
    for k in range(prices.shape[0]):
        want[k] = np.diff(prices[k, a:b]) / prices[k, a]
    assert got.flags.c_contiguous
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


PRICES = st.floats(1e-3, 1e6) | st.just(np.nan)


@st.composite
def price_spans(draw):
    """A price span of ``count`` windows of ``days`` prices every ``step``
    columns, the step below, equal to or above the window length, and a
    tail too short for one more window."""
    days = draw(st.integers(2, 12))
    step = draw(st.integers(1, days - 1) | st.just(days) | st.integers(days + 1, days + 8))
    count = draw(st.integers(1, 6))
    n_days = (count - 1) * step + days + draw(st.integers(0, step - 1))
    prices = draw(arrays(np.float64, (draw(st.integers(1, 5)), n_days), elements=PRICES))
    return prices, days, step, count


def gapped_span(n_assets, days, step, count):
    rng = np.random.default_rng(days * 100 + step)
    prices = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal((n_assets, (count - 1) * step + days)), axis=1)
    prices[rng.random(prices.shape) < 0.1] = np.nan
    return prices, days, step, count


@settings(max_examples=150, deadline=None)
@given(price_spans())
@example(gapped_span(4, 126, 21, 7))  # test days below the training days
@example(gapped_span(3, 10, 10, 4))  # equal
@example(gapped_span(2, 8, 13, 3))  # above
def test_window_stack_matches_one_window_calls(span):
    """The stack case of ``window_returns`` gives each window the bits of
    the reference on that window alone, NaN cells included."""
    prices, days, step, count = span
    got = window_returns(prices, days, step)
    want = np.stack([reference_returns(prices[:, k * step : k * step + days]) for k in range(count)])
    assert got.flags.c_contiguous
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flat_rows_of_a_stack_match_each_window(data):
    """Spread returns read from a (windows x assets x days) stack as flat
    rows ``window * assets + asset`` equal each window's matrix call."""
    n_windows, n_assets, n_spreads = (data.draw(st.integers(1, n)) for n in (5, 6, 4))
    stack = data.draw(arrays(np.float64, (n_windows, n_assets, data.draw(st.integers(1, 9))), elements=PRICES))
    legs = arrays(np.intp, (n_windows, n_spreads), elements=st.integers(0, n_assets - 1))
    long, short = data.draw(legs), data.draw(legs)
    chi = data.draw(arrays(np.float64, (n_windows, n_spreads), elements=st.floats(1e-3, 1e3)))
    rows_of = np.arange(n_windows)[:, None] * n_assets
    got = spread_returns(stack.reshape(n_windows * n_assets, -1), rows_of + long, rows_of + short, chi)
    want = np.stack([spread_returns(stack[w], long[w], short[w], chi[w]) for w in range(n_windows)])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestPriceMatrix:
    def test_rows_on_requested_dates(self):
        days = dates(5)
        cells = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [np.nan, 20.0, 30.0, 40.0, 50.0]])
        panel = build_panel(("X", "Y"), days, cells)
        assert panel.symbols == ("X", "Y") and panel.dates == days
        np.testing.assert_array_equal(panel.prices, cells)
        assert panel.prices.flags.c_contiguous

    def test_drops_dates_without_prices(self):
        days = dates(4)
        cells = np.array([[1.0, np.nan, 3.0, np.nan], [10.0, np.nan, 30.0, 40.0]])
        panel = build_panel(("X", "Y"), days, cells)
        assert panel.dates == (days[0], days[2], days[3])
        np.testing.assert_array_equal(panel.prices, cells[:, [0, 2, 3]])
        assert panel.prices.flags.c_contiguous

    @pytest.mark.parametrize(
        "symbols, days, message",
        [
            (("X", "Y"), dates(3)[::-1], "dates are not sorted and distinct: '2020-01-03' then '2020-01-02'"),
            (("X", "Y"), dates(2) + dates(1, start=1), "dates are not sorted and distinct: '2020-01-02' then '2020-01-02'"),
            (("X", "X"), dates(3), "symbols are not sorted and distinct: 'X' then 'X'"),
            (("Y", "X"), dates(3), "symbols are not sorted and distinct: 'Y' then 'X'"),
        ],
        ids=["reversed_calendar", "repeated_date", "repeated_symbol", "unsorted_symbols"],
    )
    def test_rejects_labels_that_do_not_increase(self, symbols, days, message):
        # a reversed calendar would walk the history backwards, and a
        # repeated symbol would key two rows' legs by one name
        with pytest.raises(ValidationError) as exc:
            build_panel(symbols, days, np.ones((2, 3)))
        assert str(exc.value) == message

    def test_panel_is_read_only(self):
        panel = build_panel(("X",), dates(2), np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            panel.prices[0, 0] = 5.0


def hedge(ri, rj):
    return hedge_ratio(ri.returns, rj.returns)


def spread(ri, rj, chi):
    """The oriented spread long ``ri`` short ``chi`` units of ``rj``, and
    the symbols of its long and short legs."""
    s = oriented_spread(ri.returns, rj.returns, chi)
    symbols = (ri.symbol, rj.symbol)
    return s, symbols[s.long], symbols[s.short]


def engine(*rows):
    """The candidate engine's table of a universe of ``Row``s."""
    returns = np.stack([r.returns for r in rows])
    return build_generating_matrix(returns, [r.symbol for r in rows], SelectionConfig())


class TestHedgeRatio:
    def test_identical_series_unity(self):
        rng = np.random.default_rng(0)
        r = make_returns("A", 0.01 * rng.standard_normal(100))
        assert hedge(r, r) == pytest.approx(1.0, rel=1e-12)

    def test_exact_linear_relation(self):
        rng = np.random.default_rng(1)
        base = 0.01 * rng.standard_normal(100)
        ri = make_returns("A", base)
        rj = make_returns("B", 2.0 * base)
        assert hedge(ri, rj) == pytest.approx(0.5, rel=1e-12)

    def test_monte_carlo_beta_ratio(self):
        # known beta ratio 1.2/0.8 = 1.5, small idiosyncratic noise
        hits = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            market = 0.01 * rng.standard_normal(2000)
            ri = make_returns("A", 1.2 * market + 0.001 * rng.standard_normal(2000))
            rj = make_returns("B", 0.8 * market + 0.001 * rng.standard_normal(2000))
            hits.append(hedge(ri, rj))
        assert np.median(hits) == pytest.approx(1.5, abs=0.1)

    def test_degenerate_regressor(self):
        rng = np.random.default_rng(2)
        ri = make_returns("A", 0.01 * rng.standard_normal(64))
        rj = make_returns("B", np.zeros(64))
        assert np.isnan(hedge(ri, rj))

    def test_nonpositive_slope_is_signal_not_error(self):
        rng = np.random.default_rng(3)
        base = 0.01 * rng.standard_normal(100)
        chi = hedge(make_returns("A", base), make_returns("B", -base))
        assert chi < 0

    def test_too_short(self):
        r1 = make_returns("A", np.linspace(0, 0.01, 10))
        r2 = make_returns("B", np.linspace(0, 0.02, 10))
        with pytest.raises(InsufficientDataError):
            hedge(r1, r2)
        with pytest.raises(InsufficientDataError):
            engine(r1, r2)


class TestBuildSpread:
    def test_perfect_hedge(self):
        ri = make_returns("A", np.full(40, 0.02))
        rj = make_returns("B", np.full(40, 0.01))
        s, _, _ = spread(ri, rj, 2.0)
        assert np.all(s.deltas == 0.0)
        assert s.mean == 0.0 and s.theta == 0.0

    def test_unit_hedge(self):
        ri = make_returns("A", np.full(40, 0.02))
        rj = make_returns("B", np.full(40, 0.01))
        s, _, _ = spread(ri, rj, 1.0)
        np.testing.assert_allclose(s.deltas, 0.01)

    def test_market_term_cancels_with_true_chi(self):
        # beta_i/beta_j = chi and independent drifts: corr(delta, market) ~ 0
        n, chi_true = 4000, 1.5
        rng = np.random.default_rng(8)
        market = 0.01 * rng.standard_normal(n)
        ri = make_returns("A", 1.2 * market + 0.0005 + 0.002 * rng.standard_normal(n))
        rj = make_returns("B", 0.8 * market + 0.0002 + 0.002 * rng.standard_normal(n))
        s, _, _ = spread(ri, rj, chi_true)
        rho = np.corrcoef(s.deltas, market)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(n)

    def test_residual_increment_slope_vanishes_with_ols_chi(self):
        rng = np.random.default_rng(9)
        market = 0.01 * rng.standard_normal(500)
        ri = make_returns("A", 1.1 * market + 0.003 * rng.standard_normal(500))
        rj = make_returns("B", 0.9 * market + 0.003 * rng.standard_normal(500))
        chi = hedge(ri, rj)
        s, _, _ = spread(ri, rj, chi)
        dd = np.diff(s.deltas)
        dj = np.diff(rj.returns)
        slope = np.mean((dd - dd.mean()) * (dj - dj.mean())) / np.var(dj)
        assert abs(slope) < 1e-9

    def test_alignment_required(self):
        # legs priced on different dates form no pair: on A's dates, B
        # (listed two days later) has no entry price and its returns are
        # NaN, while A and C, priced on every one of them, still pair
        rng = np.random.default_rng(6)
        market = 0.01 * rng.standard_normal(100)
        returns = [beta * market + 0.002 * rng.standard_normal(100) for beta in (1.2, 1.0, 0.8)]
        cells = np.full((3, 103), np.nan)
        for row, start, r in zip(cells, (0, 2, 0), returns):
            row[start : start + 101] = 100.0 * np.cumprod(np.r_[1.0, 1.0 + r])
        panel = build_panel(("A", "B", "C"), dates(103), cells)
        window = window_returns(panel.prices[:, :101])
        assert np.isnan(window[1]).all()
        cands = build_generating_matrix(window, panel.symbols, SelectionConfig())
        assert len(cands) == 1
        assert {cands.symbols[cands.long[0]], cands.symbols[cands.short[0]]} == {"A", "C"}

    def test_nonpositive_chi_rejected(self):
        # the engine forms no spread, and raises nothing, for a hedge ratio
        # that is negative, zero (a flat i) or missing (a flat j)
        rng = np.random.default_rng(15)
        base = make_returns("B", 0.01 * rng.standard_normal(100))
        flat = make_returns("A", np.full(100, 0.01))
        for ri, rj in ((make_returns("A", -base.returns), base), (flat, base), (base, flat)):
            assert not hedge(ri, rj) > 0.0
            assert len(engine(ri, rj)) == 0


class TestFlipSpread:
    def test_power_of_two_algebra_exact(self):
        ri = make_returns("A", np.array([0.0, 0.75]))
        rj = make_returns("B", np.array([0.25, 0.25]))
        # A - 2B = [-0.5, 0.25] has negative mean, so the spread is reversed
        s, long, short = spread(ri, rj, 2.0)
        assert s.chi == 0.5
        np.testing.assert_array_equal(s.deltas, [0.25, -0.125])
        assert (long, short) == ("B", "A")
        assert s.mean == 0.0625

    def test_involution(self):
        # (A, B, chi) and (B, A, 1/chi) are the two orientations of one spread
        ri = make_returns("A", np.array([0.5, 0.125, -0.25, 0.625]))
        rj = make_returns("B", np.array([0.125, 0.25, 0.125, -0.125]))
        s, long, short = spread(ri, rj, 2.0)
        assert (long, short) == ("A", "B")
        back, long_b, short_b = spread(rj, ri, 0.5)
        np.testing.assert_array_equal(back.deltas, s.deltas)
        assert back.chi == s.chi
        assert (long_b, short_b) == (long, short)

    def test_involution_general_chi(self):
        rng = np.random.default_rng(12)
        ri = make_returns("A", 0.01 * rng.standard_normal(50))
        rj = make_returns("B", 0.01 * rng.standard_normal(50))
        s, _, _ = spread(ri, rj, 1.7)
        back, _, _ = spread(rj, ri, 1.0 / 1.7)
        np.testing.assert_allclose(back.deltas, s.deltas, rtol=1e-14)
        assert back.chi == pytest.approx(s.chi, rel=1e-15)

    def test_negative_mean_becomes_positive(self):
        rng = np.random.default_rng(13)
        deltas = 0.01 * rng.standard_normal(60) - 0.005
        ri = make_returns("A", deltas)
        rj = make_returns("B", np.zeros(60))
        assert deltas.mean() < 0
        s, long, _ = spread(ri, rj, 1.0)
        assert long == "B"
        assert s.mean > 0

    def test_preserves_t_statistic(self):
        rng = np.random.default_rng(14)
        ri = make_returns("A", 0.01 * rng.standard_normal(80) + 0.001)
        rj = make_returns("B", 0.005 * rng.standard_normal(80))
        raw = rj.returns - ri.returns / 2.5
        assert raw.mean() < 0
        f, long, _ = spread(rj, ri, 1.0 / 2.5)
        assert long == "A"
        t_s = abs(raw.mean()) / (raw.std() / np.sqrt(raw.size))
        t_f = abs(f.mean) / (f.theta / np.sqrt(f.deltas.size))
        assert t_f == pytest.approx(t_s, rel=1e-12)
