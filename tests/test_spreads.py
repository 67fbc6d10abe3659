"""Price panels, normalized returns, and the hedge ratio and oriented
spread of the per-pair reference (``pair_reference``) that the candidate
engine is checked against; the engine itself where it shows them."""
from datetime import date, timedelta
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fractalport.errors import InsufficientDataError, ValidationError
from fractalport.selection import SelectionConfig, build_generating_matrix
from fractalport.spreads import PriceSeries, price_panel, window_returns
from fractalport.synthetic import make_synthetic_universe
from pair_reference import hedge_ratio, oriented_spread


def dates(n, start=0):
    base = date(2020, 1, 1)
    return tuple((base + timedelta(days=start + i)).isoformat() for i in range(n))


class Row(NamedTuple):
    """One asset's returns, labelled for the orientation checks."""

    symbol: str
    returns: np.ndarray


def make_returns(symbol, values):
    return Row(symbol, np.asarray(values, dtype=np.float64))


class TestPriceSeries:
    """A series is a plain record; ``price_panel`` is where it is checked."""

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValidationError):
            price_panel([PriceSeries(symbol="X", dates=dates(2), prices=np.array([100.0, 0.0]))])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_price_names_symbol_and_first_date(self, bad):
        # dates given latest first: the first bad date is the earliest, and
        # a NaN is a bad price, not a missing one
        good = PriceSeries(symbol="A", dates=dates(4), prices=np.full(4, 10.0))
        prices = np.array([bad, bad, 101.0, 100.0])
        x = PriceSeries(symbol="X", dates=dates(4)[::-1], prices=prices)
        with pytest.raises(ValidationError, match=f"^X: price {bad} on {dates(4)[2]} "):
            price_panel([x, good])

    @pytest.mark.parametrize("n_prices", [1, 3])
    def test_rejects_length_mismatch(self, n_prices):
        # one price would otherwise broadcast over every date
        x = PriceSeries(symbol="X", dates=dates(2), prices=np.full(n_prices, 1.0))
        with pytest.raises(ValidationError, match=f"^X: 2 dates vs {n_prices} prices$"):
            price_panel([x])

    def test_rejects_repeated_date(self):
        days = ("2020-01-03", "2020-01-01", "2020-01-03")
        x = PriceSeries(symbol="X", dates=days, prices=[1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="^X: duplicate date 2020-01-03$"):
            price_panel([x])

    def test_unsorted_dates_give_sorted_panel(self):
        days, prices = dates(5), np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        order = [3, 0, 4, 1, 2]
        y = PriceSeries(symbol="Y", dates=days[1:], prices=prices[1:] * 10.0)
        shuffled = PriceSeries(symbol="X", dates=[days[k] for k in order], prices=prices[order])
        got = price_panel([shuffled, y])
        want = price_panel([PriceSeries(symbol="X", dates=days, prices=prices), y])
        assert got.dates == want.dates == days
        assert got.prices.tobytes() == want.prices.tobytes()
        np.testing.assert_array_equal(got.prices[0], prices)

    def test_prices_immutable(self):
        u = make_synthetic_universe(n_assets=2, n_days=5, n_pairs=0)
        for p in u.prices + [u.benchmark]:
            with pytest.raises(ValueError):
                p.prices[0] = 5.0


class TestWindowReturns:
    def test_basic_arithmetic(self):
        r = window_returns(np.array([[100.0, 101.0, 100.0]]))
        np.testing.assert_allclose(r, [[0.01, -0.01]])
        assert r.shape == (1, 2)

    def test_constant_prices_zero_returns(self):
        assert np.all(window_returns(np.full((1, 5), 42.0)) == 0.0)

    def test_entry_price_in_denominator(self):
        # p0 from a different segment: 10-point move on entry price 200
        r = window_returns(np.array([[200.0, 100.0, 110.0]]))
        assert r[0, 1] == pytest.approx(0.05)

    def test_linearity_in_prices(self):
        rng = np.random.default_rng(4)
        prices = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal(40))
        np.testing.assert_allclose(
            window_returns(prices[None, :]),
            window_returns(3.0 * prices[None, :]),
            rtol=1e-11,
            atol=1e-15,
        )


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


class TestPriceMatrix:
    def test_rows_on_requested_dates(self):
        days = dates(5)
        x = PriceSeries(symbol="X", dates=days, prices=[1.0, 2.0, 3.0, 4.0, 5.0])
        y = PriceSeries(symbol="Y", dates=days[1:], prices=[20.0, 30.0, 40.0, 50.0])
        panel = price_panel([y, x])
        assert panel.symbols == ("X", "Y") and panel.dates == days
        np.testing.assert_array_equal(panel.prices[0], [1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(panel.prices[1], [np.nan, 20.0, 30.0, 40.0, 50.0])
        assert panel.prices.flags.c_contiguous

    def test_panel_is_read_only(self):
        panel = price_panel([PriceSeries(symbol="X", dates=dates(2), prices=[1.0, 2.0])])
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
        series = [
            PriceSeries(symbol, dates(101, start), 100.0 * np.cumprod(np.r_[1.0, 1.0 + r]))
            for symbol, start, r in zip("ABC", (0, 2, 0), returns)
        ]
        panel = price_panel(series)
        on_a = np.isin(panel.dates, series[0].dates)
        window = window_returns(panel.prices.compress(on_a, axis=1))
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
