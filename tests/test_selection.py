"""Fractal Kelly weights, the generating matrix and greedy selection."""
import mpmath
import numpy as np
import pytest

from fractalport.errors import DegenerateVolatilityError, ParameterError
from fractalport.selection import (
    Candidates,
    SelectionConfig,
    build_generating_matrix,
    fractal_kelly_weight,
    select_spreads,
)
from fractalport.spreads import window_returns


def make_candidates(rows, symbols=None):
    """A candidate table from (long, short, kelly, h, h_err[, mean]) rows.

    Every row has chi 1 and theta 0.0005, and mean 0.001 unless given.
    ``symbols`` defaults to the symbols in order of first appearance.
    """
    if symbols is None:
        symbols = tuple(dict.fromkeys(sym for r in rows for sym in r[:2]))
    index = {sym: k for k, sym in enumerate(symbols)}
    long = np.array([index[r[0]] for r in rows], dtype=np.intp)
    short = np.array([index[r[1]] for r in rows], dtype=np.intp)
    n = len(rows)
    return Candidates(
        symbols=tuple(symbols),
        window=np.zeros(n, dtype=np.intp),
        long=long,
        short=short,
        chi=np.ones(n),
        mean=np.array([r[5] if len(r) > 5 else 0.001 for r in rows], dtype=np.float64),
        theta=np.full(n, 0.0005),
        h=np.array([r[3] for r in rows], dtype=np.float64),
        h_err=np.array([r[4] for r in rows], dtype=np.float64),
        kelly=np.array([r[2] for r in rows], dtype=np.float64),
    )


def pairs(cands):
    return [(cands.symbols[a], cands.symbols[b]) for a, b in zip(cands.long, cands.short)]


def build(universe, cfg):
    """Candidates of a {symbol: returns row} universe."""
    return build_generating_matrix(np.stack(list(universe.values())), list(universe), cfg)


class TestFractalKellyWeight:
    def test_h_half_reduces_to_plain_kelly(self):
        for n in (1, 10, 126, 1000):
            assert fractal_kelly_weight(0.001, 0.01, 0.5, n) == pytest.approx(10.0, rel=1e-12)

    def test_zero_mean_zero_weight(self):
        assert fractal_kelly_weight(0.0, 0.01, 0.3, 126) == 0.0

    def test_high_precision_oracle(self):
        # 10 * 100^0.2 evaluated with independent high-precision arithmetic
        expected = float(10 * mpmath.power(100, mpmath.mpf("0.2")))
        assert fractal_kelly_weight(0.001, 0.01, 0.4, 100) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(25.12, abs=0.005)

    def test_h_half_matches_growth_grid_search(self):
        # independent oracle: maximize w*mu - w^2 theta^2 / 2 on a grid
        rng = np.random.default_rng(7)
        for _ in range(5):
            mu = float(rng.uniform(1e-4, 2e-3))
            theta = float(rng.uniform(0.005, 0.05))
            grid = np.arange(0.0, 5.0 * mu / theta**2, 0.01)
            growth = grid * mu - grid**2 * theta**2 / 2.0
            best = grid[np.argmax(growth)]
            assert abs(fractal_kelly_weight(mu, theta, 0.5, 126) - best) <= 0.01 + 1e-12

    def test_monotone_decreasing_in_h(self):
        weights = [fractal_kelly_weight(0.001, 0.01, h, 126) for h in (0.2, 0.35, 0.5, 0.65, 0.8)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_zero_theta_degenerate(self):
        with pytest.raises(DegenerateVolatilityError):
            fractal_kelly_weight(0.001, 0.0, 0.5, 126)


class TestBuildGeneratingMatrix:
    def _universe(self, n_assets, seed=0, n_days=200):
        rng = np.random.default_rng(seed)
        market = 0.01 * rng.standard_normal(n_days)
        out = {}
        for k in range(n_assets):
            beta = 0.8 + 0.1 * k
            idio = 0.003 * rng.standard_normal(n_days)
            out[f"S{k}"] = beta * market + idio
        return out

    def test_two_assets_at_most_one_candidate(self):
        cands = build(self._universe(2), SelectionConfig())
        assert len(cands) <= 1

    def test_pair_count_upper_bound(self):
        # universe of 25 funds -> C(25,2) = 300 possible pairs
        cands = build(self._universe(25), SelectionConfig())
        assert len(cands) <= 300

    def test_orientation_positive_mean(self):
        cands = build(self._universe(6, seed=3), SelectionConfig())
        assert cands, "expected at least one candidate"
        assert np.all(cands.mean >= 0.0)

    def test_weight_consistent_with_components(self):
        cfg = SelectionConfig(horizon_days=126)
        cands = build(self._universe(5, seed=4), cfg)
        assert len(cands)
        for mean, theta, h, kelly in zip(cands.mean, cands.theta, cands.h, cands.kelly):
            expected = fractal_kelly_weight(float(mean), float(theta), float(h), cfg.horizon_days)
            assert kelly == pytest.approx(expected, rel=1e-12)

    def test_universe_too_small(self):
        with pytest.raises(ParameterError):
            build(self._universe(1), SelectionConfig())

    def test_degenerate_pairs_omitted(self):
        universe = {**self._universe(3, seed=5), "FLAT": np.zeros(200)}
        cands = build(universe, SelectionConfig())
        assert all("FLAT" not in pair for pair in pairs(cands))


    def test_price_scale_free(self):
        # returns are normalized by the entry price, so HEDGE_VARIANCE_EPS
        # and the variance floor see the same numbers, to rounding, however
        # an asset's prices are scaled: multiplying one asset's prices by
        # 1e6 moves none of its candidate rows by more than rounding (at
        # most 5.3e-14 relative over seeds 8-19 of this universe)
        returns = np.stack(list(self._universe(6, seed=8).values()))
        prices = 100.0 * np.cumprod(np.hstack([np.ones((6, 1)), 1.0 + returns]), axis=1)
        scaled = prices.copy()
        scaled[2] *= 1e6
        cfg = SelectionConfig()
        symbols = [f"S{k}" for k in range(6)]
        base = build_generating_matrix(window_returns(prices), symbols, cfg)
        got = build_generating_matrix(window_returns(scaled), symbols, cfg)
        assert pairs(got) == pairs(base)
        assert sum(2 in (a, b) for a, b in zip(base.long, base.short)) >= 3
        for name in ("chi", "mean", "theta", "h", "h_err", "kelly"):
            np.testing.assert_allclose(
                getattr(got, name), getattr(base, name), rtol=1e-12, err_msg=name
            )


class TestSelectSpreads:
    def test_single_candidate_accepted(self):
        cands = make_candidates([("A", "B", 5.0, 0.3, 0.1)])
        assert len(select_spreads(cands, SelectionConfig())) == 1

    def test_empty_table(self):
        cands = make_candidates([], symbols=("A", "B"))
        picked = select_spreads(cands, SelectionConfig())
        assert len(picked) == 0 and picked.symbols == ("A", "B")

    def test_single_candidate_rejected_cap(self):
        cands = make_candidates([("A", "B", 5.0, 0.45, 0.1)])
        assert len(select_spreads(cands, SelectionConfig())) == 0

    def test_error_must_be_below_h(self):
        cands = make_candidates([("A", "B", 5.0, 0.1, 0.2)])  # 0.3 < 0.5 but err > h
        assert len(select_spreads(cands, SelectionConfig())) == 0

    def test_mean_must_be_positive(self):
        cands = make_candidates([("A", "B", 0.0, 0.3, 0.05, 0.0), ("A", "C", 0.0, 0.3, 0.05)])
        assert pairs(select_spreads(cands, SelectionConfig())) == [("A", "C")]

    def test_asset_exclusion(self):
        cands = make_candidates(
            [
                ("A", "B", 9.0, 0.3, 0.05),
                ("A", "C", 8.0, 0.3, 0.05),
                ("C", "D", 7.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig())
        assert pairs(picked) == [("A", "B"), ("C", "D")]

    def test_rejection_does_not_block(self):
        # top-weight candidate fails the screen; next one still considered
        cands = make_candidates(
            [
                ("A", "B", 9.0, 0.6, 0.05),
                ("A", "C", 8.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig())
        assert pairs(picked) == [("A", "C")]

    def test_acceptance_order_by_weight(self):
        cands = make_candidates(
            [
                ("A", "B", 1.0, 0.3, 0.05),
                ("C", "D", 3.0, 0.3, 0.05),
                ("E", "F", 2.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig())
        assert picked.kelly.tolist() == [3.0, 2.0, 1.0]

    def test_tie_break_lexicographic(self):
        cands = make_candidates(
            [
                ("X", "Y", 2.0, 0.3, 0.05),
                ("A", "B", 2.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig())
        assert pairs(picked)[0][0] == "A"
        # universe order is not symbol order: ties follow the symbols,
        # first on the long leg, then on the short leg
        cands = make_candidates(
            [
                ("Z", "A", 2.0, 0.3, 0.05),
                ("M", "B", 2.0, 0.3, 0.05),
                ("M", "A", 2.0, 0.3, 0.05),
                ("B", "Z", 2.0, 0.3, 0.05),
            ],
            symbols=("Z", "A", "M", "B"),
        )
        picked = select_spreads(cands, SelectionConfig())
        assert pairs(picked) == [("B", "Z"), ("M", "A")]
        picked = select_spreads(cands.take([0, 1, 2]), SelectionConfig())
        assert pairs(picked) == [("M", "A")]

    def test_max_spreads_cap(self):
        cands = make_candidates(
            [
                ("A", "B", 3.0, 0.3, 0.05),
                ("C", "D", 2.0, 0.3, 0.05),
            ]
        )
        picked = select_spreads(cands, SelectionConfig(max_spreads=1))
        assert len(picked) == 1

    def test_disjoint_symbols_property(self):
        rng = np.random.default_rng(0)
        symbols = [f"S{i}" for i in range(8)]
        rows = []
        for i in range(len(symbols)):
            for j in range(i + 1, len(symbols)):
                rows.append(
                    (
                        symbols[i],
                        symbols[j],
                        float(rng.uniform(0, 10)),
                        float(rng.uniform(0.1, 0.6)),
                        float(rng.uniform(0.01, 0.15)),
                    )
                )
        picked = select_spreads(make_candidates(rows), SelectionConfig())
        seen = [s for pair in pairs(picked) for s in pair]
        assert len(seen) == len(set(seen))
        assert np.all(picked.h + picked.h_err < 0.5)
        assert np.all(picked.h_err < picked.h)
        assert np.all(picked.mean > 0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        cands = make_candidates(
            [(f"A{i}", f"B{i}", float(rng.uniform(0, 5)), 0.3, 0.05) for i in range(6)]
        )
        a = select_spreads(cands, SelectionConfig())
        b = select_spreads(cands.take(np.arange(len(cands))[::-1]), SelectionConfig())
        assert pairs(a) == pairs(b)

    def test_hurst_cap_validated(self):
        with pytest.raises(ParameterError):
            SelectionConfig(hurst_cap=0.7)
        with pytest.raises(ParameterError):
            SelectionConfig(horizon_days=0)
