"""Fractal Kelly weights, the generating matrix and greedy selection."""
from datetime import date, timedelta

import mpmath
import numpy as np
import pytest

from fractalport.errors import DegenerateVolatilityError, ParameterError
from fractalport.fbm import HurstEstimate
from fractalport.selection import (
    CandidateSpread,
    SelectionConfig,
    build_generating_matrix,
    fractal_kelly_weight,
    select_spreads,
    spread_path,
)
from fractalport.spreads import ReturnSeries, SpreadSeries


def dates(n):
    base = date(2021, 1, 1)
    return tuple((base + timedelta(days=i)).isoformat() for i in range(n))


def make_returns(symbol, values):
    values = np.asarray(values, dtype=np.float64)
    return ReturnSeries(symbol=symbol, entry_price=100.0, returns=values, dates=dates(values.size))


def make_candidate(long_sym, short_sym, kelly, h, h_err, mean_delta=0.001):
    deltas = np.full(80, mean_delta)
    deltas[::2] += 0.0005  # non-degenerate theta
    spread = SpreadSeries(
        long_symbol=long_sym,
        short_symbol=short_sym,
        chi=1.0,
        deltas=deltas,
        mean_delta=mean_delta,
        theta=float(np.std(deltas)),
        dates=dates(80),
    )
    hurst = HurstEstimate(h=h, h_err=h_err, n_scales=5)
    return CandidateSpread(spread=spread, hurst=hurst, kelly_weight=kelly)


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
        out = []
        for k in range(n_assets):
            beta = 0.8 + 0.1 * k
            idio = 0.003 * rng.standard_normal(n_days)
            out.append(make_returns(f"S{k}", beta * market + idio))
        return out

    def test_two_assets_at_most_one_candidate(self):
        cands = build_generating_matrix(self._universe(2), SelectionConfig())
        assert len(cands) <= 1

    def test_pair_count_upper_bound(self):
        # universe of 25 funds -> C(25,2) = 300 possible pairs
        cands = build_generating_matrix(self._universe(25), SelectionConfig())
        assert len(cands) <= 300

    def test_orientation_positive_mean(self):
        cands = build_generating_matrix(self._universe(6, seed=3), SelectionConfig())
        assert cands, "expected at least one candidate"
        assert all(c.spread.mean_delta >= 0.0 for c in cands)

    def test_weight_consistent_with_components(self):
        cfg = SelectionConfig(horizon_days=126)
        for c in build_generating_matrix(self._universe(5, seed=4), cfg):
            expected = fractal_kelly_weight(
                c.spread.mean_delta, c.spread.theta, c.hurst.h, cfg.horizon_days
            )
            assert c.kelly_weight == pytest.approx(expected, rel=1e-12)

    def test_universe_too_small(self):
        with pytest.raises(ParameterError):
            build_generating_matrix(self._universe(1), SelectionConfig())

    def test_degenerate_pairs_omitted(self):
        flat = make_returns("FLAT", np.zeros(200))
        universe = self._universe(3, seed=5) + [flat]
        cands = build_generating_matrix(universe, SelectionConfig())
        assert all("FLAT" not in (c.spread.long_symbol, c.spread.short_symbol) for c in cands)

    def test_spread_path_prepends_zero(self):
        s = make_candidate("A", "B", 1.0, 0.3, 0.05).spread
        path = spread_path(s.deltas)
        assert path[0] == 0.0
        assert path.size == s.deltas.size + 1
        np.testing.assert_allclose(np.diff(path), s.deltas, rtol=1e-15)


class TestSelectSpreads:
    def test_single_candidate_accepted(self):
        cands = [make_candidate("A", "B", 5.0, h=0.3, h_err=0.1)]
        assert len(select_spreads(cands, SelectionConfig())) == 1

    def test_single_candidate_rejected_cap(self):
        cands = [make_candidate("A", "B", 5.0, h=0.45, h_err=0.1)]
        assert select_spreads(cands, SelectionConfig()) == []

    def test_error_must_be_below_h(self):
        cands = [make_candidate("A", "B", 5.0, h=0.1, h_err=0.2)]  # 0.3 < 0.5 but err > h
        assert select_spreads(cands, SelectionConfig()) == []

    def test_asset_exclusion(self):
        cands = [
            make_candidate("A", "B", 9.0, h=0.3, h_err=0.05),
            make_candidate("A", "C", 8.0, h=0.3, h_err=0.05),
            make_candidate("C", "D", 7.0, h=0.3, h_err=0.05),
        ]
        picked = select_spreads(cands, SelectionConfig())
        assert [(c.spread.long_symbol, c.spread.short_symbol) for c in picked] == [
            ("A", "B"),
            ("C", "D"),
        ]

    def test_rejection_does_not_block(self):
        # top-weight candidate fails the screen; next one still considered
        cands = [
            make_candidate("A", "B", 9.0, h=0.6, h_err=0.05),
            make_candidate("A", "C", 8.0, h=0.3, h_err=0.05),
        ]
        picked = select_spreads(cands, SelectionConfig())
        assert [(c.spread.long_symbol, c.spread.short_symbol) for c in picked] == [("A", "C")]

    def test_acceptance_order_by_weight(self):
        cands = [
            make_candidate("A", "B", 1.0, h=0.3, h_err=0.05),
            make_candidate("C", "D", 3.0, h=0.3, h_err=0.05),
            make_candidate("E", "F", 2.0, h=0.3, h_err=0.05),
        ]
        picked = select_spreads(cands, SelectionConfig())
        assert [c.kelly_weight for c in picked] == [3.0, 2.0, 1.0]

    def test_tie_break_lexicographic(self):
        cands = [
            make_candidate("X", "Y", 2.0, h=0.3, h_err=0.05),
            make_candidate("A", "B", 2.0, h=0.3, h_err=0.05),
        ]
        picked = select_spreads(cands, SelectionConfig())
        assert picked[0].spread.long_symbol == "A"

    def test_max_spreads_cap(self):
        cands = [
            make_candidate("A", "B", 3.0, h=0.3, h_err=0.05),
            make_candidate("C", "D", 2.0, h=0.3, h_err=0.05),
        ]
        picked = select_spreads(cands, SelectionConfig(max_spreads=1))
        assert len(picked) == 1

    def test_disjoint_symbols_property(self):
        rng = np.random.default_rng(0)
        symbols = [f"S{i}" for i in range(8)]
        cands = []
        for i in range(len(symbols)):
            for j in range(i + 1, len(symbols)):
                cands.append(
                    make_candidate(
                        symbols[i],
                        symbols[j],
                        float(rng.uniform(0, 10)),
                        h=float(rng.uniform(0.1, 0.6)),
                        h_err=float(rng.uniform(0.01, 0.15)),
                    )
                )
        picked = select_spreads(cands, SelectionConfig())
        seen = [s for c in picked for s in (c.spread.long_symbol, c.spread.short_symbol)]
        assert len(seen) == len(set(seen))
        for c in picked:
            assert c.hurst.h + c.hurst.h_err < 0.5
            assert c.hurst.h_err < c.hurst.h
            assert c.spread.mean_delta > 0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        cands = [
            make_candidate(f"A{i}", f"B{i}", float(rng.uniform(0, 5)), 0.3, 0.05)
            for i in range(6)
        ]
        a = select_spreads(cands, SelectionConfig())
        b = select_spreads(list(reversed(cands)), SelectionConfig())
        assert [c.spread.pair() for c in a] == [c.spread.pair() for c in b]

    def test_hurst_cap_validated(self):
        with pytest.raises(ParameterError):
            SelectionConfig(hurst_cap=0.7)
        with pytest.raises(ParameterError):
            SelectionConfig(horizon_days=0)
