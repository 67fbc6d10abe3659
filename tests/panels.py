"""The panel of price series that share one calendar, as the tests build it."""
from datetime import date, timedelta

import numpy as np

from fractalport.spreads import build_panel


def panel_of(series):
    """``build_panel`` of ``series``: sorted by symbol, their prices stacked
    one row each on the first series' dates."""
    ordered = sorted(series, key=lambda p: p.symbol)
    assert all(tuple(p.dates) == tuple(ordered[0].dates) for p in ordered)
    prices = np.array([p.prices for p in ordered], dtype=np.float64)
    return build_panel([p.symbol for p in ordered], ordered[0].dates, prices)


def dates(n, start=0, base=date(2020, 1, 1)):
    """``n`` consecutive calendar days in ISO form, the first ``start`` days
    after ``base``."""
    return tuple((base + timedelta(days=start + i)).isoformat() for i in range(n))
