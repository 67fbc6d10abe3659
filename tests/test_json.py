"""The report writer: the bytes of the stdlib's ``indent=2`` pretty-printer."""
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalport.backtest import BacktestConfig, run_walk_forward
from fractalport.io import _encoder, report_to_dict, to_json, write_report_json
from panels import panel_of

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308])
    | st.text()
    | st.sampled_from(['"', '\\"', "\n", "\x00\x1f\x7f", "é", " ", "😀", ",\n  ", ": 0"])
)
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)

EDGES = {
    "empty": [{}, [], (), {"": {}}, [[]]],
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 10**30],
    "scalars": {"t": True, "f": False, "n": None, "big": -(2**100)},
    'quo"te': ['a"b', "back\\slash", "\x00\x01\t\n\r\x1f", "naïve ☃ 😀"],
    "nested": [{"z": 1, "a": [{"x": [], "y": {"k": [1.5, {}]}}]}, 2],
}


@settings(max_examples=150, deadline=None)
@given(DOCS)
@example(EDGES)
@example({})
@example([])
@example(float("nan"))
@example("x\ny")
def test_writer_matches_stdlib_indent(doc):
    assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def long_walk(universe):
    """A report shaped as history_long's: 6 traded assets, 21-day tests."""
    cfg = BacktestConfig(benchmark_symbol="MKT", test_days=21)
    return run_walk_forward(panel_of(universe.prices[:6] + [universe.benchmark]), cfg), cfg


@pytest.fixture
def iterencode_calls(monkeypatch):
    """The calls of ``JSONEncoder.iterencode``, through which every
    ``JSONEncoder.encode`` of a value that is not a string goes."""
    calls = []
    iterencode = json.JSONEncoder.iterencode

    def spy(self, o, _one_shot=False):
        calls.append(type(o))
        return iterencode(self, o, _one_shot)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", spy)
    return calls


def test_report_writer_makes_no_stdlib_encode(long_walk, tmp_path, iterencode_calls):
    """Each value is one call of a C encoder cached per depth: the stdlib's
    ``encode``, which makes a new one per value, is never called."""
    report, cfg = long_walk
    assert len(report.windows) > 100
    write_report_json(tmp_path / "r.json", report, cfg)
    assert iterencode_calls == []
    want = json.dumps(report_to_dict(report, cfg), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "r.json").read_text() == want


@pytest.fixture
def no_c_encoder(monkeypatch):
    """The stdlib's pure-Python build: ``json`` has no C encoder."""
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    _encoder.cache_clear()
    yield
    _encoder.cache_clear()


@pytest.mark.parametrize("name", ["edges", "report"])
def test_writer_without_the_c_encoder(long_walk, no_c_encoder, iterencode_calls, name):
    report, cfg = long_walk
    doc = EDGES if name == "edges" else report_to_dict(report, cfg)
    got = to_json(doc)
    assert iterencode_calls  # the stdlib's encode wrote it
    assert got == json.dumps(doc, indent=2, sort_keys=True) + "\n"
