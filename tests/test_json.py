"""The report writer: the bytes of the stdlib's ``indent=2`` pretty-printer."""
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalport.io import to_json

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
