"""A document's JSON text as ``io.write_json`` streams it, for the tests
that compare or hash the text rather than a file."""
import io

from fractalport.io import write_json


def json_text(doc) -> str:
    """What ``write_json`` writes for ``doc``, collected from a
    ``StringIO``."""
    buf = io.StringIO()
    write_json(buf, doc)
    return buf.getvalue()
