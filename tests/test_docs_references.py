"""Every code reference in the docs names code that exists.

``docs/*.md`` and ``README.md`` point readers at the implementation as
``repro/<path>.py::<symbol>`` (``<symbol>`` may be dotted, e.g.
``Class.method``).  A rename or deletion that leaves such a reference
behind fails here instead of misleading the next reader.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = re.compile(r"repro/((?:\w+/)*\w+)\.py::(\w+(?:\.\w+)*)")


def references():
    """One case per distinct ``(doc, path, symbol)``, with every line
    of the doc that names it."""
    found: dict[tuple[str, str, str], list[int]] = {}
    for doc in sorted([*ROOT.glob("docs/*.md"), ROOT / "README.md"]):
        name = str(doc.relative_to(ROOT))
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for match in REFERENCE.finditer(line):
                key = (name, match.group(1), match.group(2))
                found.setdefault(key, []).append(lineno)
    return [(*key, lines) for key, lines in found.items()]


REFERENCES = references()


def test_docs_name_code():
    assert REFERENCES, "no repro/<path>.py::<symbol> reference found"


@pytest.mark.parametrize(
    "doc, path, symbol, lines",
    REFERENCES,
    ids=[f"{doc}:{path}::{symbol}" for doc, path, symbol, _ in REFERENCES],
)
def test_reference_resolves(doc, path, symbol, lines):
    module = importlib.import_module("repro." + path.replace("/", "."))
    target = module
    where = ", ".join(f"{doc}:{n}" for n in lines)
    for part in symbol.split("."):
        assert hasattr(target, part), (
            f"{where}: repro/{path}.py has no {symbol}"
        )
        target = getattr(target, part)
