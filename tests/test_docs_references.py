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
    found = []
    for doc in sorted([*ROOT.glob("docs/*.md"), ROOT / "README.md"]):
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for match in REFERENCE.finditer(line):
                where = f"{doc.relative_to(ROOT)}:{lineno}"
                found.append((where, match.group(1), match.group(2)))
    return found


REFERENCES = references()


def test_docs_name_code():
    assert REFERENCES, "no repro/<path>.py::<symbol> reference found"


@pytest.mark.parametrize(
    "where, path, symbol",
    REFERENCES,
    ids=[f"{where}:{path}::{symbol}" for where, path, symbol in REFERENCES],
)
def test_reference_resolves(where, path, symbol):
    module = importlib.import_module("repro." + path.replace("/", "."))
    target = module
    for part in symbol.split("."):
        assert hasattr(target, part), (
            f"{where}: repro/{path}.py has no {symbol}"
        )
        target = getattr(target, part)
