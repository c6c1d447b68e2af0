"""The prose documents point at files that exist.

Every backticked path with a ``/`` that ends in ``.py``, ``.json`` or
``.md`` must resolve under the repo root, ``src/`` or ``src/repro/``
(DESIGN.md writes package paths such as ``cluster/backend.py``).
Placeholder paths such as ``work/<id>.a1.json`` are not file names.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "docs/TUTORIAL.md", "EXPERIMENTS.md")
PATH = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.(?:py|json|md))`")
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    missing = sorted(
        {path for path in PATH.findall(text) if not any((b / path).exists() for b in BASES)}
    )
    assert not missing, f"{doc} names files that do not exist: {missing}"
