"""Knob inventory: every ``REPRO_*`` variable the code reads is documented.

The set of ``REPRO_*`` string literals under ``src/`` must equal the set
of names in the env-table rows of README.md, OBSERVABILITY.md and
EXPERIMENTS.md — a knob added without a row, or a row left behind by a
removed knob, fails here.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "OBSERVABILITY.md", "EXPERIMENTS.md")
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def source_knobs():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def documented_knobs():
    """Names in the first cell of every markdown table row."""
    names = set()
    for doc in DOCS:
        for line in (ROOT / doc).read_text().splitlines():
            cells = line.strip().split("|")
            if line.lstrip().startswith("|") and len(cells) > 2:
                names.update(NAME.findall(cells[1]))
    return names


def test_every_knob_has_a_table_row_and_every_row_a_knob():
    code, docs = source_knobs(), documented_knobs()
    assert sorted(code - docs) == [], "knobs without an env-table row"
    assert sorted(docs - code) == [], "env-table rows for unknown knobs"


def test_knob_count():
    assert len(source_knobs()) <= 23  # ratchet: never grows back
