"""Only data.py encodes the lab's files: no other module of src/smile_lab
imports struct, csv or orjson, or calls numpy's frombuffer. Datasets and
checkpoints so keep one binary format, with one writer (data.save_arrays)
and one loader (data.load_arrays) that owns every malformed-file check. The
metrics, ablation and trajectory CSVs go through one writer
(data.write_csv); the dataset CSVs are joined a row at a time by
data.export_csv, through orjson wherever its digits are those of repr.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smile_lab"
OWNER = "data.py"
ENCODERS = ("struct", "csv", "orjson")   # modules only OWNER imports


def _binary_uses(source: str) -> list:
    """Each import of an ENCODERS module and each use of frombuffer in
    ``source``, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {alias.name}"
                      for alias in node.names
                      if alias.name.split(".")[0] in ENCODERS]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            if module in ENCODERS:
                found.append(f"{node.lineno}: from {module} import")
            found += [f"{node.lineno}: import frombuffer"
                      for alias in node.names if alias.name == "frombuffer"]
        elif isinstance(node, ast.Attribute) and node.attr == "frombuffer":
            found.append(f"{node.lineno}: .frombuffer")
    return found


def test_only_data_reads_and_writes_binary():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        uses = _binary_uses(path.read_text(encoding="utf-8"))
        if path.name != OWNER and uses:
            found[path.name] = uses
    assert found == {}


def test_the_rule_sees_the_format_where_it_is():
    uses = _binary_uses((PACKAGE / OWNER).read_text(encoding="utf-8"))
    assert any(use.endswith("import struct") for use in uses)
    assert any(use.endswith("import csv") for use in uses)
    assert any(use.endswith("import orjson") for use in uses)
    assert any(use.endswith(".frombuffer") for use in uses)


@pytest.mark.parametrize("source, expected", [
    ("import struct\n", ["1: import struct"]),
    ("import os, struct as s\n", ["1: import struct"]),
    ("from struct import pack\n", ["1: from struct import"]),
    ("import numpy as np\nx = np.frombuffer(b'', 'u1')\n", ["2: .frombuffer"]),
    ("from numpy import frombuffer\n", ["1: import frombuffer"]),
    ("import numpy as np\nx = np.fromfile\ny = 'struct'\n", []),
    ("import io\nfrom csv import writer\nimport csv\n",
     ["2: from csv import", "3: import csv"]),
])
def test_binary_uses_on_small_sources(source, expected):
    assert _binary_uses(source) == expected
