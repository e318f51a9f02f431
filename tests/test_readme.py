"""The README's examples print and return what the README shows."""

import ast
import csv
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from qscreen import cli
from qscreen.coulomb import b_const

README = Path(__file__).resolve().parent.parent / "README.md"

# an example is a sh block holding one command, followed directly by a
# plain block holding its output
_EXAMPLE = re.compile(r"```sh\n(qscreen [^\n]*)\n```\n\n```\n(.*?)```", re.S)


def _examples():
    text = README.read_text(encoding="utf-8")
    return [(shlex.split(cmd)[1:], printed) for cmd, printed in _EXAMPLE.findall(text)]


EXAMPLES = _examples()


def test_readme_shows_eval_and_dump_basis():
    assert sorted(argv[0] for argv, _ in EXAMPLES) == ["dump-basis", "eval"]


@pytest.mark.parametrize("argv, printed", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example(argv, printed, capsys):
    assert cli.main(argv) == 0
    got = capsys.readouterr().out
    if argv[0] != "eval":
        assert got == printed
        return
    want_rows = list(csv.reader(io.StringIO(printed)))
    got_rows = list(csv.reader(io.StringIO(got)))
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    header = want_rows[0]
    for want, row in zip(want_rows[1:], got_rows[1:]):
        assert len(row) == len(want)
        for key, w, g in zip(header, want, row):
            if key in ("re", "im"):
                assert float(g) == pytest.approx(float(w), rel=1e-13, abs=0.0), key
            elif key == "err_est":
                assert float(w) / 10 <= float(g) <= 10 * float(w)
            else:
                assert g == w, key


def _quick_start():
    # runs the Python block under "Library quick start" statement by
    # statement; returns the values of its bare expressions, which the
    # README's comments describe
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace, shown = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return shown


def test_readme_library_quick_start():
    pair, size, quartet = _quick_start()
    # plain points give numbers, not jets
    assert isinstance(pair, complex) and isinstance(quartet, complex)
    # F_hwv(v, (0, 1), 8) == b_const(1, 2, 2, 8) == pi
    assert abs(pair - math.pi) <= 1e-9 * math.pi
    assert abs(b_const(1, 2, 2, 8.0) - math.pi) <= 1e-9 * math.pi
    # the dimension of the trivial part of (2, 2, 2, 2)
    assert size == 2
