"""CLI payloads pinned byte for byte.

Each file under ``tests/data/payloads`` is the exact stdout of one ``eag``
call, named after its arguments.  The calls cover every witness
construction of ``eag maximal --search`` (found and none), the markdown
and csv renderings of a witness, a few ``eag count`` reports, and at least
one call of every other subcommand, fermat's float pairs included.  To
re-record after an intended payload change, write ``cli.main(argv)``'s
stdout to ``_path(argv)`` for each call and review the diff.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from eag import cli

DATA = Path(__file__).resolve().parent / "data" / "payloads"


def _spec_args(p, n, rho, r):
    return ["--p", str(p), "--n", str(n), "--rho", str(rho), "--r", str(r)]


CALLS = [
    # the p = 2 construction (r even, n <= 2 rho + r/2) on each family it
    # replaced, and the other constructions; the search finds a witness too
    ["maximal", *_spec_args(2, 1, 2, 0), "--search"],  # p = 2: (rho;-), n = 1
    ["maximal", *_spec_args(3, 1, 2, 0), "--search"],  # unramified cyclic, p odd
    ["maximal", *_spec_args(2, 4, 2, 0), "--search"],  # p = 2: (rho;-), n = 2 rho
    ["maximal", *_spec_args(2, 3, 2, 0), "--search"],  # p = 2: (rho;-), n = 2 rho - 1
    ["maximal", *_spec_args(2, 3, 1, 2), "--search"],  # p = 2: (rho;2^2), n = 2 rho + 1
    ["maximal", *_spec_args(2, 1, 1, 2), "--search"],  # p = 2: (rho;2^2), n = 1
    ["maximal", *_spec_args(2, 1, 1, 4), "--search"],  # p = 2: (rho;2^r), n = 1, r/2 > n
    ["maximal", *_spec_args(3, 1, 1, 3), "--search"],  # three periods, p = 3
    # further searches that find a witness
    ["maximal", *_spec_args(5, 1, 2, 0), "--search"],
    ["maximal", *_spec_args(2, 1, 2, 2), "--search"],
    ["maximal", *_spec_args(2, 5, 3, 0), "--search"],
    # the 11th row space tried, after ten that admissibility rejects
    ["maximal", *_spec_args(2, 1, 0, 10), "--search"],
    # searches that find none: a maximal action and the Frobenius corner
    ["maximal", *_spec_args(5, 1, 2, 3), "--search"],
    ["maximal", *_spec_args(7, 1, 4, 0), "--search"],
    # the text renderings print the entries through str()
    ["maximal", *_spec_args(2, 3, 1, 2), "--search", "--format", "markdown"],
    ["maximal", *_spec_args(3, 1, 1, 3), "--search", "--format", "csv"],
    ["count", *_spec_args(3, 2, 0, 5)],
    ["count", *_spec_args(2, 2, 1, 3)],
    ["count", *_spec_args(3, 2, 2, 0)],
    ["count", *_spec_args(5, 2, 1, 3), "--format", "csv"],
    # a verdict alone, with a witness and with none, and a uniqueness answer
    ["maximal", *_spec_args(2, 3, 1, 2)],
    ["maximal", *_spec_args(2, 3, 1, 2), "--format", "markdown"],
    ["maximal", *_spec_args(5, 1, 2, 3), "--format", "markdown"],
    ["unique", *_spec_args(2, 3, 0, 5)],
    ["unique", *_spec_args(2, 3, 0, 5), "--format", "csv"],
    # a table's rows, a catalog orbit count, and the float pairs of fermat: a real
    # line with a pin at infinity, and a complex one
    ["tables", "--which", "3", "--format", "json"],
    ["orbits", "--group", "C10", "--sig", "(0;2,5,10)"],
    ["fermat", "--p", "3", "--n", "3", "--w=0.5,1,2.5,-3", "--pins=0,1,inf"],
    ["fermat", "--p", "5", "--n", "3", "--w=1j,2,0.5+1.5j,-1"],
    ["fermat", "--p", "5", "--n", "3", "--w=1j,2,0.5+1.5j,-1", "--format", "csv"],
]


def _path(argv) -> Path:
    return DATA / ("_".join(a.lstrip("-") for a in argv) + ".txt")


def _stdout(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv", CALLS, ids=lambda argv: _path(argv).stem)
def test_payload_is_pinned(argv):
    assert _stdout(argv) == _path(argv).read_text(encoding="utf-8")


def test_every_pin_file_has_a_call():
    assert sorted(DATA.iterdir()) == sorted(_path(argv) for argv in CALLS)
