import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eag import cli, grouptable

REPO = Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "eag/1"
    return payload


def test_main_reuses_one_parser(capsys, monkeypatch):
    spec = ["--p", "2", "--n", "1", "--rho", "1", "--r", "4"]
    calls = [
        ["unique"] + spec,
        ["count"] + spec + ["--format", "markdown"],
        ["maximal"] + spec + ["--search", "--format", "csv"],
        ["count", "--p", "2", "--format", "xml"],
        ["orbits", "--group", "C10", "--sig", "(0;2,5,10)"],
        ["unique", "--p", "2", "--n", "2", "--rho", "1", "--r", "5", "--format", "csv"],
        ["tables", "--which", "1", "--format", "csv"],
        ["fermat", "--p", "3", "--n", "2", "--w", "0,1,2"],
        ["maximal"] + spec,
    ]
    cli._parser.cache_clear()
    shared = [run(argv, capsys) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(argv, capsys) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, cli.EXIT_USAGE, 0, 0, 0, 0, 0]


def _answer(argv, capsys):
    """(exit code, stdout, stderr) of one call; -h exits through SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_subcommand_parse_matches_the_full_parser(capsys, monkeypatch):
    spec = ["--p", "2", "--n", "2", "--rho", "1", "--r", "5"]
    calls = [
        ["unique"] + spec,
        ["unique", "--rh", "1", "--p", "2", "--n", "2", "--r", "5"],  # an abbreviation
        ["count", "--p", "2", "--n", "2"],  # required options missing
        ["count"] + spec + ["--format", "xml"],  # a bad choice
        ["maximal"] + spec + ["--bogus"],  # an unknown option
        ["tables", "--which", "1", "extra"],  # an extra positional
        ["unique", "--p=x", "--n", "2", "--rho", "1", "--r", "5"],
        ["unique", "--", "--p", "2"],
        ["unique", "-h"],
        ["fermat", "--help"],
        ["fermat", "--p", "3", "--n", "3", "--w=0,1,2,3", "--samples", "5"],
        ["fermat", "--p", "3", "--n", "3", "--w=-1,1/2,2,3", "--format", "csv"],
        ["orbits", "--group", "C10", "--sig", "(0;2,5,10)"],
        ["orbits", "--sig", "(0;2,5,10)"],
        ["tables", "--which", "2", "--format", "csv"],
        [], ["-h"], ["bogus"], ["--p", "2", "unique"],
    ]
    one_pass = [_answer(argv, capsys) for argv in calls]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
    full = [_answer(argv, capsys) for argv in calls]
    assert one_pass == full
    assert [code for code, _, _ in one_pass] == [
        0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1]


@pytest.mark.parametrize("argv", [
    ["maximal", "--p", "3", "--n", "1", "--rho", "2", "--r", "0", "--search"],
    ["tables", "--which", "2"],
    ["fermat", "--p", "3", "--n", "3", "--w=0,1,2,3"],
])
def test_closed_pipe_exits_0_without_a_traceback(argv):
    # the reader closes the pipe before eag writes, as `eag ... | head -c 1`
    # can; the write then fails with EPIPE
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "eag.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err and "Error" not in err, err


def test_unique_accepts_unique_row(capsys):
    payload = run_json(["unique", "--p", "2", "--n", "2", "--rho", "1", "--r", "5"],
                       capsys)
    assert payload["unique"] is True
    assert payload["genus"] == 6


def test_unique_rejects_low_genus(capsys):
    code, out, err = run(["unique", "--p", "2", "--n", "1", "--rho", "0", "--r", "2"],
                         capsys)
    assert code == cli.EXIT_DOMAIN
    assert "genus" in err


def test_unique_non_row(capsys):
    payload = run_json(["unique", "--p", "3", "--n", "1", "--rho", "1", "--r", "6"],
                       capsys)
    assert payload["unique"] is False and payload["rules"] == []


def test_unique_agrees_with_count_beyond_the_printed_rows(capsys):
    # (rho; 2^2) with n = 2: count 1, unique by the rank split
    argv = ["--p", "2", "--n", "2", "--rho", "1", "--r", "2"]
    assert run_json(["count", *argv], capsys)["total"] == 1
    payload = run_json(["unique", *argv], capsys)
    assert payload["unique"] is True and payload["rules"] == [
        "unique: h(k=1)=1, e(j=1)=1 (pure-1: p=2, n=1, r even)"]


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
def test_unique_huge_genus_exit_4(capsys, fmt):
    # the genus has more digits than Python will turn into a string
    code, out, err = run(["unique", "--p", "13", "--n", "4000", "--rho", "4000",
                          "--r", "0", "--format", fmt], capsys)
    assert code == cli.EXIT_CAP
    assert out == ""
    assert "cannot be printed" in err and "Traceback" not in err


def test_usage_errors_exit_1(capsys):
    code, _, err = run(["orbits", "--sig", "(0;2,2)"], capsys)
    assert code == cli.EXIT_USAGE
    code, _, err = run(["fermat", "--p", "5", "--n", "2", "--w", "0,1,1"], capsys)
    assert code == cli.EXIT_USAGE
    code, _, err = run(["fermat", "--p", "5", "--n", "2"], capsys)
    assert code == cli.EXIT_USAGE


def test_cap_exit_4(capsys):
    code, _, err = run(["count", "--p", "5", "--n", "3", "--rho", "0", "--r", "8"],
                       capsys)
    assert code == cli.EXIT_CAP


def test_count_reports(capsys):
    payload = run_json(["count", "--p", "5", "--n", "1", "--rho", "0", "--r", "3"],
                       capsys)
    assert payload["total"] == 1 and payload["method"] == "burnside"
    payload = run_json(["count", "--p", "2", "--n", "1", "--rho", "0", "--r", "1"],
                       capsys)
    assert payload["total"] == 0
    # mixed signatures are genuine counts that agree with `unique`
    for argv in (["--p", "2", "--n", "2", "--rho", "1", "--r", "5"],
                 ["--p", "2", "--n", "1", "--rho", "1", "--r", "4"]):
        payload = run_json(["count", *argv], capsys)
        assert payload["total"] == 1 and payload["method"] == "burnside+witt"
        assert payload["flags"] == []
        assert run_json(["unique", *argv], capsys)["unique"] is True


def test_count_unramified_includes_adjudication(capsys):
    payload = run_json(["count", "--p", "2", "--n", "4", "--rho", "2", "--r", "0"],
                       capsys)
    assert payload["total"] == 1
    assert payload["unramified_unique_ranks"] == [0, 1, 3, 4]
    assert "disagree" in payload["unramified_note"]
    # the rank set is Witt's closed form, so p = 7 (beyond the BFS caps)
    # carries it too
    payload = run_json(["count", "--p", "7", "--n", "1", "--rho", "2", "--r", "0"],
                       capsys)
    assert payload["unramified_unique_ranks"] == [0, 1, 3, 4]


def test_maximal_with_search(capsys):
    payload = run_json(["maximal", "--p", "3", "--n", "1", "--rho", "2", "--r", "3",
                        "--search"], capsys)
    assert payload["maximal"] is False
    assert payload["witness"] is not None
    assert payload["search"]["status"] == "found"


def test_maximal_requires_unique(capsys):
    code, _, err = run(["maximal", "--p", "3", "--n", "1", "--rho", "1", "--r", "6"],
                       capsys)
    assert code == cli.EXIT_PRECONDITION


def test_orbits_catalog_and_file(capsys, tmp_path):
    payload = run_json(["orbits", "--group", "C10", "--sig", "(0;2,5,10)"], capsys)
    assert payload["orbits"] == 1
    path = tmp_path / "c10.tab"
    path.write_text(grouptable.cyclic(10).dumps(), encoding="utf-8")
    payload = run_json(["orbits", "--table", str(path), "--sig", "(0;2,5,10)"],
                       capsys)
    assert payload["orbits"] == 1


def test_orbits_positive_genus_exit_3(capsys):
    code, _, err = run(["orbits", "--group", "C2", "--sig", "(1;2,2)"], capsys)
    assert code == cli.EXIT_PRECONDITION


def test_orbits_key_too_wide_exit_4(capsys):
    # 2^64 tuples of C2 entries do not pack into 63-bit keys
    sig = "(0;" + ",".join(["2"] * 64) + ")"
    code, _, err = run(["orbits", "--group", "C2", "--sig", sig], capsys)
    assert code == cli.EXIT_CAP
    assert "pack" in err


def test_tables_match_golden_files(capsys):
    for which in (1, 2, 3, 4):
        code, out, err = run(["tables", "--which", str(which), "--format", "csv"],
                             capsys)
        assert code == 0
        golden = (REPO / "golden" / f"table{which}.csv").read_text(encoding="utf-8")
        assert out == golden, f"table {which} drifted from its golden file"


def test_tables_markdown_has_required_rows(capsys):
    code, out, _ = run(["tables", "--which", "1", "--format", "markdown"], capsys)
    assert code == 0
    assert out.count("|") > 20 and "r even, n=1, p=2" in out
    code, out, _ = run(["tables", "--which", "3", "--format", "markdown"], capsys)
    assert "(0;2^5)" in out and "n=3" in out
    code, out, _ = run(["tables", "--which", "4", "--format", "markdown"], capsys)
    assert "(rho;3^3)" in out


def test_fermat_vandermonde(capsys):
    payload = run_json(["fermat", "--p", "5", "--n", "2", "--w", "0,1,2"], capsys)
    assert payload["genus"] == 6
    assert payload["lambdas"] == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    assert payload["generic"] is True
    assert payload["smoothness"]["passed"] is True
    payload = run_json(["fermat", "--p", "3", "--n", "3", "--w", "0,1,2,3"], capsys)
    assert payload["lambdas"] == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
    assert all(check["residual"] == 0 for check in payload["residue_checks"])


def test_fermat_smoothness_is_the_jacobian_certificate(capsys):
    # a rational line: the certificate alone; a floating one also gives its
    # least minor relative to the Hadamard bound, a number in (0, 1]
    payload = run_json(["fermat", "--p", "7", "--n", "6",
                        "--w=11/5,37/5,-12/5,0,-19/10,-29/12,-13/5"], capsys)
    assert payload["smoothness"] == {"passed": True, "method": "jacobian-criterion"}
    payload = run_json(["fermat", "--p", "3", "--n", "3", "--w=1j,2,3,4"], capsys)
    least = payload["smoothness"].pop("least_relative_minor")
    assert 0 < least <= 1
    assert payload["smoothness"] == {"passed": True, "method": "jacobian-criterion"}


@pytest.mark.parametrize("option", ["--samples", "--seed"])
def test_fermat_sampler_options_are_gone(capsys, option):
    # the sampler left the CLI, and so did its knobs: old invocations are
    # usage errors, not options that do nothing
    for value in ("5", "0", "-1"):
        code, out, err = run(["fermat", "--p", "3", "--n", "3", "--w=0,1,2,3",
                              f"{option}={value}"], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert f"unrecognized arguments: {option}" in err


def test_orbits_group_order_cap_exit_4_before_building(capsys):
    start = time.process_time()
    code, out, err = run(["orbits", "--group", "C100000", "--sig", "(0;2,2)"], capsys)
    assert code == cli.EXIT_CAP and out == ""
    assert f"above the cap {grouptable.BY_NAME_ORDER_CAP}" in err
    assert time.process_time() - start < 1.0


def test_orbits_table_order_cap_exit_4_before_reading(capsys, tmp_path):
    n = 1000
    path = tmp_path / "c1000.tab"
    path.write_text(f"{n}\n" + "\n".join(" ".join(str((i + j) % n) for j in range(n))
                                         for i in range(n)) + "\n", encoding="utf-8")
    start = time.process_time()
    code, out, err = run(["orbits", "--table", str(path), "--sig", "(0;2,2)"], capsys)
    assert code == cli.EXIT_CAP and out == ""
    assert f"above the cap {grouptable.BY_NAME_ORDER_CAP}" in err
    assert time.process_time() - start < 1.0


def test_fermat_c_file_and_pins(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(
        {"C": [[[1, 0], [1, 0], [1, 0], [1, 0]], [[0, 0], [1, 0], [2, 0], [5, 0]]]}),
        encoding="utf-8")
    payload = run_json(["fermat", "--p", "3", "--n", "3", "--c-file", str(path),
                        "--pins", "0,1,inf"], capsys)
    assert payload["lambdas"][2] == "inf"


def test_fermat_mixes_rational_and_complex_input(capsys):
    # rational --w with complex --pins runs in floating point
    fermat = ["fermat", "--p", "3", "--n", "3"]
    payload = run_json(fermat + ["--w=1,2,3,4", "--pins=0,1,1j"], capsys)
    assert payload["lambdas"][:3] == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    mixed = run_json(fermat + ["--w=1,2,3,4", "--pins=1j,2j,3j"], capsys)
    floating = run_json(fermat + ["--w=1+0j,2+0j,3+0j,4+0j", "--pins=1j,2j,3j"], capsys)
    assert mixed["lambdas"] == floating["lambdas"]


def test_fermat_non_generic_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"C": [[[1, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [1, 0]]]}),
        encoding="utf-8")
    code, _, err = run(["fermat", "--p", "3", "--n", "3", "--c-file", str(path)],
                       capsys)
    assert code == cli.EXIT_PRECONDITION
    assert "generic" in err


def test_fermat_scaled_line_with_a_zero_minor_exit_3(capsys, tmp_path):
    # the minor of this integer C on columns (0, 3, 4, 5) is exactly 0, so
    # every multiple of it is the same non-generic line
    rows = [[1, 0, -2, -2, 0, -2], [0, -1, 2, 0, 0, 0], [2, 0, 3, 0, 2, 0],
            [0, -2, 0, 1, 2, -2]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"C": [[[1e6 * x, 0.0] for x in row] for row in rows]}),
                    encoding="utf-8")
    code, _, err = run(["fermat", "--p", "3", "--n", "5", "--c-file", str(path)], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert "not generic" in err


def test_fermat_c_file_beyond_the_floating_range_exit_3(capsys, tmp_path):
    # the squares of these entries overflow a float, and so do the products
    # of the elimination: the call names the range instead of a traceback
    rows = [[1e200, 2e200, 3e200, 5e200], [1e200, -1e200, 4e200, 2e200]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"C": [[[x, 0] for x in row] for row in rows]}),
                    encoding="utf-8")
    code, out, err = run(["fermat", "--p", "3", "--n", "3", "--c-file", str(path)], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert "floating-point range" in err
    assert "Traceback" not in err


def test_malformed_outside_input_exit_codes(capsys, tmp_path):
    pairs = tmp_path / "scalars.json"
    pairs.write_text(json.dumps({"C": [[1, 2, 3, 4]]}), encoding="utf-8")
    table = tmp_path / "word.tab"
    table.write_text("2\n0 1\n1 x\n", encoding="utf-8")
    missing = str(tmp_path / "missing")
    fermat = ["fermat", "--p", "3", "--n", "2"]
    cases = [
        (fermat + ["--w=a,1,2"], cli.EXIT_USAGE),
        (fermat + ["--w=0,1,2", "--pins", "0,1,x"], cli.EXIT_USAGE),
        (fermat + ["--c-file", missing], cli.EXIT_USAGE),
        (fermat + ["--c-file", str(pairs)], cli.EXIT_USAGE),
        (["orbits", "--table", missing, "--sig", "(0;2,2)"], cli.EXIT_USAGE),
        (["orbits", "--table", str(table), "--sig", "(0;2,2)"], cli.EXIT_PRECONDITION),
    ]
    for argv, want in cases:
        code, _, err = run(argv, capsys)
        assert code == want, (argv, err)


def test_json_output_roundtrips(capsys):
    payload = run_json(["maximal", "--p", "2", "--n", "1", "--rho", "3", "--r", "2"],
                       capsys)
    from eag.maximality import is_maximal
    from eag.surfaces import EAActionSpec
    want = is_maximal(EAActionSpec(2, 1, 3, 2)).to_json_dict()
    assert {k: payload[k] for k in want} == want


def test_markdown_and_csv_formats(capsys):
    code, out, _ = run(["unique", "--p", "2", "--n", "2", "--rho", "1", "--r", "5",
                        "--format", "markdown"], capsys)
    assert code == 0 and "**unique**" in out
    code, out, _ = run(["unique", "--p", "2", "--n", "2", "--rho", "1", "--r", "5",
                        "--format", "csv"], capsys)
    assert code == 0 and out.splitlines()[0].startswith("command,")


# ---------------------------------------------------------------------------
# fuzz: every argument vector exits 0-4 and raises nothing

JUNK = ["x", "", "-1", "2.5", "1/0", "nan", "inf", "1j"]


def _mostly(true_in=8):
    """True except one draw in ``true_in`` (shrinks towards True)."""
    return st.sampled_from([True] * (true_in - 1) + [False])


def _or_junk(valid):
    """Mostly ``valid``; one draw in eight is a malformed token."""
    return _mostly().flatmap(lambda ok: valid if ok else st.sampled_from(JUNK))


SMALL = _or_junk(st.integers(0, 6).map(str))
RATIONAL = st.fractions(min_value=-12, max_value=12, max_denominator=6).map(str)
GROUP_NAMES = ["C1", "C2", "C3", "C5", "C12", "D1", "D3", "D6", "S3", "A4", "C2xC2",
               "C2xC6", "C3xC3", "C2xC2xC2", "Q8", "Cx"]
SIGNATURE = st.lists(st.integers(1, 12), min_size=1, max_size=6).map(
    lambda periods: "(0;" + ",".join(map(str, periods)) + ")")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "c3.tab": grouptable.cyclic(3).dumps(),
        "word.tab": "3\n0 1 2\n1 2 x\n2 0 1\n",
        "short.tab": "3\n0 1 2\n",
        "line.json": json.dumps({"C": [[[1, 0], [1, 0], [1, 0], [1, 0]],
                                       [[0, 0], [1, 0], [2, 0], [5, 0]]]}),
        "scalars.json": json.dumps({"C": [[1, 2, 3, 4]]}),
        "nan.json": '{"C": [[[NaN, 0], [1, 0], [2, 0]]]}',
        "broken.json": "{",
        "list.json": "[1, 2]",
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return [str(root / name) for name in files] + [str(root / "missing"), str(root)]


def _argv(paths):
    fmt = [("--format", _or_junk(st.sampled_from(["json", "markdown", "csv"])))]
    path = st.sampled_from(paths)
    spec = [("--p", SMALL), ("--n", SMALL), ("--rho", SMALL), ("--r", SMALL)]

    def options(draw, command):
        if command in ("unique", "count", "maximal"):
            return spec + fmt + ([("--search", None)] if command == "maximal" else [])
        if command == "orbits":
            group = (("--group", _or_junk(st.sampled_from(GROUP_NAMES)))
                     if draw(_mostly(4)) else ("--table", path))
            return [group, ("--sig", _or_junk(SIGNATURE))] + fmt
        if command == "tables":
            return [("--which", _or_junk(st.integers(1, 4).map(str))),
                    ("--write-golden", st.just(paths[-1]))] + fmt
        if command == "fermat":
            n = draw(st.integers(1, 6))
            w = st.lists(RATIONAL, min_size=n + 1, max_size=n + 1, unique=True)
            line = (("--w", _or_junk(w.map(",".join))) if draw(_mostly(4)) else
                    ("--c-file", path))
            return [("--p", SMALL), ("--n", st.just(str(n))), line,
                    ("--pins", _or_junk(st.lists(RATIONAL, min_size=3, max_size=3)
                                        .map(",".join)))] + fmt
        return []

    @st.composite
    def build(draw):
        command = draw(st.sampled_from(
            ["unique", "count", "maximal", "orbits", "tables", "fermat", "bogus"]))
        argv = [command]
        for opt, values in options(draw, command):
            if not draw(_mostly(12)):
                continue
            argv.append(opt if values is None else f"{opt}={draw(values)}")
        if not draw(_mostly(12)):
            argv.insert(draw(st.integers(0, len(argv))),
                        draw(st.sampled_from(["--p", "-x", "extra", "--n=1"])))
        return argv

    return build()


def test_cli_fuzz_exit_codes(fuzz_files):
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(fuzz_files))
    def check(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in range(5), (argv, code)

    check()


def test_cli_path_never_imports_scipy():
    # the runtime dependencies are numpy alone; the exit code carries the
    # check, so it also holds under python -O
    script = (
        "import contextlib, io, sys\n"
        "from eag import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['orbits', '--group', 'A5', '--sig', '(0;2,3,5)']),\n"
        "             cli.main(['count', '--p', '3', '--n', '2', '--rho', '1', '--r', '3'])]\n"
        "sys.exit(1 if codes != [0, 0] else 2 if 'scipy' in sys.modules else 0)\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


#: calls that batch nothing: with numpy unimportable they must answer as before
NUMPY_FREE_CALLS = [
    ["count", "--p", "5", "--n", "3", "--rho", "0", "--r", "7"],
    ["count", "--p", "7", "--n", "2", "--rho", "3", "--r", "0"],  # Witt's closed form
    ["unique", "--p", "2", "--n", "3", "--rho", "0", "--r", "5"],
    ["maximal", "--p", "3", "--n", "4", "--rho", "2", "--r", "0"],  # maximal
    # non-maximal, one call per witness construction
    ["maximal", "--p", "2", "--n", "1", "--rho", "1", "--r", "4"],
    ["maximal", "--p", "3", "--n", "1", "--rho", "2", "--r", "0"],
    ["maximal", "--p", "3", "--n", "1", "--rho", "2", "--r", "3"],
    ["tables", "--which", "1"],
    ["tables", "--which", "2", "--format", "csv"],
    # smoothness by the Jacobian certificate: a rational line and a complex one
    ["fermat", "--p", "5", "--n", "6", "--w=1/2,-3,7/3,0,5,2,-1/4"],
    ["fermat", "--p", "3", "--n", "3", "--w=1j,2,3,4", "--pins=0,1,1j"],
]

NUMPY_BLOCKER = (
    "import importlib.abc, sys\n"
    "class Refuse(importlib.abc.MetaPathFinder):\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'numpy':\n"
    "            raise ImportError(f'{name} is blocked')\n"
    "sys.meta_path.insert(0, Refuse())\n")


def _python(script, *args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_numpy():
    done = _python("import sys\nimport eag.cli\nsys.exit(2 if 'numpy' in sys.modules else 0)\n")
    assert done.returncode == 0, done.stderr


def test_numpy_free_calls_answer_alike_with_numpy_blocked(capsys):
    script = NUMPY_BLOCKER + (
        "import contextlib, io, json\n"
        "from eag import cli\n"
        "answers = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        answers.append([cli.main(argv), out.getvalue()])\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    print(json.dumps(answers))\n")
    done = _python(script, json.dumps(NUMPY_FREE_CALLS))
    assert done.returncode == 0, done.stderr
    assert done.stdout, "the blocker let numpy through"
    blocked = json.loads(done.stdout)
    assert blocked == [[*run(argv, capsys)[:2]] for argv in NUMPY_FREE_CALLS]
    assert all(code == 0 for code, _ in blocked)
