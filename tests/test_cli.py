import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eag import cli, fp, genvec, grouptable, hyperfermat
from eag.errors import CAPS, EagError
from eag.surfaces import EAActionSpec, genus_is_admissible

from table_file import dumps

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


def test_count_unique_and_maximal_agree_on_every_small_spec(capsys):
    # count answers 1 exactly where unique answers true, with the same exit code, and
    # maximal answers a unique action; n = 0, the trivial group, is out of all three's domain
    answered = 0
    for p, n, rho, r in itertools.product((2, 3, 5), range(4), range(4), range(6)):
        if not genus_is_admissible(EAActionSpec(p, n, rho, r)):
            continue
        argv = ["--p", str(p), "--n", str(n), "--rho", str(rho), "--r", str(r)]
        (count, out, err), (unique, out_u, _) = (run(["count", *argv], capsys),
                                                 run(["unique", *argv], capsys))
        maximal = run(["maximal", *argv], capsys)[0]
        assert count == unique, argv
        if n == 0:
            assert count == maximal == cli.EXIT_DOMAIN and "needs n >= 1" in err, argv
            continue
        assert count == 0, (argv, err)
        is_unique = json.loads(out_u)["unique"]
        assert (json.loads(out)["total"] == 1) == is_unique, argv
        assert maximal == (0 if is_unique else cli.EXIT_PRECONDITION), argv
        answered += 1
    assert answered > 100


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
def test_unique_huge_genus_exit_4(capsys, fmt):
    # the genus has more digits than Python will turn into a string
    code, out, err = run(["unique", "--p", "13", "--n", "4000", "--rho", "4000",
                          "--r", "0", "--format", fmt], capsys)
    assert code == cli.EXIT_CAP
    assert out == ""
    assert f"above the digits cap of {CAPS['digits']}" in err and "Traceback" not in err


def test_usage_errors_exit_1(capsys):
    code, _, err = run(["orbits", "--sig", "(0;2,2)"], capsys)
    assert code == cli.EXIT_USAGE
    code, _, err = run(["fermat", "--p", "5", "--n", "2", "--w", "0,1,1"], capsys)
    assert code == cli.EXIT_USAGE
    code, _, err = run(["fermat", "--p", "5", "--n", "2"], capsys)
    assert code == cli.EXIT_USAGE


def test_fermat_needs_three_parameters(capsys):
    # a --w of commas alone names no entry, which n = -1 asked for: a traceback at the
    # digits bound before the line's own check
    for n, w in [(-1, ","), (-1, ",,"), (0, "1"), (1, "1,2")]:
        code, out, err = run(["fermat", "--p", "3", f"--n={n}", f"--w={w}"], capsys)
        assert (code, out) == (cli.EXIT_PRECONDITION, ""), (n, w)
        assert "need at least three parameters" in err and "Traceback" not in err


def test_cap_exit_4(capsys):
    # the row of 5,000 periods needs (r + 1)^2 steps for its one state alone,
    # and table 1 names no row for (5, 3, 5000)
    code, out, err = run(["count", "--p", "5", "--n", "3", "--rho", "0", "--r", "5000"],
                         capsys)
    assert code == cli.EXIT_CAP and out == ""
    assert f"above the burnside steps cap of {CAPS['burnside steps']}" in err


def test_count_reports(capsys):
    payload = run_json(["count", "--p", "5", "--n", "1", "--rho", "0", "--r", "3"],
                       capsys)
    assert payload["total"] == 1 and payload["method"] == "burnside"
    payload = run_json(["count", "--p", "2", "--n", "1", "--rho", "0", "--r", "1"],
                       capsys)
    assert payload["total"] == 0
    # past the oracles' box p in {2, 3, 5}, k <= 4, r <= 8, which capped the count
    for argv, total in [(["--p", "7", "--n", "2", "--rho", "0", "--r", "5"], 39),
                        (["--p", "13", "--n", "3", "--rho", "0", "--r", "10"], 34_330_061_746_244),
                        (["--p", "13", "--n", "5", "--rho", "0", "--r", "7"], 332)]:
        payload = run_json(["count", *argv], capsys)
        assert (payload["total"], payload["method"]) == (total, "burnside"), argv
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


def test_count_unramified_adjudicates_a_huge_genus_at_once(capsys):
    rho = 10 ** 9
    start = time.process_time()
    payload = run_json(["count", "--p", "2", "--n", "1", "--rho", str(rho), "--r", "0"], capsys)
    assert time.process_time() - start < 1
    assert payload["unramified_unique_ranks"] == [0, 1, 2 * rho - 1, 2 * rho]


def _small_address_space():
    # the child's own limits, so that a regression fails the test instead of
    # exhausting the machine's memory or running on
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))
    resource.setrlimit(resource.RLIMIT_CPU, (3, 3))


@pytest.mark.parametrize("command", [["count"], ["unique"], ["maximal"], ["maximal", "--search"]])
@pytest.mark.parametrize("p", [2, 13])
@pytest.mark.parametrize("huge", ["n", "rho", "r"])
def test_huge_sizes_answer_at_once_in_a_fresh_process(command, p, huge):
    sizes = {"n": 2, "rho": 1, "r": 3, huge: 10 ** 9}
    argv = [command[0], f"--p={p}", *(f"--{k}={v}" for k, v in sizes.items()), *command[1:]]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-m", "eag.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=_small_address_space)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert 0 <= done.returncode <= cli.EXIT_CAP, done.stderr
    assert "Traceback" not in done.stderr
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert cpu < 1, cpu


@pytest.mark.parametrize("command", ["count", "unique", "maximal"])
def test_the_trivial_group_exits_2_at_once_whatever_its_sizes(command):
    # the refusal names no signature, whose 10^9 periods would not fit in memory
    argv = [command, "--p=2", "--n=0", f"--rho={10 ** 9}", f"--r={10 ** 9}"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-m", "eag.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=_small_address_space)
    assert done.returncode == cli.EXIT_DOMAIN and "needs n >= 1" in done.stderr, done.stderr


def test_a_spec_shows_without_its_periods_in_a_fresh_process():
    # the signature of r = 10^9 periods would not fit in the child's address space
    script = ("from eag.surfaces import EAActionSpec\n"
              "print(EAActionSpec(2, 1, 0, 10 ** 9), EAActionSpec(3, 2, 4, 0), sep='\\n')\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=_small_address_space)
    assert done.stdout == ("C_2^1 acting with (0; 2^1000000000)\n"
                           "C_3^2 acting with (4; -)\n"), done.stderr


#: 2^89 - 1, a Mersenne prime past the bound below which fp.is_prime decides
MERSENNE_89 = 2 ** 89 - 1


@pytest.mark.parametrize("argv,code", [
    # 3^39 candidates at the parent, which ran without bound; no key packs
    (["orbits", "--group", "C2xC4", "--sig", "(0;" + ",".join(["2"] * 40) + ")"], cli.EXIT_CAP),
    # trial division to 3e13 at the parent
    (["fermat", f"--p={MERSENNE_89}", "--n=2", "--w=0,1,2"], cli.EXIT_CAP),
    # trial division to 10^9 at the parent; Miller-Rabin decides it
    (["fermat", "--p=1000000000000000003", "--n=2", "--w=0,1,2"], 0),
    (["fermat", "--p=3", "--n=10000", "--w=" + ",".join(map(str, range(10001)))], cli.EXIT_CAP),
    # numbers past the digit limit, which int() refused with a traceback: in a
    # signature by the digits cap, in a group name by the group order cap
    (["orbits", "--group", "A5", "--sig", f"(0;2,3,{'7' * 5000})"], cli.EXIT_CAP),
    (["orbits", "--group", "A5", "--sig", f"({'1' * 5000};2,3)"], cli.EXIT_CAP),
    (["orbits", "--group", "C" + "9" * 5000, "--sig", "(0;2,2)"], cli.EXIT_CAP),
    # rationals past the float range in the payload, which ended in an OverflowError
    (["fermat", "--p=3", "--n=2", "--w=1e400,2,3"], cli.EXIT_CAP),
    (["fermat", "--p=3", "--n=2", "--w=1/3,2,3", "--pins=1e400,0,1"], cli.EXIT_CAP),
    (["fermat", "--p=3", "--n=4", "--w=1e200,2,3,4,5"], cli.EXIT_CAP),  # C holds w^2 = 1e400
    (["fermat", "--p=3", "--n=2", "--w=1e308,2,3"], 0),
    # extreme scales, read exactly: a floating backend said "not generic" or
    # "pins coincide" for some, and overflowed with a traceback for others
    (["fermat", "--p=3", "--n=2", "--w=1e300j,2,3"], 0),
    (["fermat", "--p=3", "--n=2", "--w=1e160,1e160j,3"], 0),
    (["fermat", "--p=3", "--n=2", "--w=1e-200j,2e-200j,3e-200j"], 0),
    (["fermat", "--p=3", "--n=2", "--w=1,2,3", "--pins=0,1,1e200j"], 0),
    (["fermat", "--p=3", "--n=4", "--w=1e-5j,2e-5j,3e-5j,4e-5j,5e-5j"], 0),
    # numbers whose digits, or whose powers' digits in C, pass the digits cap
    (["fermat", "--p=3", "--n=20", "--w=1e4300," + ",".join(map(str, range(1, 21)))],
     cli.EXIT_CAP),
    (["fermat", "--p=3", "--n=12", "--w=1e20000," + ",".join(map(str, range(1, 13)))],
     cli.EXIT_CAP),
    (["fermat", "--p=3", "--n=20", "--w=1e300," + ",".join(map(str, range(1, 21)))],
     cli.EXIT_CAP),
    (["fermat", "--p=3", "--n=2", "--w=1e999999999,2,3"], cli.EXIT_CAP),
    # an order line past the digit limit, by the digits cap before int() reads it
    (["orbits", "--table", "{tmp}/order.tab", "--sig", "(0;2,2)"], cli.EXIT_CAP),
    # a row past the burnside steps cap, and one of 10^9 periods, refused before any loop
    # over r; a huge pure-7 row past it still answers in closed form
    (["count", "--p=5", "--n=3", "--rho=0", "--r=5000"], cli.EXIT_CAP),
    (["count", "--p=3", "--n=2", "--rho=0", "--r=1000000000"], cli.EXIT_CAP),
    (["count", "--p=7", "--n=40", "--rho=0", "--r=41"], 0),
    # 10^9 ranks and periods, refused from r alone before any structure per rank (its top
    # rank is pure-7, so the lower ranks are refused again)
    (["count", "--p=3", "--n=1000000000", "--rho=1000000000", "--r=1000000000"], cli.EXIT_CAP),
])
def test_orbits_and_fermat_caps_answer_at_once_in_a_fresh_process(argv, code, tmp_path):
    (tmp_path / "order.tab").write_text("9" * 5000 + "\n", encoding="utf-8")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-m", "eag.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=_small_address_space)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert code == 0 or done.stdout == ""
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert cpu < 1, cpu


def test_integer_options_past_the_digits_cap_exit_4_in_a_fresh_process():
    # 5,000 digits in an integer option exit 4 by the digits cap, as in a --sig
    # number, where int() refused them past Python's digit limit (exit 1); a
    # token int() refuses for what it is keeps argparse's message and exit 1
    big = "9" * 5000
    spec = {"--p": "5", "--n": "3", "--rho": "0", "--r": "7"}
    calls = [["count", *(arg for k, v in {**spec, option: big}.items() for arg in (k, v))]
             for option in spec]
    calls += [["tables", "--which", big], ["fermat", "--p", "3", "--n", big, "--w=0,1,2"]]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for argv in calls + [["count", "--p", "5", "--n", "3", "--rho", "0", "--r", "7x"]]:
        done = subprocess.run([sys.executable, "-m", "eag.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert "Traceback" not in done.stderr and done.stdout == "", done.stderr
        if argv in calls:
            assert done.returncode == cli.EXIT_CAP, [arg[:8] for arg in argv]
            assert "the digits of an integer option: 5000, above the digits cap" in done.stderr
        else:
            assert done.returncode == cli.EXIT_USAGE
            assert "argument --r: invalid int value: '7x'" in done.stderr


def test_fermat_rank_cap_comes_before_the_line(capsys, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("line built before the cap")

    monkeypatch.setattr(hyperfermat, "vandermonde_line", unbuilt)
    monkeypatch.setattr(hyperfermat.LineMatrix, "of", unbuilt)
    n = CAPS["ambient dimension"] + 1
    for source in ("--w=" + ",".join(map(str, range(n + 1))), "--c-file=line.json"):
        code, out, err = run(["fermat", "--p", "3", "--n", str(n), source], capsys)
        assert code == cli.EXIT_CAP and out == ""
        assert f"n: {n}, above the ambient dimension cap of {n - 1}" in err


def test_fermat_at_the_rank_cap_answers(capsys):
    n = CAPS["ambient dimension"]
    payload = run_json(["fermat", "--p", "3", "--n", str(n),
                        "--w=" + ",".join(map(str, range(n + 1)))], capsys)
    assert payload["genus"] == hyperfermat.hyper_fermat_genus(3, n)


def test_fermat_tests_primality_once(capsys, monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return fp.is_prime(p)

    monkeypatch.setattr(hyperfermat, "is_prime", counted)
    run_json(["fermat", "--p", "1000000000000000003", "--n", "2", "--w=0,1,2"], capsys)
    assert calls == [10 ** 18 + 3]
    code, _, err = run(["fermat", "--p", "1000000000000000001", "--n", "2", "--w=0,1,2"], capsys)
    assert code == cli.EXIT_PRECONDITION and "not prime" in err


@pytest.mark.parametrize("digit_limit", [None, 0])
@pytest.mark.parametrize("huge", ["n", "r"])
def test_unique_decides_from_the_sizes_first(capsys, monkeypatch, digit_limit, huge):
    def unbuilt(*args):
        raise AssertionError("built before the caps")

    # neither the periods nor the genus is built before the caps exit 4
    monkeypatch.setattr(genvec, "require_admissible_genus", unbuilt)
    monkeypatch.setattr(EAActionSpec, "sig", property(unbuilt))
    sizes = {"n": 2, "rho": 1, "r": 3, huge: 4000 if huge == "n" else CAPS["witness ints"] + 1}
    limit = sys.get_int_max_str_digits()
    if digit_limit is not None:
        sys.set_int_max_str_digits(digit_limit)
    try:
        # 13^4000 has 4,456 digits; with Python's limit off, unique keeps the digits cap
        code, out, err = run(["unique", "--p", "13", *(f"--{k}={v}" for k, v in sizes.items())],
                             capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == cli.EXIT_CAP and out == ""
    cap = "digits" if huge == "n" else "witness ints"
    assert f"above the {cap} cap of {CAPS[cap]}" in err


def test_unique_below_its_caps_prints_a_long_genus(capsys):
    # 2^14000 has 4,215 digits, under the limit: the genus is printed in full
    payload = run_json(["unique", "--p", "2", "--n", "14000", "--rho", "2", "--r", "0"], capsys)
    assert payload["genus"] == 1 + 2 ** 14000 and payload["unique"] is False


def test_a_negative_genus_of_many_digits_exits_2(capsys):
    # the genus 1 - 2^20000 passes the int-to-str limit, so the message leaves it out
    code, out, err = run(["maximal", "--p", "2", "--n", "20000", "--rho", "0", "--r", "0"], capsys)
    assert code == cli.EXIT_DOMAIN and out == ""
    assert "negative genus" in err


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
    path.write_text(dumps(grouptable.cyclic(10)), encoding="utf-8")
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
    assert f"above the key values cap of {CAPS['key values']}" in err


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
    # the certificate alone, for a rational line and a complex one alike
    payload = run_json(["fermat", "--p", "7", "--n", "6",
                        "--w=11/5,37/5,-12/5,0,-19/10,-29/12,-13/5"], capsys)
    assert payload["smoothness"] == {"passed": True, "method": "jacobian-criterion"}
    payload = run_json(["fermat", "--p", "3", "--n", "3", "--w=1j,2,3,4"], capsys)
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
    assert f"above the group order cap of {CAPS['group order']}" in err
    assert time.process_time() - start < 1.0


def test_orbits_table_order_cap_exit_4_before_reading(capsys, tmp_path):
    n = 1000
    path = tmp_path / "c1000.tab"
    path.write_text(f"{n}\n" + "\n".join(" ".join(str((i + j) % n) for j in range(n))
                                         for i in range(n)) + "\n", encoding="utf-8")
    start = time.process_time()
    code, out, err = run(["orbits", "--table", str(path), "--sig", "(0;2,2)"], capsys)
    assert code == cli.EXIT_CAP and out == ""
    assert f"above the group order cap of {CAPS['group order']}" in err
    assert time.process_time() - start < 1.0


def test_fermat_c_file_and_pins(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(
        {"C": [[[1, 0], [1, 0], [1, 0], [1, 0]], [[0, 0], [1, 0], [2, 0], [5, 0]]]}),
        encoding="utf-8")
    payload = run_json(["fermat", "--p", "3", "--n", "3", "--c-file", str(path),
                        "--pins", "0,1,inf"], capsys)
    assert payload["lambdas"][2] == "inf"


def test_fermat_reads_the_point_at_infinity_in_any_case(capsys):
    # as float() reads inf in any case: every spelling prints inf's payload, byte for byte
    fermat = ["fermat", "--p", "3", "--n", "3", "--w=0.5,1,2.5,-3"]
    code, want, _ = run(fermat + ["--pins=0,1,inf"], capsys)
    assert code == 0
    for spelling in ("INF", "Inf", "Infinity", "OO", " iNfInItY "):
        assert run(fermat + [f"--pins=0,1,{spelling}"], capsys) == (0, want, "")
        assert hyperfermat.as_proj_point(spelling).is_infinity()
    code, out, err = run(["fermat", "--p", "3", "--n", "2", "--w=INF,1,2"], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "") and "--w entries must be finite" in err


def test_fermat_mixes_rational_and_complex_input(capsys):
    # rational --w with complex --pins: every token is read exactly, so the
    # line of 1,2,3,4 and that of 1+0j,...,4+0j are the same
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


def test_fermat_c_file_beyond_the_floating_range_answers(capsys, tmp_path):
    # the squares of these entries overflow a float, but the entries are read
    # exactly, and C times 1e200 is the line of C itself
    rows = [[1, 2, 3, 5], [1, -1, 4, 2]]
    payloads = []
    for scale in ("", "e200"):
        path = tmp_path / f"line{scale}.json"
        path.write_text('{"C": [%s]}' % ", ".join(
            "[" + ", ".join(f"[{x}{scale}, 0]" for x in row) + "]" for row in rows),
            encoding="utf-8")
        payloads.append(run_json(["fermat", "--p", "3", "--n", "3", "--c-file", str(path)],
                                 capsys))
    assert payloads[1]["C"][0][0] == [1e200, 0.0]
    assert payloads[1]["lambdas"] == payloads[0]["lambdas"]


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
    verdict = is_maximal(EAActionSpec(2, 1, 3, 2))
    witness = verdict.witness
    # a record's payload is its fields by name, tuples as lists; the vector adds its rho
    assert {k: payload[k] for k in verdict._fields} == {
        "spec": vars(verdict.spec), "maximal": verdict.maximal, "rule": verdict.rule,
        "witness": {"n_spec": vars(witness.n_spec), "vector": witness.vector.to_json_dict(),
                    "subgroup_basis": [list(v) for v in witness.subgroup_basis]}}


#: JSON leaves of every type the payloads hold, and the edge cases of each
JSON_LEAVES = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600"]),
    st.booleans(), st.none(), st.integers(), st.integers(min_value=10 ** 40).map(lambda k: -k),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]),
    st.fractions())
JSON_TREES = st.recursive(JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(), kids, max_size=4), st.dictionaries(st.integers(), kids, max_size=3),
    st.dictionaries(st.tuples(st.integers()), kids, min_size=1, max_size=2)),  # keys json refuses
    max_leaves=24)


def _written(write, tree):
    try:
        return write(tree)
    except TypeError as exc:
        return repr(exc)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_json_writer_matches_json_dumps(tree):
    want = _written(lambda x: json.dumps(x, sort_keys=True, indent=2, default=str), tree)
    assert _written(cli._json, tree) == want


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
def test_a_payload_past_the_digit_limit_exits_4(capsys, fmt):
    # 2^14000 has 4,215 digits: under the digits cap, past a lowered int-to-str limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code, out, err = run(["unique", "--p", "2", "--n", "14000", "--rho", "2", "--r", "0",
                              "--format", fmt], capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == cli.EXIT_CAP and out == ""
    assert "payload cannot be printed" in err and "Traceback" not in err


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


@st.composite
def _shares(draw, *branches):
    """One of ``branches``, (weight, strategy) pairs, picked by one flat
    ``st.sampled_from`` over the weights and then drawn: so each branch's share
    of the draws is its weight over the total, as written."""
    return draw(draw(st.sampled_from([strategy for weight, strategy in branches
                                      for _ in range(weight)])))


def _tokens(*groups):
    """A token of one of ``groups``, (weight, tokens) pairs: the group by its
    share, as ``_shares`` picks it, and then each of its tokens alike."""
    return _shares(*((weight, st.sampled_from(tokens)) for weight, tokens in groups))


def _powers(ks):
    """10^k for each k, written out: str() refuses an int past the digit limit."""
    return ["1" + "0" * k for k in ks]


SMALL = [str(i) for i in range(7)]
#: a prime 6 draws in 8, another small number 1 in 8 and junk 1 in 8
PRIMES = _tokens((6, ["2", "3", "5", "7", "11", "13"]), (1, ["0", "1", "4", "6"]), (1, JUNK))
FORMATS = _tokens((7, ["json", "markdown", "csv"]), (1, JUNK))
#: k for 10^k of as many digits as the digits cap admits, and of one and eight more,
#: which the cap refuses as the token is read
PAST_DIGITS = (CAPS["digits"] - 1, CAPS["digits"], CAPS["digits"] + 7)
#: each spec subcommand's integers: a small one 4 draws in 8, an extreme one 3 in
#: 8 and junk 1 in 8.  The extremes are 0, -1 and powers of ten that the caps refuse
#: from their size alone, so that no example runs a slow count or search in process:
#: count's r stays where the burnside steps cap refuses a row from its sizes or its
#: first states (r = 10^3 needs (r + 1)^2 steps a state); unique's genus digits refuse
#: an n of 10^5 or more and its witness ints an r of 10^6 or more, and only the digits
#: of the token itself a rho; maximal's witness ints, (n + 1)(2 rho + r + 2), refuse
#: any of the three from 10^6 on
SPEC_INTS = {
    command: {option: _tokens((4, SMALL), (3, ["0", "-1", *_powers(ks)]), (1, JUNK))
              for option, ks in extremes.items()}
    for command, extremes in {
        "count": {"--n": range(10), "--rho": range(10), "--r": range(3, 10)},
        "unique": {"--n": (5, 9, 300, *PAST_DIGITS), "--rho": PAST_DIGITS[1:],
                   "--r": (6, 9, 300, *PAST_DIGITS)},
        "maximal": {option: (6, 9, 300, *PAST_DIGITS) for option in ("--n", "--rho", "--r")},
    }.items()
}
RATIONAL = st.fractions(min_value=-12, max_value=12, max_denominator=6).map(str)
GROUP_NAMES = ["C1", "C2", "C3", "C5", "C12", "D1", "D3", "D6", "S3", "A4", "C2xC2",
               "C2xC6", "C3xC3", "C2xC2xC2", "Q8", "Cx"]
SIGNATURE = st.lists(st.integers(1, 12), min_size=1, max_size=6).map(
    lambda periods: "(0;" + ",".join(map(str, periods)) + ")")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "c3.tab": dumps(grouptable.cyclic(3)),
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


#: a complex token a+bj of two-decimal parts, each part within 5
COMPLEX = st.builds(lambda a, b: f"{a / 100:.2f}{b / 100:+.2f}j",
                    st.integers(-500, 500), st.integers(-500, 500))
#: a scalar of --w or --pins: a rational 5 draws in 8, a complex token 2 in 8, and an
#: extreme 1 in 8: the least subnormal, a tiny imaginary part, a real number in
#: parentheses, and two that the digits cap refuses from their size (1e400 from its
#: powers in C or as a float of the payload, 1e999999999 as its token is read)
SCALAR = _shares((5, RATIONAL), (2, COMPLEX),
                 (1, st.sampled_from(["(1+0j)", "5e-324", "1e-300j", "1e400", "1e999999999"])))
#: a pin is also the point at infinity, 1 draw in 8, in any case
PIN = _shares((7, SCALAR), (1, st.sampled_from(["inf", "INF", "Infinity", "oo"])))


def _fermat_options(draw, paths):
    # a line needs n + 1 distinct entries; n below 2, too few or too many entries and
    # blank ones ("1,,2", or "," with no entry at all) must exit 1 or 3
    n = draw(st.sampled_from(range(-1, 7)))
    commas = st.sampled_from(["", ",", ",,"])
    w = _shares(
        (4, st.tuples(st.lists(SCALAR, min_size=n + 1, max_size=n + 1, unique=True), commas)),
        (2, st.tuples(st.lists(SCALAR, max_size=n + 2, unique=True), commas)),
        (1, st.tuples(st.just([]), st.sampled_from([",", ",,"]))),
    ).map(lambda t: ",".join(t[0]) + t[1])
    pins = st.lists(PIN, min_size=3, max_size=3).map(",".join)
    line = draw(_shares((6, st.tuples(st.just("--w"), _shares((7, w), (1, st.sampled_from(JUNK))))),
                        (2, st.tuples(st.just("--c-file"), st.sampled_from(paths)))))
    return [("--p", PRIMES), ("--n", st.just(str(n))),
            (line[0], st.just(line[1])),
            ("--pins", _shares((7, pins), (1, st.sampled_from(JUNK))))]


def _options(draw, command, paths):
    """(option, strategy of its value) pairs of one subcommand, None for a flag."""
    if command in SPEC_INTS:
        return ([("--p", PRIMES)] + list(SPEC_INTS[command].items())
                + ([("--search", None)] if command == "maximal" else []))
    if command == "orbits":
        group = draw(_shares((3, st.tuples(st.just("--group"),
                                           _tokens((7, GROUP_NAMES), (1, JUNK)))),
                             (1, st.tuples(st.just("--table"), st.sampled_from(paths)))))
        return [(group[0], st.just(group[1])),
                ("--sig", _shares((7, SIGNATURE), (1, st.sampled_from(JUNK))))]
    if command == "tables":
        return [("--which", _tokens((7, ["1", "2", "3", "4"]), (1, JUNK))),
                ("--write-golden", st.just(paths[-1]))]
    if command == "fermat":
        return _fermat_options(draw, paths)
    return []  # an unknown subcommand


@st.composite
def _argv(draw, command, paths):
    """argv of one subcommand: each option kept 11 draws in 12, --format with the
    rest, and one stray token inserted 1 draw in 12."""
    argv = [command]
    keep = st.sampled_from([True] * 11 + [False])
    for opt, values in [*_options(draw, command, paths), ("--format", FORMATS)]:
        if draw(keep):
            argv.append(opt if values is None else f"{opt}={draw(values)}")
    if not draw(keep):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--p", "-x", "extra", "--n=1"])))
    return argv


def _fermat_must_answer(argv) -> bool:
    """Whether argv, as parsed, meets every precondition of fermat: --p prime, --w
    exactly n + 1 >= 3 pairwise-distinct finite values, and --pins, if given, three
    pairwise-distinct points, all judged on exact values (0.5 and 1/2 coincide).
    A Vandermonde line of distinct w is generic, and a fractional linear map keeps
    distinct points apart, so such a call never exits 3."""
    try:
        args = cli._parse(argv)
        w = cli._parse_scalar_list(args.w or "")
        pins = cli._parse_scalar_list(args.pins) if args.pins else None
        prime = fp.is_prime(args.p)
    except (cli.UsageError, EagError):
        return False
    return (prime and not args.c_file and len(w) == args.n + 1 >= 3 and "inf" not in w
            and len(set(w)) == len(w) and (pins is None or len(pins) == len(set(pins)) == 3))


def _check_exit_codes(command, paths):
    """One derandomized property of 400 argument vectors of ``command``."""
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(command, paths))
    def check(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        code, out, err = run()
        # pytest.fail, not assert, so that the property also checks under python -O
        # orbits keeps each catalog group and its Aut(G) generators: a second,
        # warm call answers as the first did
        if command == "orbits" and run() != (code, out, err):
            pytest.fail(f"{argv}: a second call answers otherwise than the first")
        if code not in range(5) or "Traceback" in err:
            pytest.fail(f"{argv}: exit {code}\n{err}")
        # main's one print site: a success prints whole lines, a refusal nothing
        if code == 0 and not out.endswith("\n"):
            pytest.fail(f"{argv}: exit 0 with stdout ending {out[-80:]!r}")
        if code and out:
            pytest.fail(f"{argv}: exit {code} after printing {out[:80]!r}")
        if code == cli.EXIT_CAP and not ("payload cannot be printed" in err
                                         or any(f"the {cap} cap of" in err for cap in CAPS)):
            pytest.fail(f"{argv}: exit 4 names no cap\n{err}")
        if code == cli.EXIT_PRECONDITION and command == "fermat" and _fermat_must_answer(argv):
            pytest.fail(f"{argv}: exit 3 on a prime p, distinct finite w and distinct pins\n{err}")

    check()


def test_cli_fuzz_exit_codes(fuzz_files):
    # each subcommand is its own property, so a branch of one subcommand does not
    # take the draws of another
    for command in ["unique", "count", "maximal", "orbits", "tables", "fermat", "bogus"]:
        _check_exit_codes(command, fuzz_files)


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


#: calls that batch nothing, every subcommand but orbits: with numpy
#: unimportable they must answer as before
NUMPY_FREE_CALLS = [
    ["count", "--p", "5", "--n", "3", "--rho", "0", "--r", "7"],
    ["count", "--p", "7", "--n", "2", "--rho", "3", "--r", "0"],  # Witt's closed form
    ["unique", "--p", "2", "--n", "3", "--rho", "0", "--r", "5"],
    ["maximal", "--p", "3", "--n", "4", "--rho", "2", "--r", "0"],  # maximal
    # non-maximal, one call per witness construction
    ["maximal", "--p", "2", "--n", "1", "--rho", "1", "--r", "4"],
    ["maximal", "--p", "3", "--n", "1", "--rho", "2", "--r", "0"],
    ["maximal", "--p", "3", "--n", "1", "--rho", "2", "--r", "3"],
    # the witness search: one that finds a witness, one that finds none
    ["maximal", "--p", "2", "--n", "1", "--rho", "0", "--r", "10", "--search"],
    ["maximal", "--p", "5", "--n", "1", "--rho", "2", "--r", "3", "--search"],
    ["tables", "--which", "1"],
    ["tables", "--which", "2", "--format", "csv"],
    ["tables", "--which", "3"],
    ["tables", "--which", "4"],
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


#: the engines that eag.cli leaves to the subcommands' bodies
ENGINES = ("eag.genvec", "eag.maximality", "eag.hyperfermat", "eag.cx", "eag.tables",
           "eag.grouptable")


def _loaded(names):
    """A script's last line: exit 2 if a module in ``names`` or below it is loaded."""
    return (f"sys.exit(2 if [m for m in sys.modules for name in {list(names)!r}\n"
            "                if m == name or m.startswith(name + '.')] else 0)\n")


def test_no_call_loads_dataclasses_or_inspect():
    # the records are plain classes: import eag.cli and every numpy-free call leave out
    # dataclasses and the inspect it imports; numpy loads inspect itself, so an orbits
    # call is checked for dataclasses alone
    script = ("import contextlib, io, json, sys\n"
              "from eag import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    if any([cli.main(argv) for argv in json.loads(sys.argv[1])]):\n"
              "        sys.exit(1)\n")
    for calls, unloaded in [([], ("dataclasses", "inspect")),
                            (NUMPY_FREE_CALLS, ("dataclasses", "inspect")),
                            ([["orbits", "--group", "A5", "--sig", "(0;2,3,5)"]], ("dataclasses",))]:
        done = _python(script + _loaded(unloaded), json.dumps(calls))
        assert done.returncode == 0, (calls, done.stderr)


def test_cli_import_loads_no_numpy():
    # nor any engine: each subcommand imports its own in its body
    done = _python("import sys\nimport eag.cli\n" + _loaded(("numpy", *ENGINES)))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv,unloaded", [
    (["unique", "--p", "2", "--n", "3", "--rho", "0", "--r", "5"],
     ("eag.hyperfermat", "eag.cx", "eag.maximality", "eag.tables")),
    (["fermat", "--p", "5", "--n", "6", "--w=1/2,-3,7/3,0,5,2,-1/4"],
     ("eag.genvec", "eag.maximality", "eag.tables")),
    (["orbits", "--group", "A5", "--sig", "(0;2,3,5)"],
     ("eag.genvec", "eag.maximality", "eag.hyperfermat", "eag.tables")),
])
def test_a_subcommand_loads_its_own_engine_alone(argv, unloaded):
    done = _python("import contextlib, io, json, sys\n"
                   "from eag import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    if cli.main(json.loads(sys.argv[1])):\n"
                   "        sys.exit(1)\n" + _loaded(unloaded), json.dumps(argv))
    assert done.returncode == 0, done.stderr


def test_orbits_call_loads_no_numpy_ma():
    # np.unique would import numpy.ma on its first call in a process
    done = _python("import contextlib, io, sys\n"
                   "from eag import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    code = cli.main(['orbits', '--group', 'A5', '--sig', '(0;2,3,5)'])\n"
                   "sys.exit(1 if code else 2 if 'numpy.ma' in sys.modules else 0)\n")
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


def test_no_subcommand_loads_the_oracles():
    # eag.orbits holds the test oracles alone; the orbit engine that the
    # orbits subcommand runs on lives in fp
    calls = NUMPY_FREE_CALLS + [["orbits", "--group", "A5", "--sig", "(0;2,3,5)"],
                                ["orbits", "--group", "C2xC4", "--sig", "(0;2,2,4,4)"]]
    done = _python("import contextlib, io, json, sys\n"
                   "from eag import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                   "sys.exit(1 if any(codes) else 2 if 'eag.orbits' in sys.modules else 0)\n",
                   json.dumps(calls))
    assert done.returncode == 0, done.stderr
