import json
import time
from pathlib import Path

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
    assert payload["total"] == 1 and payload["method"] == "brute-force"
    payload = run_json(["count", "--p", "2", "--n", "1", "--rho", "0", "--r", "1"],
                       capsys)
    assert payload["total"] == 0
    payload = run_json(["count", "--p", "2", "--n", "2", "--rho", "1", "--r", "5"],
                       capsys)
    assert payload["method"] == "formula" and payload["flags"]


def test_count_unramified_includes_adjudication(capsys):
    payload = run_json(["count", "--p", "2", "--n", "4", "--rho", "2", "--r", "0"],
                       capsys)
    assert payload["total"] == 1
    assert payload["unramified_unique_ranks"] == [0, 1, 3, 4]
    assert "disagree" in payload["unramified_note"]


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


def test_fermat_rejects_nonpositive_samples(capsys):
    for samples in ("-1", "0"):
        code, _, err = run(["fermat", "--p", "3", "--n", "3", "--w=0,1,2,3",
                            "--samples", samples], capsys)
        assert code == cli.EXIT_PRECONDITION
        assert "sample" in err


def test_fermat_unsamplable_line_exit_4(capsys):
    # the intersection coordinates span so many orders of magnitude that no
    # draw lies clear of the branch points; the sampler must give up, not hang
    start = time.perf_counter()
    code, _, err = run(["fermat", "--p", "7", "--n", "6",
                        "--w=11/5,37/5,-12/5,0,-19/10,-29/12,-13/5"], capsys)
    assert code == cli.EXIT_CAP
    assert time.perf_counter() - start < 2.0


def test_fermat_c_file_and_pins(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(
        {"C": [[[1, 0], [1, 0], [1, 0], [1, 0]], [[0, 0], [1, 0], [2, 0], [5, 0]]]}),
        encoding="utf-8")
    payload = run_json(["fermat", "--p", "3", "--n", "3", "--c-file", str(path),
                        "--pins", "0,1,inf"], capsys)
    assert payload["lambdas"][2] == "inf"


def test_fermat_non_generic_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"C": [[[1, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [1, 0]]]}),
        encoding="utf-8")
    code, _, err = run(["fermat", "--p", "3", "--n", "3", "--c-file", str(path)],
                       capsys)
    assert code == cli.EXIT_PRECONDITION
    assert "generic" in err


def test_json_output_roundtrips(capsys):
    payload = run_json(["maximal", "--p", "2", "--n", "1", "--rho", "3", "--r", "2"],
                       capsys)
    from eag.maximality import MaximalityVerdict, is_maximal
    from eag.surfaces import EAActionSpec
    parsed = MaximalityVerdict.from_json_dict(
        {k: payload[k] for k in ("spec", "maximal", "witness", "rule")})
    assert parsed == is_maximal(EAActionSpec(2, 1, 3, 2))


def test_markdown_and_csv_formats(capsys):
    code, out, _ = run(["unique", "--p", "2", "--n", "2", "--rho", "1", "--r", "5",
                        "--format", "markdown"], capsys)
    assert code == 0 and "**unique**" in out
    code, out, _ = run(["unique", "--p", "2", "--n", "2", "--rho", "1", "--r", "5",
                        "--format", "csv"], capsys)
    assert code == 0 and out.splitlines()[0].startswith("command,")
