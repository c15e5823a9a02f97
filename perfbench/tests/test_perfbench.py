"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing
import worker
import workloads
from workloads import Call

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# cheap pure-box instances, with their recorded counts
SMALL_PURE = [[3, 1, 4, 1], [3, 2, 5, 4], [5, 1, 5, 3], [2, 3, 6, 3]]


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_names_and_units_match_benchmark_json():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    printed = set(tracer.metrics(1.0)) | {"trace.overhead_s"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(declared) == printed
    assert all(run.layer_unit(name) == unit for name, unit in declared.items())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_call_list(workload):
    ref = workloads.load_reference()
    first = workloads.build_calls(workload, 7, ref)
    assert first == workloads.build_calls(workload, 7, ref)
    assert first != workloads.build_calls(workload, 8, ref)


def test_call_counts():
    ref = workloads.load_reference()
    sizes = {w: len(workloads.build_calls(w, 0, ref)) for w in workloads.WORKLOADS}
    assert sizes == {"pure-box": 41, "kernel-oracles": 129, "desk-session": 1132}


def test_tail_percentile_leaves_ten_calls_beyond():
    for n, q in ((41, 75), (129, 92), (1132, 99)):
        assert run.tail_percentile(n) == q
        values = list(range(n))
        assert n - values.index(run.nearest_rank(values, q)) - 1 >= 10


def test_corrupted_reference_answer_counts_as_failed():
    ref = {"pure_box": [list(row) for row in SMALL_PURE]}
    result, _ = worker.run_pass("pure-box", 0, False, ROOT, ref)
    assert (result["attempted"], result["failed"]) == (4, 0)
    ref["pure_box"][1][3] += 1
    result, _ = worker.run_pass("pure-box", 0, False, ROOT, ref)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert "recorded 5" in result["failures"][0]


def test_speed_factor_is_reference_over_median_sample():
    ref = speed.REF_S
    assert speed.factor([ref, ref, ref]) == pytest.approx(1.0)
    # half the reference speed: CPU time doubles, the factor halves it again;
    # one outlying sample does not move the median
    assert speed.factor([2 * ref, 2 * ref, 9 * ref]) == pytest.approx(0.5)


def test_untraced_pass_reports_raw_and_scaled_cpu_time():
    ref = {"pure_box": [list(row) for row in SMALL_PURE]}
    result, _ = worker.run_pass("pure-box", 0, False, ROOT, ref)
    assert result["ref_cpu_s"] == pytest.approx(result["cpu_s"] * result["speed"])
    assert 0 < result["cpu_s"] <= result["wall_s"] * 1.05


@pytest.mark.parametrize("call, answer", [
    (Call("cli", ("orbits",), ("orbits", 2)), (0, '{"orbits": 1}')),
    (Call("cli", ("unique",), ("unique",)), (0, '{"unique": false}')),
    (Call("cli", ("unique",), ("unique",)), (3, "")),
    (Call("cli", ("maximal",), ("maximal", True, False)),
     (0, '{"maximal": true, "search": {"status": "found", "witness": {}}}')),
    (Call("cli", ("maximal",), ("maximal", False, False)),
     (0, '{"maximal": false, "search": {"status": "none", "witness": null}}')),
    (Call("cli", ("fermat",), ("fermat", "1/2", "3", "-1")),
     (0, '{"lambdas": [[0.5, 0.0], [3.0, 0.0], [1.0, 0.0]], "residue_checks": [],'
         ' "smoothness": {"passed": true}}')),
    (Call("cli", ("tables",), ("golden", 1)), (0, "case\n")),
    (Call("count_unramified_classes", (2, 1, 2), ("witt", 2, 1)), 2),
])
def test_wrong_answers_are_caught(call, answer):
    assert list(workloads.check_answers([call], [answer], {}, ROOT)) == [0]


def test_disagreeing_pair_fails_both_calls():
    calls = [Call("count_pure_orbits_bfs", (2, 1, 4), ("pair", 2, 1, 4)),
             Call("count_pure_orbits_canonical", (2, 1, 4), ("pair", 2, 1, 4))]
    assert workloads.check_answers(calls, [1, 1], {}, ROOT) == {}
    assert sorted(workloads.check_answers(calls, [1, 2], {}, ROOT)) == [0, 1]


def _namespaces():
    mods = [m for name, m in sys.modules.items()
            if name == "eag" or name.startswith("eag.")]
    snap = {}
    for mod in mods:
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    snap[(mod.__name__, key, k)] = v
    gaussian = sys.modules["eag.cx"].GaussianRational
    for key, value in vars(gaussian).items():
        snap[("GaussianRational", key)] = value
    return snap


def test_tracing_restores_every_patched_name():
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    from eag import fp, genvec, maximality, surfaces, tables
    assert maximality.vector_span_rank is not before[("eag.fp", "vector_span_rank")]
    assert genvec.validate_vector_for is not before[("eag.surfaces", "validate_vector_for")]
    assert maximality.vector_span_rank is fp.vector_span_rank is surfaces.vector_span_rank
    assert tables.TABLES[1] is tables.table1
    tracer.restore()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_self_times_add_up_to_wall_time():
    # instances no other test runs, so the lru caches are cold
    ref = {"pure_box": [[3, 3, 5, 3], [5, 2, 4, 4], [2, 2, 6, 2]]}
    result, tracer = worker.run_pass("pure-box", 0, True, ROOT, ref)
    layers = result["layers"]
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(result["wall_s"], rel=1e-9)
    assert layers["orbits.batch_rref.calls"] > 0
    assert layers["orbits.batch_rref.matrices"] > layers["orbits.batch_rref.calls"]
    spans = tracer.span_table()
    assert spans["fields"] == list(tracing.SPAN_FIELDS)
    top = [s for s in spans["spans"] if s[1] == 0]
    assert sorted({s[2] for s in top}) == [0, 1, 2]
