"""Self-tests of the nucleus-decomposition benchmark.

    python3 -m pytest ndbench/tests -q                 # everything (runs the benchmark, ~8 min)
    python3 -m pytest ndbench/tests -q -m "not runs"   # file checks only (seconds)

The `runs` tests execute ndbench/run.py end to end, so they need the same
toolchain as the benchmark itself (a JDK and a Spark distribution).
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH / "run.py")]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for p in SPEC["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
    assert 1 <= len(SPEC["command"]) <= 32 and all(len(c) <= 200 for c in SPEC["command"])
    for c in SPEC["command"][1:]:
        assert not c.startswith("/") and ".." not in c.split("/")
        assert any(c == p or c.startswith(p + "/") for p in SPEC["paths"]) or not (ROOT / c).exists()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [x["name"] for x in every]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_fingerprints_are_pinned_for_every_workload_at_the_default_seed():
    pins = json.loads((BENCH / "fingerprints.json").read_text())["workloads"]
    for w in SPEC["workloads"]:
        fp = pins[w["name"]][str(run.DEFAULT_SEED)]
        assert set(fp) == {"n", "m", "r_cliques", "s_cliques", "core_histogram"}
        assert sum(c for _, c in fp["core_histogram"]) == fp["r_cliques"]


def test_result_line_rejects_a_metric_set_that_differs_from_the_spec():
    names = [m["name"] for m in SPEC["end_to_end"]]
    report = {"trace": 0, "correct": True, "attempted": 3, "failed": 0,
              "metrics": {n: 1.0 for n in names}}
    line = run.result_line(report, SPEC)
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert {n: v["unit"] for n, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    del report["metrics"][names[0]]
    with pytest.raises(ValueError):
        run.result_line(report, SPEC)


def bench(workload, trace, *extra, seed=run.DEFAULT_SEED):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((run.RUNS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, report


def check_line(line, listed):
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: v["unit"] for n, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


@pytest.mark.runs
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    line, report = bench(workload, 1)
    check_line(line, SPEC["per_layer"])
    assert report["fingerprint_pinned"]
    # NucleusStats phases account for the measured decompose wall time.
    assert report["phase_gap_frac_max"] <= 0.05
    spans = report["trace"]["spans"]
    names = {s["name"] for s in spans}
    assert {"setup", "spark.session", "sparkgen.generate", "sparkops.to_csr",
            "sparkops.collect_replay", "graph.csr_build_replay", "oracle", "core.decompose", "core.peel",
            "cliques.intersect_replay", "core.lookup_replay", "par.decompose_1thread"} <= names
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start_ms"] <= s["end_ms"]
        if s["parent"] is not None:
            assert by_id[s["parent"]]["start_ms"] <= s["start_ms"]


@pytest.mark.runs
def test_untraced_run_reports_every_end_to_end_metric():
    line, report = bench(SPEC["workloads"][0]["name"], 0)
    check_line(line, SPEC["end_to_end"])
    assert report["trace"] is None
    assert report["phase_gap_frac_max"] <= 0.05


@pytest.mark.runs
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_fingerprint_does_not_depend_on_the_thread_count(workload):
    # The default-seed fingerprints were pinned from local[3] runs; run.py
    # fails a run whose fingerprint differs from the pinned one.
    assert run.THREADS == 3
    line, report = bench(workload, 0, "--threads", "2")
    assert report["env"]["threads"] == 2
    assert report["fingerprint_pinned"] and line["correct"]


@pytest.mark.runs
def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
