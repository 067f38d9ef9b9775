#!/usr/bin/env python3
"""Nucleus-decomposition benchmark: one run of one workload.

    python3 ndbench/run.py --workload truss-orkut --seed 19252 --seconds 10 --trace 0

Builds the program and the benchmark from source (see build.py), runs one
JVM that measures the workload (ndbench/src/ndbench/Main.scala), checks the
input fingerprint pinned in fingerprints.json for this seed, and prints the
result as the last line of standard output:

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones. The full report, including the spans of a traced run,
is written to .bench_build/ndbench/runs/. Exit code 0 means the run's
outputs were all correct.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import build  # noqa: E402

ROOT = build.ROOT
RUNS = build.OUT / "runs"
SPEC = ROOT / "BENCHMARK.json"
FINGERPRINTS = HERE / "fingerprints.json"

# GraphGen.snapLite's seed for orkut-lite ("orkut-lite".hashCode & 0xFFFF):
# the default seed generates the repo's own orkut-lite graph.
DEFAULT_SEED = 19252
# Worker threads, for both Par.withThreads and Spark's local[T]; clamped to
# the cores present. A constant, so that results do not follow nproc; 3
# leaves one core of a 4-core machine to the JIT and GC threads.
THREADS = 3
JVM_HEAP = "4g"
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs the module opens that spark-submit would add.
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def git_sha():
    """HEAD of the checkout's git repository, or None when it is not one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pinned_fingerprint(workload, seed):
    pins = json.loads(FINGERPRINTS.read_text())["workloads"].get(workload, {})
    return pins.get(str(seed))


def result_line(report, spec):
    """The contract's last line, or raises ValueError if the report's metric
    names do not match BENCHMARK.json.
    """
    listed = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    got = report["metrics"]
    if set(got) != set(units):
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}")
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": got[name], "unit": units[name]} for name in units},
    }


def check(report):
    """Marks the report correct only if the oracle matched, every iteration
    reproduced the verified fingerprint, and the fingerprint equals the one
    pinned for this seed (when one is pinned).
    """
    problems = list(report["failures"])
    pinned = pinned_fingerprint(report["workload"], report["seed"])
    if pinned is not None and pinned != report["fingerprint"]:
        problems.append(f"input fingerprint differs from the one pinned for seed {report['seed']}: "
                        f"pinned {summary(pinned)}, got {summary(report['fingerprint'])}")
    report["fingerprint_pinned"] = pinned is not None
    report["correct"] = report["oracle"]["ok"] and report["failed"] == 0 and not problems
    report["problems"] = problems


def summary(fp):
    return {k: fp[k] for k in ("n", "m", "r_cliques", "s_cliques")}


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=min(THREADS, os.cpu_count() or 1),
                   help="worker threads (default %(default)s); the input must not depend on it")
    a = p.parse_args(argv)

    try:
        classpath, digest = build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"[ndbench] build failed: {e}", file=sys.stderr)
        return 2

    scratch = build.OUT / "scratch"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    RUNS.mkdir(parents=True, exist_ok=True)
    report_path = RUNS / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    report_path.unlink(missing_ok=True)
    # -XX:-UsePerfData: the JVM would otherwise write its counters under /tmp.
    cmd = [build.java(), "-XX:-UsePerfData", f"-Xmx{JVM_HEAP}", f"-Djava.io.tmpdir={scratch / 'tmp'}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}", *JVM_OPENS,
           "-cp", os.pathsep.join(str(c) for c in classpath), "ndbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--threads", str(a.threads),
           "--report", str(report_path),
           "--git-sha", git_sha() or "", "--source-digest", digest]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=build.OUT,
                            env=dict(os.environ, SPARK_LOCAL_DIRS=str(scratch / "spark-local")))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[ndbench] run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not report_path.is_file():
        print(f"[ndbench] benchmark JVM exited with {code}", file=sys.stderr)
        return code or 4

    report = json.loads(report_path.read_text())
    check(report)
    try:
        line = result_line(report, spec)
    except ValueError as e:
        print(f"[ndbench] {e}", file=sys.stderr)
        return 5
    report_path.write_text(json.dumps(report, indent=1))

    env = report["env"]
    tail = report["time_tail"]
    print(f"[ndbench] threads={env['threads']} nproc={env['nproc']} jvm={env['jvm']} "
          f"git={env['git_sha'] or 'n/a'} sources={env['source_digest'][:12]}")
    print(f"[ndbench] time_tail_s={tail['value_s']} (p{tail['percentile']:.0f}, {tail['beyond']} beyond, "
          f"{tail['samples']} samples) failed_frac={report['failed_frac']} "
          f"fingerprint_pinned={report['fingerprint_pinned']}")
    for problem in report["problems"]:
        print(f"[ndbench] FAILED: {problem}")
    print(f"[ndbench] report: {report_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # A terminated run still stops its JVM (main's finally clause).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
