#!/usr/bin/env python3
"""Builds the benchmark: the program's sources (src/main/scala) plus the
benchmark's own (ndbench/src) compiled with scalac into .bench_build/ndbench.

The compiler, the Scala library and Spark all come from the Spark
distribution ($SPARK_HOME/jars, or the one that holds `spark-submit` on
PATH), so the build resolves no dependencies and writes nothing outside
the checkout. Classes are rebuilt only when a source file changes.

    python3 ndbench/build.py          # prints the classpath
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "ndbench"
BUILD_TIMEOUT_S = 800


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
        home = Path(submit).resolve().parent.parent
    jars = Path(home) / "jars"
    if not jars.is_dir():
        raise BuildError(f"no jars directory under SPARK_HOME={home}")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home, "bin", "java")) if home else "java"


def one_jar(jars: Path, prefix: str) -> Path:
    found = sorted(jars.glob(prefix + "-2.13.*.jar"))
    if not found:
        raise BuildError(f"{prefix} 2.13 not found in {jars}")
    return found[-1]


def sources() -> list:
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not program:
        raise BuildError(f"program sources not found under {ROOT / 'src/main/scala'}")
    return program + sorted((HERE / "src").rglob("*.scala"))


def source_digest(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Returns (classpath entries, source digest), compiling if needed."""
    files = sources()
    jars = spark_jars()
    digest = source_digest(files)
    classes = OUT / "classes"
    stamp = OUT / "classes.digest"
    runtime_cp = [classes, jars / "*"]
    if stamp.is_file() and stamp.read_text() == digest and classes.is_dir():
        return runtime_cp, digest
    fresh = OUT / "classes.new"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir(parents=True)
    compiler_cp = os.pathsep.join(
        str(one_jar(jars, p)) for p in ("scala-compiler", "scala-library", "scala-reflect"))
    compile_cp = os.pathsep.join(str(j) for j in sorted(jars.glob("*.jar")))
    args_file = OUT / "scalac.args"
    args_file.write_text("\n".join(
        ["-deprecation", "-d", str(fresh), "-classpath", compile_cp] + [str(f) for f in files]))
    print(f"[ndbench] compiling {len(files)} sources", file=sys.stderr)
    proc = subprocess.run(
        [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", compiler_cp, "scala.tools.nsc.Main",
         f"@{args_file}"],
        timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with {proc.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    fresh.rename(classes)
    stamp.write_text(digest)
    return runtime_cp, digest


if __name__ == "__main__":
    try:
        cp, _ = build()
    except BuildError as e:
        print(f"[ndbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
    print(os.pathsep.join(str(p) for p in cp))
