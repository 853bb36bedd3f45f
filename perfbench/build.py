"""Build file of the benchmark package.

Compiles the program's main sources (``src/main/scala``) together with the
benchmark harness (``perfbench/src``) with the Scala compiler that ships in
Spark's ``jars`` directory. Classes go to ``.bench_build/perfbench`` in the
checkout, in a directory named after a hash of every source file, so an
unchanged tree is not compiled twice.

Usage: ``python3 perfbench/build.py`` prints the classes directory.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


class BuildError(RuntimeError):
    pass


def spark_jars() -> Path:
    """Spark's jar directory, from SPARK_HOME or the spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(os.path.realpath(submit)).parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("Spark jars with scala-compiler not found; set SPARK_HOME")
    return jars


def sources() -> list:
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not program:
        raise BuildError(f"program sources not found under {ROOT / 'src' / 'main' / 'scala'}")
    return program + sorted((ROOT / "perfbench" / "src").rglob("*.scala"))


def build() -> Path:
    srcs = sources()
    jars = spark_jars()
    h = hashlib.sha256(Path(__file__).read_bytes())
    for f in srcs:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    out = BUILD_DIR / f"classes-{h.hexdigest()[:16]}"
    if (out / ".complete").exists():
        return out
    tmp = BUILD_DIR / f"{out.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in srcs]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    (tmp / ".complete").write_text("ok\n")
    for old in BUILD_DIR.glob("classes-*"):
        if old != tmp:
            shutil.rmtree(old, ignore_errors=True)
    tmp.rename(out)
    return out


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
