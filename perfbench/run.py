#!/usr/bin/env python3
"""Community-search benchmark.

Builds the program (src/main/scala) and the benchmark (perfbench/src) from
source with the Scala compiler that ships in Spark's jars, then runs one
workload in a fresh JVM and relays its result object as the last line of
standard output. Run it from the repository root:

    python3 perfbench/run.py --workload retrieve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Spark is found through SPARK_HOME, or else through spark-submit on PATH.
Build output and Spark's scratch files go to .bench_build/ under the root.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(BUILD, "classes")
WORKLOADS = ["retrieve", "two-step"]
RUN_TIMEOUT_S = 175
JAVA = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
# -XX:-UsePerfData: no hsperfdata files outside the checkout.
JVM_OPTS = ["-XX:-UsePerfData", "-Xmx3g", "-Xss16m", "-XX:+UseParallelGC"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not os.path.isdir(jars):
        fail("Spark not found: set SPARK_HOME")
    return jars


def scala_sources(top):
    out = []
    for d, _, files in os.walk(top):
        out += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def build(jars):
    """Compiles program and benchmark sources, unless unchanged since the last build."""
    program = scala_sources(os.path.join(ROOT, "src", "main", "scala"))
    if not program:
        fail("no program sources under src/main/scala; run from the repository root")
    sources = program + scala_sources(os.path.join(HERE, "src"))
    h = hashlib.sha256()
    for path in sources:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    stamp = os.path.join(CLASSES, ".sources.sha256")
    if os.path.exists(stamp) and open(stamp).read() == h.hexdigest():
        return
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    cmd = [JAVA, "-XX:-UsePerfData", "-Xss8m", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", CLASSES] + sources
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        shutil.rmtree(CLASSES, ignore_errors=True)
        fail("compilation failed")
    with open(stamp, "w") as f:
        f.write(h.hexdigest())


def jvm(jars, args, cores):
    """Runs the benchmark JVM; returns its stdout lines, or exits on failure."""
    scratch = os.path.join(BUILD, "scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = ([JAVA] + JVM_OPTS +
           ["-Djava.io.tmpdir=" + scratch,
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
            "-cp", CLASSES + os.pathsep + os.path.join(jars, "*"),
            "repro.perfbench.Main"] + args + ["--cores", str(cores)])
    # Spark's block and shuffle files, the JVM's temp files and anything
    # written to the working directory stay in the scratch directory.
    env = dict(os.environ, SPARK_LOCAL_DIRS=scratch)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            cwd=scratch, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with code {proc.returncode}")
    return out.splitlines()


def selftest(jars, cores):
    """The same seed must give the same workload at two core counts."""
    per_seed = {}
    for c in sorted({1, cores}):
        for seed in (1, 2):
            lines = jvm(jars, ["--selftest", "--seed", str(seed)], c)
            fps = tuple(l for l in lines if l.startswith("fingerprint "))
            print("\n".join(f"cores={c} {l}" for l in fps))
            per_seed.setdefault(seed, set()).add(fps)
    if any(len(v) != 1 or not next(iter(v)) for v in per_seed.values()):
        fail("workload inputs differ between core counts")
    print("selftest ok")


def main():
    # A terminated run must not leave its JVM behind: turn SIGTERM into the
    # exit path that kills and waits for the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    cores = len(os.sched_getaffinity(0))
    jars = spark_jars()
    build(jars)
    if a.selftest:
        selftest(jars, cores)
        return
    if not a.workload:
        fail("--workload is required")
    lines = jvm(jars, ["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace)], cores)
    if not lines:
        fail("no result")
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
