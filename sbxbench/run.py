#!/usr/bin/env python3
"""Build and run the sbx benchmark (see README.md in this directory).

    python3 sbxbench/run.py --workload inbox_classify --seed 1 --seconds 10 --trace 0
    python3 sbxbench/run.py --workload all          # the three workloads in turn
    python3 sbxbench/run.py --selftest              # the benchmark's own arithmetic

Run from the root of an sbx checkout. The first run configures and builds
the library, the sbx_serve daemon and the benchmark into .bench_build/
(Release); later runs rebuild incrementally. Every run then runs the
self-test, runs the workload in a fresh directory under .bench_build/run/,
writes the result with its provenance to .bench_build/results/, and prints
as its last line one JSON object with the keys correct, attempted, failed
and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
WORKLOADS = ("inbox_classify", "feedback_durable", "paper_repro")
RUN_TIMEOUT_S = 170
TARGETS = ("sbxbench", "sbxbench_selftest", "sbx_serve_tool")


# The running benchmark process; its process group also holds the daemon.
_child = None


def _stop_child(signum, _frame):
    """Takes the benchmark and its daemon down when this script is stopped."""
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def die(message, code=1):
    print(f"sbxbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure (once) and build the targets; exits on failure."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die(f"no sbx source tree next to the benchmark ({required} missing)", 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                die(f"cmake configure failed, see {log_path}")
        cmd = ["cmake", "--build", CMAKE_DIR, "-j", str(nproc()), "--target", *TARGETS]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            die(f"build failed, see {log_path}")
    return {
        "bench": os.path.join(CMAKE_DIR, "sbxbench"),
        "selftest": os.path.join(CMAKE_DIR, "sbxbench_selftest"),
        "daemon": os.path.join(CMAKE_DIR, "sbx", "tools", "sbx_serve"),
    }


def run_selftest(binaries, quiet):
    proc = subprocess.run([binaries["selftest"]], capture_output=True, text=True)
    if proc.returncode != 0:
        die("self-test failed:\n" + proc.stdout + proc.stderr)
    if not quiet:
        print(proc.stdout, end="")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "tools", os.path.relpath(HERE, ROOT)]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_workload(binaries, workload, seed, seconds, trace):
    """Runs one workload and returns its result dict."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work_dir = os.path.join(BUILD_ROOT, "run", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(BUILD_ROOT, "results")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(results_dir, exist_ok=True)
    spans = os.path.join(results_dir, f"spans-{tag}.jsonl")
    cmd = [binaries["bench"], f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--daemon={binaries['daemon']}", f"--spans={spans}"]
    global _child
    proc = _child = subprocess.Popen(cmd, cwd=work_dir, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The daemon is in the benchmark's process group: take both down.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s; see {work_dir}")
    try:
        # Nothing the run started may outlive it (a crashed benchmark
        # would leave its daemon behind).
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    lines = out.splitlines()
    for line in lines:
        if not line.startswith("{"):
            print(line)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        die(f"{workload}: benchmark exited with status {proc.returncode}; "
            f"daemon log and data are in {work_dir}")
    result = json.loads(lines[-1])
    shutil.rmtree(work_dir, ignore_errors=True)

    def tagged(prefix):
        for line in lines:
            if line.startswith(prefix):
                return json.loads(line[len(prefix):])
        return None

    provenance = {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        **(tagged("build: ") or {}),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "workload": workload,
        "config": tagged("config: "),
    }
    record = {"provenance": provenance, "result": result}
    with open(os.path.join(results_dir, f"{tag}-{int(time.time())}.json"), "w") as f:
        json.dump(record, f, indent=2)
    print("provenance: " + json.dumps(provenance), flush=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run only the benchmark's self-test")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binaries = build()
    run_selftest(binaries, quiet=not args.selftest)
    if args.selftest:
        return

    if args.workload != "all":
        result = run_workload(binaries, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(binaries, workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
