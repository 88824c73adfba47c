#!/usr/bin/env python3
"""Repository benchmark for scandiag.

Builds the library, the `scandiag` CLI and the repobench driver from the
checkout this file sits in, runs one workload, and prints human-readable
result lines followed by one JSON line:

    python3 repobench/run.py --workload soc_sweep --seed 1 --seconds 10 --trace 0

With --trace 0 the JSON carries every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric. `--workload all` runs every workload
in turn, each ending in its own JSON line. Further options:

    --smoke        seconds-scale sizes (one shard, short load phases)
    --threads N    library pool size (default 4, capped at the CPU count)
    --self-check   runs every workload at smoke size, once as recorded and
                   once against a perturbed expected output; the second must
                   fail. Exits 0 when both behave.
    --record       recomputes repobench/expected/ from the current code

Everything the benchmark builds or writes stays inside the checkout:
the build in .bench_build (or $CARGO_TARGET_DIR), journals, sockets and
traces in .bench_run.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = "repobench"
RUN_DIR = ".bench_run"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"repobench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at the checkout root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then brings the driver and the CLI up to date."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"not a scandiag checkout: {needed} is missing")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".repobench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, BENCH_DIR), "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "--target", "repobench", "scandiag_cli",
                        "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, "repobench"), os.path.join(out, "scandiag", "tools", "scandiag")


def run_driver(binary, scandiag, args):
    """Runs the driver in its own process group (the serve workload spawns a
    daemon into it) and returns (exit code, stdout lines)."""
    cmd = [binary, "--expected-dir", os.path.join(BENCH_DIR, "expected"),
           "--run-dir", RUN_DIR, "--trace-dir", os.path.join(RUN_DIR, "traces"),
           "--scandiag", scandiag] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(args)} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        # Nothing the driver started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def driver_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def final_line(spec, result, trace):
    """The driver's result reduced to the metrics BENCHMARK.json names for
    this mode, with their declared units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"the driver did not report {m['name']}", 1)
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}", 1)
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{m['name']} is not a finite number", 1)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def self_check(spec, binary, scandiag, threads):
    ok = True
    for w in spec["workloads"]:
        for perturb in (False, True):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", "0",
                    "--threads", str(threads), "--smoke"]
            if perturb:
                args.append("--perturb-expected")
            code, lines = run_driver(binary, scandiag, args)
            result = driver_result(lines) if code == 0 else None
            if result is None:
                print(f"self-check {w['name']}: driver failed (exit {code})")
                ok = False
                continue
            share = result["failed"] / result["attempted"]
            behaved = (share > 0 and not result["correct"]) if perturb else (
                share == 0 and result["correct"])
            label = "perturbed" if perturb else "as recorded"
            print(f"self-check {w['name']} {label}: failed_share {share:.6f} "
                  f"({result['failed']} of {result['attempted']}) -> "
                  f"{'ok' if behaved else 'WRONG'}")
            ok = ok and behaved
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    binary, scandiag = build()
    os.makedirs(os.path.join(ROOT, RUN_DIR, "traces"), exist_ok=True)

    if args.self_check:
        return self_check(spec, binary, scandiag, args.threads)
    if args.record:
        for name in ([args.workload] if args.workload else names):
            code, _ = run_driver(binary, scandiag, ["--workload", name, "--record",
                                                    "--threads", str(args.threads)])
            if code != 0:
                return code
        return 0

    if args.workload != "all" and args.workload not in names:
        fail(f"--workload must be all or one of {', '.join(names)}")
    for name in names if args.workload == "all" else [args.workload]:
        driver_args = ["--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--threads", str(args.threads)]
        if args.smoke:
            driver_args.append("--smoke")
        code, lines = run_driver(binary, scandiag, driver_args)
        result = driver_result(lines)
        if code != 0 or result is None:
            fail(f"the driver exited {code} without a result on {name}", 1)
        for line in lines[:-1]:
            print(line)
        print(json.dumps(final_line(spec, result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
