#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload for a fixed time.

Run from the repository root:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds bench/e2e (CMake) into
$CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that is unset; later runs
only rebuild what changed. pleroma_bench then repeats the workload until S
seconds have passed and prints every metric with its unit. The last line
of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1), each the median over the repetitions. "attempted" is
the number of in-contract (event, host) pairs the delivery oracle checked,
"failed" the number that broke the delivery guarantee. The exit code is
non-zero when the build fails or a correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    # Compiler temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "pleroma_bench"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "pleroma_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "e2e")
    try:
        bench = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "out", args.workload)
    cmd = [bench, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out_dir}"]
    if args.trace:
        cmd.append(f"--trace={out_dir}")
    sys.stdout.flush()
    status = subprocess.run(cmd).returncode
    results_path = os.path.join(out_dir, "results.json")
    if not os.path.exists(results_path):
        print(f"run.py: pleroma_bench exited {status} without results",
              file=sys.stderr)
        return 1
    with open(results_path) as f:
        results = json.load(f)
    (workload,) = [w for w in results["workloads"]
                   if w["name"] == args.workload]

    metrics = {}
    for m in wanted:
        got = workload["metrics"].get(m["name"])
        if got is None:
            print(f"run.py: metric {m['name']} missing", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["median"], "unit": m["unit"]}
    print(json.dumps({"correct": results["correct"] and status == 0,
                      "attempted": workload["attempted"],
                      "failed": workload["failed"],
                      "metrics": metrics}))
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
