#!/usr/bin/env python3
"""Lists the src/ functions that no shipped binary reaches.

Configures a separate coverage build (`-O0 --coverage`), then runs:
  * every bench binary in smoke mode (the google-benchmark micros with a
    0.01 s minimum time);
  * every scenario file, the catalog (scenarios/) and the bench/e2e
    workloads, through `scenario_run --smoke`;
  * `schema_check` over the reports those runs wrote and over the catalog;
  * the examples, and `pleroma_cli` on the committed CLI tour
    (examples/cli_tour.txt).
Unit tests are not run, so their objects (everything under the build's
tests/ directory) are not read either: a src/ template instantiated with a
test's own types would otherwise be listed, and the count would move with
how tests call src/. It then reads `gcov --json-format` for every other
object of the build (inline src/ functions also count in the bench and
example objects that use them) and prints each src/ function whose call
count is zero in all of them, as `path:line  name`.

    python3 tools/unreached.py [--build-dir DIR]

The build directory defaults to build-coverage/ at the repository root; a
second run rebuilds it incrementally.
Inline functions and templates that no translation unit instantiates are
invisible to gcov, so they never appear in the list.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Bench-directory binaries that are tools, not benches: schema_check runs
# below on the reports, scenario_run drives the scenario files.
TOOLS = {"scenario_run", "schema_check", "perf_check"}
EXAMPLES = ["quickstart", "stock_ticker", "traffic_monitoring", "multi_domain",
            "smart_grid"]


def run(cmd, **kwargs):
    subprocess.run([str(c) for c in cmd], check=True, **kwargs)


def build(build_dir):
    run(["cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS=--coverage -O0"], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", os.cpu_count() or 1],
        stdout=subprocess.DEVNULL)


def run_workloads(build_dir, out_dir):
    bench = build_dir / "bench"
    env = dict(os.environ, PLEROMA_BENCH_SMOKE="1", PLEROMA_BENCH_DIR=str(out_dir))
    quiet = {"env": env, "cwd": out_dir, "stdout": subprocess.DEVNULL}
    for exe in sorted(bench.iterdir()):
        if not exe.is_file() or not os.access(exe, os.X_OK) or exe.name in TOOLS:
            continue
        args = [exe]
        if exe.name.startswith("micro_"):
            args.append("--benchmark_min_time=0.01")
        print(f"running {exe.name}", file=sys.stderr)
        run(args, **quiet)
    catalog = sorted((ROOT / "scenarios").glob("*.json"))
    workloads = sorted((ROOT / "bench" / "e2e" / "workloads").glob("*.json"))
    for scenario in catalog + workloads:
        print(f"running scenario_run {scenario.name}", file=sys.stderr)
        run([bench / "scenario_run", scenario, "--smoke"], **quiet)
    run([bench / "schema_check", *sorted(out_dir.glob("BENCH_*.json"))], **quiet)
    run([bench / "schema_check", "--scenario", *catalog], **quiet)
    for name in EXAMPLES:
        print(f"running {name}", file=sys.stderr)
        run([build_dir / "examples" / name], **quiet)
    print("running pleroma_cli examples/cli_tour.txt", file=sys.stderr)
    run([build_dir / "examples" / "pleroma_cli", "examples/cli_tour.txt"],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL)


def call_counts(build_dir):
    """(file, line, mangled name) -> [demangled name, summed call count]."""
    src = ROOT / "src"
    tests = build_dir / "tests"
    counts = {}
    for gcno in sorted(build_dir.rglob("*.gcno")):
        # Test objects never run (see the module docstring).
        if tests in gcno.parents:
            continue
        # An object no run linked has no .gcda; gcov then reports zeros.
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", gcno.name],
            cwd=gcno.parent, check=True, capture_output=True, text=True).stdout
        for line in out.splitlines():
            if not line.strip():
                continue
            for entry in json.loads(line)["files"]:
                path = Path(entry["file"])
                if not path.is_absolute():
                    path = (gcno.parent / path).resolve()
                if src not in path.parents:
                    continue
                rel = path.relative_to(ROOT).as_posix()
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["name"])
                    slot = counts.setdefault(key, [fn["demangled_name"], 0])
                    slot[1] += fn["execution_count"]
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", type=Path, default=ROOT / "build-coverage")
    build_dir = parser.parse_args().build_dir.resolve()

    build(build_dir)
    for gcda in build_dir.rglob("*.gcda"):
        gcda.unlink()
    out_dir = Path(tempfile.mkdtemp(prefix="unreached-"))
    try:
        run_workloads(build_dir, out_dir)
    finally:
        shutil.rmtree(out_dir)

    unreached = sorted((rel, line, name)
                       for (rel, line, _), (name, calls) in call_counts(build_dir).items()
                       if calls == 0)
    for rel, line, name in unreached:
        print(f"{rel}:{line}  {name}")
    files = {rel for rel, _, _ in unreached}
    print(f"{len(unreached)} unreached functions in {len(files)} files",
          file=sys.stderr)


if __name__ == "__main__":
    main()
