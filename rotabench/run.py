#!/usr/bin/env python3
"""Build the RoTA end-to-end benchmark from source and run one workload.

    python3 rotabench/run.py --workload serve_mix --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree. It configures and builds
rotabench/ (which pulls in the repository's src/ libraries) under
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
workload. The last line of stdout is the workload's JSON result; a traced
run also writes its spans to <build dir>/spans/. See rotabench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve_mix", "degrade_timeline", "design_sweep")


def fail(message, code=2):
    print(f"rotabench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; returns the binary."""
    env = dict(os.environ)
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler scratch files in the build tree
    steps = []
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
            not in cache.read_text(errors="replace"):
        # Configured for another source tree: start this one afresh.
        shutil.rmtree(build_dir)
        tmp.mkdir(parents=True)
    if not cache.exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "rotabench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail(f"build step failed: {' '.join(step)}", 1)
    return build_dir / "rotabench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no RoTA sources at {ROOT / 'src'}; run from a full source tree")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    build_dir = build_root.resolve() / "rotabench"
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace]
    if args.trace == "1":
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
