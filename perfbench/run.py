#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload study|ingest|verify|serve --seed N
                             [--seconds S] [--trace 0|1]

Builds the program's libraries and the benchmark from source into
.bench_build (or $CARGO_TARGET_DIR) at the checkout root, runs the
benchmark's self-test once per build, then runs one workload. The last line
of standard output is the result JSON. --help or any unknown flag prints
usage and runs nothing.

Every workload has fixed sizes, set for BENCHMARK.json's run_seconds;
--seconds is accepted only with that value, so a run never claims a
measuring time it did not use.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("study", "ingest", "verify", "serve")


def parse_args(argv, run_seconds):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one seeded workload of the repository benchmark.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_decimal)
    parser.add_argument("--seconds", type=_decimal, default=run_seconds,
                        help="must equal BENCHMARK.json run_seconds "
                             "(%s); the workloads are sized for it"
                             % run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds != run_seconds:
        parser.error("--seconds must be %s, the run length the workloads "
                     "are sized for" % run_seconds)
    return args


def _decimal(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError("must be a decimal integer >= 0")
    return int(text)


def build(root, build_dir):
    """Configure (once) and build; build logs go to stderr."""
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if _have("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) == 0


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def selftest(build_dir):
    """Run the timer/percentile/generator self-test once per build."""
    binary = os.path.join(build_dir, "perfbench_selftest")
    stamp = os.path.join(build_dir, "selftest.passed")
    if (os.path.exists(stamp)
            and os.path.getmtime(stamp) >= os.path.getmtime(binary)):
        return True
    if subprocess.call([binary], stdout=sys.stderr) != 0:
        return False
    with open(stamp, "w") as f:
        f.write("ok\n")
    return True


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    args = parse_args(argv, load_spec(root)["run_seconds"])
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not selftest(build_dir):
        print("perfbench: self-test failed", file=sys.stderr)
        return 1
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--scratch", os.path.join(build_dir, "scratch"),
        "--reference-dir", os.path.join(root, "perfbench", "reference"),
    ]
    run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode == 0 and not names_match(root, args.trace, lines):
        print("\n".join(lines[:-1]))
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def names_match(root, trace, lines):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec = load_spec(root)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        printed = {name: m["unit"]
                   for name, m in json.loads(lines[-1])["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        printed = None
    if printed != declared:
        print("perfbench: printed metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
