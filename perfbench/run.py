#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the experiment pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the repository's layer libraries plus xp_perfbench) in
$CARGO_TARGET_DIR, default .bench_build; later runs only check the build.
The workload runs on min(4, nproc) threads. Its inputs are generated from
--seed in .bench_work/, which is removed afterwards.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a traced re-drive of the same pipeline; the traced run also checks that a
1-thread run gives the same digest and keeps its spans in
.bench_out/spans-<workload>-seed<n>.json. The last stdout line is the JSON
result. Exit status 0 means every output check passed. See
perfbench/NOTES.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(threads):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(threads),
                    "--target", "xp_perfbench"], **quiet)
    return os.path.join(build_dir, "xp_perfbench")


def no_aslr():
    """A command prefix that turns off address-space randomization: with it
    on, set-up times of a few microseconds moved by about 30% from one
    process to the next with the code layout."""
    prefix = ["setarch", os.uname().machine, "-R"]
    try:
        subprocess.run(prefix + ["true"], check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        return []
    return prefix


def run(binary, args, threads, workdir, extra=()):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    command = [*no_aslr(), binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--threads", str(threads), "--workdir", workdir, *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    return done.returncode, done.stdout.splitlines()


def digest_of(lines):
    """The hex digest from the binary's "digest ..." line, or None."""
    for line in lines:
        if line.startswith("digest "):
            return line.split()[-1]
    return None


def check_one_thread(binary, args, threads, workdir, lines):
    """The determinism contract: one thread gives the same report. Returns
    an error message, or None when the 1-thread digest matches."""
    try:
        one_code, one_lines = run(binary, args, 1, workdir, ["--digest-only"])
    except subprocess.TimeoutExpired:
        return "the 1-thread run timed out"
    serial, parallel = digest_of(one_lines), digest_of(lines)
    print("digest check: %d threads %s, 1 thread %s" % (threads, parallel, serial))
    if one_code != 0:
        return "the 1-thread run failed its checks (exit %d)" % one_code
    if serial is None or serial != parallel:
        return "the 1-thread digest differs"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of perfbench/NOTES.md")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not re.fullmatch(r"[a-z_]+", args.workload):
        parser.error("--workload: not a workload name: %r" % args.workload)

    threads = min(4, len(os.sched_getaffinity(0)))
    try:
        binary = build(threads)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        try:
            code, lines = run(binary, args, threads, workdir)
        except subprocess.TimeoutExpired:
            print("perfbench: the run timed out", file=sys.stderr)
            return 1
        if code not in (0, 1) or not lines:
            return code or 1  # a usage or set-up error: no result
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        if args.trace:
            problem = None
            try:
                out_dir = os.path.join(ROOT, ".bench_out")
                os.makedirs(out_dir, exist_ok=True)
                shutil.copyfile(os.path.join(workdir, "spans.json"),
                                os.path.join(out_dir, "spans-%s-seed%d.json"
                                             % (args.workload, args.seed)))
            except OSError as error:
                problem = "spans not kept: %s" % error
            problem = check_one_thread(binary, args, threads, workdir, lines) or problem
            if problem:
                print("perfbench: %s" % problem, file=sys.stderr)
                result["correct"] = False
                result["failed"] = result["attempted"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # other runs' inputs are still there
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
