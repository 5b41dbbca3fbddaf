#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wallbench/run.py --audit <spcg|levelfree> --seed <n>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR when set, else to wallbench/target. Each workload runs
in its own process, with the thread count README.md gives for it and
glibc's malloc capped at MALLOC_ARENAS arenas.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Threads of the library's parallel runtime, per workload.
THREADS = {"spcg-seq": 1, "serve-zipf": 2}
AUDIT_THREADS = 2
# glibc malloc arenas, one per core of the 2-core host the figures were set
# on. Uncapped, glibc gives new threads up to 8 arenas per core, and which
# of them the service's, workers' and clients' threads land in changes from
# run to run: the peak resident set of serve-zipf moved between 64 and 77
# MiB; capped at 2 arenas it read 55-56 MiB.
MALLOC_ARENAS = 2


def git_revision():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    args = sys.argv[1:]
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("wallbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "wallbench")
    threads = AUDIT_THREADS
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        threads = THREADS.get(args[args.index("--workload") + 1], AUDIT_THREADS)
    env = dict(os.environ)
    env["RAYON_NUM_THREADS"] = str(threads)
    env["MALLOC_ARENA_MAX"] = str(MALLOC_ARENAS)
    env["WALLBENCH_REV"] = git_revision()
    env["WALLBENCH_RUSTC"] = rustc_version()
    sys.stdout.flush()
    os.execve(exe, [exe] + args, env)


if __name__ == "__main__":
    sys.exit(main())
