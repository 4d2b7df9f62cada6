#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the root), spill files go to
.bench_tmp at the root, and the last line of standard output is the
result object. Exits non-zero, printing no result, if the build or the run
fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the whole run must end within 180 s; keep a margin for the build check
RUN_TIMEOUT_S = 170


def revision():
    """Git revision of the checkout, or a digest of the program's sources."""
    # only the checkout's own repository: git would otherwise look upwards
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    tmp = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["PERFBENCH_REV"] = revision()
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench")] + sys.argv[1:],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
