#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

Usage, from the repository root:

    python3 perf_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf_e2e/run.py --scaling

Builds perf_e2e/ (which compiles the simulator from ../src) into
$CARGO_TARGET_DIR/perf_e2e, default .bench_build/perf_e2e, then runs the
binary with the given arguments plus provenance (git revision and dirty flag
when the tree is a git checkout, and a hash of the sources either way). The
host-time span trace goes to <build dir>/out/. See perf_e2e/README.md.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perf_e2e"


def source_hash():
    h = hashlib.sha256()
    for top in ("src", "perf_e2e"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_provenance():
    if not (ROOT / ".git").exists():
        return []
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True).stdout.strip()
    rev = git("rev-parse", "HEAD")
    if not rev:
        return []
    dirty = "1" if git("status", "--porcelain") else "0"
    return ["--git", rev, "--git-dirty", dirty]


def build(bdir):
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(bdir), "-j", jobs]]
    if not (bdir / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(bdir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perf_e2e: build failed: " + " ".join(cmd))


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perf_e2e: simulator sources (src/) not found next to "
                 "perf_e2e/; run from a full checkout")
    bdir = build_dir()
    build(bdir)
    out = bdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "perf_e2e"), *sys.argv[1:], "--out", str(out),
           "--source-hash", source_hash(), *git_provenance()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
