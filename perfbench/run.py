#!/usr/bin/env python3
"""Build and run the Desis benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload tree-avg --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into the build directory
($CARGO_TARGET_DIR, default .bench_build) with the Go build cache, module
cache and Go's configuration kept there too, so a run writes nothing outside
the checkout. Result files and spans go to <build dir>/perfbench. The last
line of standard output is the benchmark's JSON result. See README.md.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_rev():
    """The git revision, or a digest of the Go sources when the checkout
    is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(out, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_REV"] = source_rev()
    return subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
