#!/usr/bin/env python3
"""Build the extdb benchmark from source and run it.

Usage, from the root of the repository:

    python3 extbench/run.py --workload text-search --seed 1 --seconds 20 --trace 0

The Go program (this directory, module repro/extbench) is built with the
repository's own sources through the `replace repro => ../` line of
go.mod. Everything the build and the run write goes under the build
directory, $CARGO_TARGET_DIR or .bench_build at the repository root: the Go
build cache, the binary and the temporary database files. The last line of
standard output is the result as one JSON object; see README.md.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = ROOT / build
    go = shutil.which("go")
    if go is None:
        print("extbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the build directory, and
    # never reach for the network.
    for key, sub in (("GOCACHE", "go-cache"), ("GOPATH", "go-path"),
                     ("GOMODCACHE", "go-path/pkg/mod"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache"), ("GOTMPDIR", "tmp")):
        env[key] = str(build / sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off",
               GOFLAGS="-mod=readonly", GOENV="off", CGO_ENABLED="0")
    binary = build / "extbench"
    built = subprocess.run([go, "build", "-o", str(binary), "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("extbench: build failed", file=sys.stderr)
        return 1
    args = [str(binary), *sys.argv[1:], "--dir", str(build / "extbench-data")]
    child = subprocess.Popen(args, cwd=ROOT, env=env)
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
