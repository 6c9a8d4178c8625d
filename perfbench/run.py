#!/usr/bin/env python3
"""Build and run the Soteria benchmark from the root of a checkout.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the library from ../src)
into $CARGO_TARGET_DIR or .bench_build, then runs one workload. The last
line of standard output is the benchmark's JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may
    not be a git repository, so the commit id can be unknown)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id():
    """The checked-out commit, read from .git without leaving the
    checkout; "unknown" when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "soteria_perfbench"],
                   check=True, stdout=sys.stderr)
    return build_dir / "soteria_perfbench"


def main():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    try:
        binary = build(base / "perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    env = dict(os.environ,
               PERFBENCH_COMMIT=commit_id(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    work_dir = base / f"run-{os.getpid()}"
    result = subprocess.run([str(binary), *sys.argv[1:],
                             "--work-dir", str(work_dir)], env=env)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
