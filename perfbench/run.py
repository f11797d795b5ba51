#!/usr/bin/env python3
"""Build PackageBuilder and its benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py [--domains N] [--store columnar|row] \
        --workload NAME --seed N --seconds S --trace 0|1 [budget flags]

--domains and --store set PB_DOMAINS and PB_STORE; every other argument goes
to perfbench/pbbench.exe. On the server workloads, when the process may use
two or more CPUs and taskset exists, the benchmark (the load generator) is
pinned to the first CPU, and it pins each server it starts (each pinned
server runs with PB_DOMAINS=1): on a small shared machine, unpinned
processes migrating between cores made latencies vary by tens of percent
between identical runs. Build output goes to _build/ and run output to
.perfbench_out/, both inside the checkout. The last line of stdout is the
JSON result; build logs go to stderr.
"""

import os
import shutil
import subprocess
import sys


def main(argv):
    domains, store, rest = "2", "columnar", []
    i = 0
    while i < len(argv):
        if argv[i] in ("--domains", "--store") and i + 1 < len(argv):
            if argv[i] == "--domains":
                domains = argv[i + 1]
            else:
                store = argv[i + 1]
            i += 2
        else:
            rest.append(argv[i])
            i += 1
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the root of a PackageBuilder checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled", PB_DOMAINS=domains, PB_STORE=store)
    if os.path.isdir(".git") and "PERFBENCH_GIT_REV" not in env:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            env["PERFBENCH_GIT_REV"] = rev.stdout.strip()
    build = subprocess.run(
        [dune, "build", "--root", ".", "-j", "2",
         "./perfbench/pbbench.exe", "./bin/pb_server.exe", "./bin/pb_router.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    os.makedirs(".perfbench_out", exist_ok=True)
    cmd = ["_build/default/perfbench/pbbench.exe", "--out", ".perfbench_out",
           "--bin", "_build/default/bin"] + rest
    cpus = sorted(os.sched_getaffinity(0))
    workload = rest[rest.index("--workload") + 1] if "--workload" in rest[:-1] else ""
    if workload == "serve_mixed" and len(cpus) >= 2 and shutil.which("taskset"):
        cmd = ["taskset", "-c", str(cpus[0])] + cmd + ["--cpus", ",".join(map(str, cpus))]
    sys.stdout.flush()
    run = subprocess.run(cmd, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
