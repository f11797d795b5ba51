#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and compare them.

Run from the root of a checkout:

    python3 bin/ab_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 25]

PARENT and CHANGE are git revisions. Each is checked out into its own
`git worktree` under a temporary directory and built there. Pair i runs
BENCHMARK.json's command with `--workload W --seed i --seconds S --trace 0`
once on each side; odd pairs run the parent first and even pairs the
change, since on a small shared host the second of two back-to-back runs
tends to read slower. Each run's last stdout line is its JSON result.

For every end-to-end metric of BENCHMARK.json it prints both medians, the
parent's interquartile spread, in how many pairs the change read better,
and whether the change's median stays within the metric's bound (a
fraction of the parent's median). The worktrees are removed at the end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(*args, cwd="."):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def run_once(tree, rev, command, workload, seed, seconds):
    env = dict(os.environ, PERFBENCH_GIT_REV=rev)
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"ab_pairs: {rev} seed {seed}: no JSON result (exit {proc.returncode})")
    return {k: v["value"] for k, v in result.get("metrics", {}).items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    revs = {side: git("rev-parse", "--short", rev)
            for side, rev in (("parent", args.parent), ("change", args.change))}
    tmp = tempfile.mkdtemp(prefix="ab_pairs.")
    trees = {}
    try:
        for side, rev in revs.items():
            trees[side] = os.path.join(tmp, side)
            git("worktree", "add", "--detach", trees[side], rev)
            print(f"building {side} {rev} in {trees[side]}", file=sys.stderr)
            subprocess.run(["dune", "build", "--root", ".", "-j", "2", "./perfbench/pbbench.exe",
                            "./bin/pb_server.exe", "./bin/pb_router.exe"],
                           cwd=trees[side], check=True, stdout=sys.stderr,
                           env=dict(os.environ, DUNE_CACHE="disabled"))
        runs = {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            order = ["parent", "change"] if i % 2 else ["change", "parent"]
            for side in order:
                runs[side].append(run_once(trees[side], revs[side], command, args.workload, i,
                                           args.seconds))
            print(f"pair {i}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload}: parent {revs['parent']} vs change {revs['change']}, "
          f"{args.pairs} pairs of {args.seconds} s")
    print(f"{'metric':<18} {'parent':>12} {'change':>12} {'delta':>8} {'parent IQR':>11} "
          f"{'wins':>6}  bound")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])
                 if name in p and name in c]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        pm, cm = statistics.median(ps), statistics.median(cs)
        q1, q3 = quartiles(ps)
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        limit = pm * (1 + m["bound"]) if lower else pm * (1 - m["bound"])
        ok = cm <= limit if lower else cm >= limit
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "-"
        print(f"{name:<18} {pm:>12.6g} {cm:>12.6g} {delta:>8} {q3 - q1:>11.3g} "
              f"{wins:>3}/{len(pairs):<2}  {'within' if ok else 'OUTSIDE'} {m['bound']:g}")


if __name__ == "__main__":
    main()
