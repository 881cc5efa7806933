#!/usr/bin/env python3
"""Scaling probe: time each ROADMAP Baseline case once, with a per-case cap.

    python3 perfbench/probe.py [--cap 60] [--case NAME ...] [--out FILE]

Not part of the gated workloads.  Each case runs in its own interpreter and
is killed at the cap, which is then reported as ">cap".  The table printed
(and written to --out as JSON) records where the library stands against the
ROADMAP targets.
"""

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
os.environ.pop("MEANDIM_BUDGET", None)
ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP = 4 << 30  # address-space limit of each case's interpreter
EXAMPLE = [(0, 0), (1, 1), (2, 0)]


def _qbox_cover(n, m):
    from meandim import carpet, oracle

    fam = oracle.qbox_family(carpet.carpet_from_tuples(3, 2, EXAMPLE), n, m)
    return lambda: oracle.covering_bounds(fam.witness_cloud(), fam.min_separation())


def _key_fact(n, m):
    from meandim import grid2d

    return lambda: grid2d.key_fact_check(grid2d.free_rule(2), n, m)


def _grid(rule_name, n):
    from meandim import grid2d

    rule = grid2d.hard_square_rule() if rule_name == "hard_square" else grid2d.three_dot_rule(2)
    return lambda: grid2d.count_rectangles(rule, n, n)


def _cycle_chord(k):
    from meandim import symbolic

    from perfbench import reference

    spec = symbolic.prune(symbolic.sft_from_matrix(reference.cycle_chord_matrix(k, k - 1, k // 2)))
    return spec.automaton.spectral_log


def _weighted(n):
    import math

    from meandim import symbolic, weighted

    from perfbench import jobs

    matrix = jobs.random_pair_matrix(random.Random(0))
    system = weighted.pair_system(3, 2, symbolic.sft_from_matrix(matrix))
    return lambda: weighted.weighted_entropy(system, math.log(2) / math.log(3), n)


CASES = {
    "covering_bounds.1296": lambda: _qbox_cover(2, 4),
    "covering_bounds.11664": lambda: _qbox_cover(1, 10),
    "covering_bounds.46656": lambda: _qbox_cover(2, 6),
    "key_fact_check.2x1": lambda: _key_fact(2, 1),
    "key_fact_check.2x2": lambda: _key_fact(2, 2),
    "hard_square.6x6": lambda: _grid("hard_square", 6),
    "hard_square.8x8": lambda: _grid("hard_square", 8),
    "hard_square.10x10": lambda: _grid("hard_square", 10),
    "three_dot.10x10": lambda: _grid("three_dot", 10),
    "spectral_log.k200": lambda: _cycle_chord(200),
    "spectral_log.k400": lambda: _cycle_chord(400),
    "spectral_log.k800": lambda: _cycle_chord(800),
    "weighted_entropy.N14": lambda: _weighted(14),
}


def run_case(name):
    """Child side: build the case's inputs, then time the call alone."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    call = CASES[name]()
    t0 = time.perf_counter()
    call()
    print(json.dumps({"case": name, "seconds": time.perf_counter() - t0}))


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def probe(names, cap):
    rows = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              preexec_fn=_limit_memory) as proc:
            try:
                out, err = proc.communicate(timeout=cap)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                rows.append({"case": name, "seconds": None, "result": f">{cap:g}s"})
                print(f"{name:28s} >{cap:g}s", flush=True)
                continue
        if proc.returncode:
            last = err.strip().splitlines()[-1] if err.strip() else f"exit {proc.returncode}"
            rows.append({"case": name, "seconds": None, "result": f"error: {last}"})
        else:
            secs = json.loads(out.strip().splitlines()[-1])["seconds"]
            rows.append({"case": name, "seconds": secs, "result": f"{secs:.3f}s"})
        print(f"{name:28s} {rows[-1]['result']}", flush=True)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cap", type=float, default=60.0, help="seconds per case")
    parser.add_argument("--case", action="append", choices=sorted(CASES))
    parser.add_argument("--out", help="also write the table here as JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        run_case(args.child)
        return 0
    rows = probe(args.case or list(CASES), args.cap)
    if args.out:
        sys.path.insert(0, str(ROOT))
        from perfbench.run import environment  # noqa: E402

        with open(args.out, "w") as fh:
            json.dump({"cap_s": args.cap, "env": environment(), "cases": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
