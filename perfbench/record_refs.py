#!/usr/bin/env python3
"""Record the reference values in refs.json from the current sources.

    python3 perfbench/record_refs.py

Run it only at a commit whose results are trusted (refs.json was recorded
at the commit that introduced the benchmark); a change to the library's
results must show up as benchmark failures, not as a re-recording.
Records: the acceptance criteria's records (minus timings), each README CLI
example's exit code and stdout digest for every generated input variant,
key-fact-check results for the oracle workload's cells, and hard-square
rectangle counts.
"""

import json
import os
import shutil
import sys
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
os.environ.pop("MEANDIM_BUDGET", None)
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from meandim import grid2d, suite  # noqa: E402

from perfbench import jobs  # noqa: E402

HARD_SQUARE_MAX = 8


def main():
    refs = {"criteria": {}, "cli": {}, "key_fact": {}, "hard_square": {}}

    for number, fn in suite.CRITERIA:
        rec = jobs.jsonable({k: v for k, v in fn().items() if k != "seconds"})
        assert rec["passed"], number
        refs["criteria"][number] = rec

    work = Path(__file__).resolve().parent / "out" / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for v in range(jobs.N_VARIANTS):
            for name, argv in jobs.cli_examples(work, (v, v, v, v)):
                if name in refs["cli"]:
                    continue
                if name == "paper-suite":
                    res = jobs.run_paper_suite(argv)
                    refs["cli"][name] = {"code": res["code"],
                                         "criteria": res["stdout"]["criteria"]}
                    continue
                res = jobs.run_cli(argv)
                expected = 3 if name == "beta" else 0
                assert res["code"] == expected, (name, res["stderr"])
                refs["cli"][name] = {"code": res["code"],
                                     "stdout_sha256": jobs.sha256(res["stdout"])}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rule_name in jobs.KEY_FACT_RULES:
        for n_rows in (1, 2):
            rule = jobs.key_fact_rule(rule_name)
            refs["key_fact"][f"{rule_name}:{n_rows}:1"] = jobs.jsonable(
                grid2d.key_fact_check(rule, n_rows, 1))

    hard_square = grid2d.hard_square_rule()
    for n in range(1, HARD_SQUARE_MAX + 1):
        for m in range(1, HARD_SQUARE_MAX + 1):
            refs["hard_square"][f"{n}x{m}"] = grid2d.count_rectangles(hard_square, n, m)

    with open(jobs.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
