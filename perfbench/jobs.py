"""The benchmark's three workloads, as lists of seeded jobs.

A job is one closed-loop call sequence into meandim's public API.  Its inputs
are generated before timing starts; `run` touches only those inputs and
returns plain data, and `check` compares that data with a reference (closed
form, an independent computation in `reference`, or a value recorded at the
seed commit in `refs.json`).  Library functions are looked up on their
modules at call time (`oracle.covering_bounds(...)`, never a name imported
from a module), so a tracer installed afterwards sees every call.

Workloads (see README.md for why each exists):
  suite        the ten acceptance criteria and the README's CLI examples
  oracle       L4: witness clouds, covering brackets, separation, key fact, mass
  closed_form  L1-L3: spectral radii, word counts, fiber counts, 2d transfer counts
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from meandim import carpet, cli, grid2d, oracle, selfsim, suite, symbolic, weighted

from . import reference as ref

REFS_PATH = Path(__file__).with_name("refs.json")
FLOAT_REL_TOL = 1e-9  # floats in recorded criterion and key-fact results
SPECTRAL_REL_TOL = 1e-10  # the library's stated tolerance on log(radius)
N_VARIANTS = 8  # generated CLI input files come from this many recorded variants
# Distinct variants per pass of the examples that read a generated file (the
# others run once).  The counts put the pooled median latency (job_p50_s) in
# the middle of the block of small `oracle cover` calls, fast CLI jobs where
# per-call overhead shows, instead of in the gap between two kinds of job.
CLI_VARIANTS_PER_PASS = {"entropy": 1, "grid2d": 2, "oracle-cover": 6, "oracle-cover-big": 1}


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the result matches its reference


def load_refs():
    with open(REFS_PATH) as fh:
        return json.load(fh)


def pass_rng(workload, seed, pass_index):
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _all(conditions):
    """First failing label of (label, ok) pairs, or None."""
    for label, ok in conditions:
        if not ok:
            return label
    return None


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def compare_recorded(got, want, path="result"):
    """Recursive comparison: floats at FLOAT_REL_TOL, everything else exact."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{path}: {got!r} != {want!r}"
        if math.isinf(want) or math.isinf(got):
            return None if got == want else f"{path}: {got!r} != {want!r}"
        return None if ref.close(got, want, FLOAT_REL_TOL) else f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for key in want:
            msg = compare_recorded(got[key], want[key], f"{path}.{key}")
            if msg:
                return msg
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            msg = compare_recorded(g, w, f"{path}[{i}]")
            if msg:
                return msg
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def jsonable(value):
    """Plain-JSON copy of a result (tuples become lists, keys strings)."""
    return json.loads(json.dumps(value, default=str))


# ---------------------------------------------------------------------------
# suite: the acceptance criteria and the README CLI examples
# ---------------------------------------------------------------------------


def spec_variant(v):
    """Subshift spec file contents for `entropy --spec`, variant v."""
    rng = random.Random(f"spec:{v}")
    if v % 2 == 0:
        k = rng.choice((3, 4))
        rows = []
        for _ in range(k):
            row = [1 if rng.random() < 0.5 else 0 for _ in range(k)]
            row[rng.randrange(k)] = 1
            rows.append(row)
        return {"alphabet": k, "kind": "sft", "matrix": rows}
    k = rng.choice((2, 3))
    words = set()
    while len(words) < rng.randint(1, 2):
        words.add("".join(str(rng.randrange(k)) for _ in range(rng.randint(2, 3))))
    words.add(str(k - 1) * 4)
    return {"alphabet": k, "kind": "forbidden", "forbidden": sorted(words)}


def rule_variant(v):
    """2d rule file contents for `grid2d --rule`, variant v."""
    rng = random.Random(f"rule:{v}")
    if v == 0:
        return {"a": 2, "rule": "free"}
    if v == 1:
        return {"a": 2, "rule": "linear", "coeffs": [1, 1, 1]}
    if v < 5:
        a = 2 if v < 4 else 3
        return {"a": a, "rule": "linear",
                "coeffs": [rng.randrange(a), rng.randrange(1, a), rng.randrange(1, a)]}
    allowed = []
    for bits in range(16):
        pat = [[bits >> 3 & 1, bits >> 2 & 1], [bits >> 1 & 1, bits & 1]]
        if bits in (0, 15) or rng.random() < 0.6:
            allowed.append(pat)
    return {"a": 2, "rule": "patterns", "window": [2, 2], "allowed": allowed}


def cloud_variant(v, n_points):
    """CSV point cloud for `oracle cover`: dyadic coordinates, so the CSV
    round trip is exact."""
    rng = random.Random(f"cloud:{n_points}:{v}")
    dim = 2 + v % 3
    rows = ["x" + str(i + 1) for i in range(dim)]
    lines = [",".join(rows)]
    for _ in range(n_points):
        lines.append(",".join(str(rng.randrange(64) / 64) for _ in range(dim)))
    return "\n".join(lines) + "\n"


def cli_examples(work, variants):
    """(name, argv) for each README CLI example; generated files go to work."""
    spec_v, rule_v, small_v, big_v = variants
    spec_path = work / "subshift.json"
    rule_path = work / "rule.json"
    small_path = work / "cloud.csv"
    big_path = work / "cloud_big.csv"
    spec_path.write_text(json.dumps(spec_variant(spec_v)))
    rule_path.write_text(json.dumps(rule_variant(rule_v)))
    small_path.write_text(cloud_variant(small_v, 12))
    big_path.write_text(cloud_variant(big_v, 300))
    tuples = "00,11,20"
    return [
        ("carpet", ["carpet", "--a", "3", "--b", "2", "--tuples", tuples]),
        ("bm-classical", ["bm-classical", "--a", "3", "--b", "2", "--tuples", tuples]),
        (f"entropy:{spec_v}", ["entropy", "--spec", str(spec_path), "--nmax", "12",
                               "--out", str(work / "report.json")]),
        ("weighted-entropy", ["weighted-entropy", "--a", "3", "--b", "2", "--tuples", tuples,
                              "--w", "0.6309", "--nmax", "8"]),
        # README example kept as written: its family has 16,777,216 points, so
        # the documented refusal (exit 3) is the expected outcome.
        ("beta", ["beta", "--a", "2", "--beta", "2.5", "--n", "4", "--N", "6"]),
        (f"grid2d:{rule_v}", ["grid2d", "--rule", str(rule_path), "--nmax", "4", "--mmax", "4"]),
        (f"oracle-cover:{small_v}", ["oracle", "cover", "--points", str(small_path),
                                     "--eps", "0.25"]),
        (f"oracle-cover-big:{big_v}", ["oracle", "cover", "--points", str(big_path),
                                       "--eps", "0.25"]),
        ("oracle-hdim", ["oracle", "hdim", "--diams", "0.25,0.25", "--eps", "0.3"]),
        ("oracle-qbox", ["oracle", "qbox", "--a", "3", "--b", "2", "--tuples", tuples,
                         "--N", "2", "--M", "4"]),
        ("oracle-mass", ["oracle", "mass", "--a", "3", "--b", "2", "--tuples", tuples,
                         "--N", "1", "--mmin", "4", "--mmax", "10"]),
        ("oracle-appendix-k", ["oracle", "appendix-k", "--eps", "1e-4"]),
        ("oracle-appendix-k-witness", ["oracle", "appendix-k", "--witness", "--N", "3",
                                       "--m", "2", "--seed", "0"]),
        ("paper-suite", ["paper-suite", "--quiet", "--out", str(work / "suite.json")]),
    ]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_paper_suite(argv):
    """The paper-suite report without its per-criterion `seconds`, a known
    source of byte instability; every other field must match the record."""
    res = run_cli(argv)
    doc = json.loads(res["stdout"])
    for rec in doc["criteria"]:
        del rec["seconds"]
    res["stdout"] = doc
    return res


def _cli_check(name, argv, refs):
    want = refs["cli"][name]
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None

    def check(res):
        if "Traceback" in res["stderr"]:
            return "traceback on stderr"
        if res["code"] != want["code"]:
            return f"exit {res['code']} != {want['code']}: {res['stderr'][:200]}"
        if name == "paper-suite":
            doc = res["stdout"]
            return _all([("criteria records", doc["criteria"] == want["criteria"]),
                         ("all_passed", doc["all_passed"] is True),
                         ("--out file", json.loads(Path(out_path).read_text())["all_passed"])])
        if sha256(res["stdout"]) != want["stdout_sha256"]:
            return f"stdout differs from the recorded bytes ({len(res['stdout'])} chars)"
        if out_path and Path(out_path).read_text() != res["stdout"]:
            return "--out file differs from stdout"
        if want["code"] == 3 and not res["stderr"].startswith("resource limit:"):
            return "refusal without its resource-limit message"
        return None

    return check


def _criterion_job(number, seeded, pass_seed, refs):
    def run():
        fn = dict(suite.CRITERIA)[number]
        rec = fn(seed=pass_seed) if seeded else fn()
        return jsonable({k: v for k, v in rec.items() if k != "seconds"})

    def check(rec):
        if rec["passed"] is not True:
            return "criterion failed"
        want = refs["criteria"][number]
        if seeded:
            return None if rec["name"] == want["name"] else "criterion name changed"
        return compare_recorded(rec, want)

    return Job(f"criterion.{number}", run, check)


def suite_jobs(seed, pass_index, work, refs):
    rng = pass_rng("suite", seed, pass_index)
    pass_seed = rng.randrange(1 << 30)
    jobs = []
    for number, fn in suite.CRITERIA:
        seeded = "seed" in inspect.signature(fn).parameters
        jobs.append(_criterion_job(number, seeded, pass_seed, refs))
    picks = [rng.sample(range(N_VARIANTS), max(CLI_VARIANTS_PER_PASS.values()))
             for _ in range(4)]
    for i, variants in enumerate(zip(*picks)):
        files = work / f"variants-{i}"
        files.mkdir(exist_ok=True)
        for name, argv in cli_examples(files, variants):
            if i >= CLI_VARIANTS_PER_PASS.get(name.split(":")[0], 1):
                continue
            runner = run_paper_suite if name == "paper-suite" else run_cli
            jobs.append(Job(f"cli.{name.split(':')[0]}", lambda r=runner, a=argv: r(a),
                            _cli_check(name, argv, refs)))
    return jobs


# ---------------------------------------------------------------------------
# oracle: L4 on distinct seeded clouds
# ---------------------------------------------------------------------------

# (a, |R|, n, m, eps): eps "sep" is b^-m, where the witness family is
# separated and the bracket is exactly (count, count); "box" is a b^-m, the
# box-cover scale, where the bracket is checked against the reference greedy.
QBOX_CELLS = (
    (3, 3, 1, 5, "sep"),  # 108 points
    (3, 3, 1, 6, "box"),  # 216
    (4, 4, 1, 6, "sep"),  # 512
    (3, 3, 1, 7, "box"),  # 648
    (4, 4, 1, 7, "box"),  # 1,024
    (3, 3, 2, 4, "sep"),  # 1,296
    (4, 3, 1, 8, "sep"),  # 1,296
    (3, 3, 1, 8, "box"),  # 1,944
)
KEY_FACT_RULES = ("free", "three_dot", "linear_011")


def random_relation(rng, a, b, size):
    """A relation R in a x b with |R| = size that occupies every column."""
    cells = [(u, v) for u in range(a) for v in range(b)]
    while True:
        rel = sorted(rng.sample(cells, size))
        if len({v for _, v in rel}) == b:
            return rel


def _qbox_cover_job(a, rel, n, m, eps_kind):
    b = 2
    eps = float(b) ** -m * (a if eps_kind == "box" else 1)
    spec = carpet.carpet_from_tuples(a, b, rel)

    def run():
        fam = oracle.qbox_family(spec, n, m)
        cloud = fam.witness_cloud()
        bounds = oracle.covering_bounds(cloud, eps)
        return {"count": fam.count, "count_formula": fam.count_formula,
                "points": len(cloud), "lower": bounds.lower, "upper": bounds.upper}

    def check(res):
        count = ref.qbox_count(a, b, rel, n, m)
        bad = _all([("count", res["count"] == count),
                    ("count_formula", res["count_formula"] == count),
                    ("points", res["points"] == count)])
        if bad:
            return f"{bad} != closed form {count}"
        if eps_kind == "sep":
            want = (count, count)
        else:
            cloud = oracle.qbox_family(spec, n, m).witness_cloud()
            want = ref.greedy_cover(cloud.points, eps, "linf_finite")
        got = (res["lower"], res["upper"])
        return None if got == want else f"bracket {got} != reference {want}"

    return Job(f"cover.qbox.a{a}.n{n}.m{m}.{eps_kind}", run, check)


def _beta_cover_job(beta, golden, n_coords, n_layers):
    omega = symbolic.forbidden_words(2, ["11"]) if golden else None
    spec = selfsim.beta_system(2, beta, omega)

    def run():
        fam = selfsim.covering_lower_bound(spec, n_coords, n_layers)
        bounds = oracle.covering_bounds(fam.points, fam.eps)
        return {"count": fam.count, "n_words": fam.n_words,
                "lower": bounds.lower, "upper": bounds.upper}

    def check(res):
        n_words = ref.fib(n_coords + 2) if golden else 2**n_coords
        if (res["n_words"], res["count"]) != (n_words, n_words**n_layers):
            return f"family size {res['count']} != closed form {n_words ** n_layers}"
        if beta == 2.0:
            want = (res["count"], res["count"])  # digit separation: every point kept
        else:
            fam = selfsim.covering_lower_bound(spec, n_coords, n_layers)
            want = ref.greedy_cover(fam.points.points, fam.eps, "linf_finite",
                                    fam.points.metric.iterates)
        got = (res["lower"], res["upper"])
        return None if got == want else f"bracket {got} != reference {want}"

    label = "golden" if golden else "full"
    return Job(f"cover.beta.{label}.{beta}", run, check)


def _torus_cover_job(rule_name, n_rows, m_cols, depth, eps):
    rule = grid2d.free_rule(2) if rule_name == "free" else grid2d.hard_square_rule()

    def run():
        cloud = grid2d.torus_points(rule, n_rows, m_cols, depth=depth)
        bounds = oracle.covering_bounds(cloud, eps)
        return {"points": len(cloud), "lower": bounds.lower, "upper": bounds.upper}

    def check(res):
        cloud = grid2d.torus_points(rule, n_rows, m_cols, depth=depth)
        if rule_name == "free" and res["points"] != 2 ** ((n_rows + depth) * m_cols):
            return "free-rule cloud size != 2^(rows cols)"
        # dyadic coordinates and weights: every distance is exact in floating
        # point, so the reference greedy reproduces the bracket exactly
        want = ref.greedy_cover(cloud.points, eps, "sum_weighted_torus", n_rows)
        got = (res["lower"], res["upper"])
        return None if got == want else f"bracket {got} != reference {want}"

    return Job(f"cover.torus.{rule_name}", run, check)


def key_fact_rule(name):
    if name == "free":
        return grid2d.free_rule(2)
    if name == "three_dot":
        return grid2d.three_dot_rule(2)
    return grid2d.linear_rule(2, 0, 1, 1)


def _key_fact_job(rule_name, n_rows, refs):
    rule = key_fact_rule(rule_name)

    def run():
        return jsonable(grid2d.key_fact_check(rule, n_rows, 1))

    def check(res):
        return compare_recorded(res, refs["key_fact"][f"{rule_name}:{n_rows}:1"])

    return Job(f"key_fact.{rule_name}.n{n_rows}", run, check)


def _separation_job(rel, seed):
    spec = carpet.carpet_from_tuples(3, 2, rel)

    def run():
        fam = oracle.qbox_family(spec, 2, 6)
        sep = oracle.verify_family_separation(fam, samples=2000, seed=seed)
        return {"count": fam.count, **jsonable(sep)}

    def check(res):
        required = 2.0**-6
        return _all([
            ("family count", res["count"] == ref.qbox_count(3, 2, rel, 2, 6)),
            ("sampled mode", res["mode"] == "sampled_pairs"),
            ("required separation", res["required"] == required),
            ("observed separation", res["observed_min"] >= required - ref.COVER_SLACK),
            ("ok", res["ok"] is True and res["certified"] is True),
        ])

    return Job("separation.sampled", run, check)


def _mass_job(rel, seed):
    spec = carpet.carpet_from_tuples(3, 2, rel)
    t = {}
    for _, v in rel:
        t[v] = t.get(v, 0) + 1
    w = math.log(2) / math.log(3)
    s = math.log(math.fsum(c**w for c in t.values())) / math.log(2) - 0.1
    m_range = range(4, 9)

    def run():
        rep = oracle.mass_distribution_check(spec, 2, m_range, s, seed=seed)
        return {"all_passed": rep["all_passed"], "identity_ok": rep["identity_ok"],
                "per_m": {str(m): {"box_count": v["box_count"], "mass_ok": v["mass_ok"]}
                          for m, v in rep["per_m"].items()}}

    def check(res):
        for m in m_range:
            rec = res["per_m"][str(m)]
            if rec["box_count"] != ref.qbox_count(3, 2, rel, 2, m):
                return f"box count at m={m} != closed form"
            if not rec["mass_ok"]:
                return f"total mass at m={m} is not 1"
        return _all([("all_passed", res["all_passed"]), ("identity_ok", res["identity_ok"])])

    return Job("mass.check", run, check)


def oracle_jobs(seed, pass_index, work, refs):
    rng = pass_rng("oracle", seed, pass_index)
    jobs = [_qbox_cover_job(a, random_relation(rng, a, 2, size), n, m, kind)
            for a, size, n, m, kind in QBOX_CELLS]
    # one golden (small) and one full family per pass, so the pass's job mix,
    # and with it the median latency, does not change with the seed
    golden = rng.random() < 0.5
    jobs.append(_beta_cover_job(2.0, golden, 3, 3))
    jobs.append(_beta_cover_job(2.5, not golden, 3, 3))
    jobs.append(_torus_cover_job("free", 1, 3, 3, rng.choice((0.15, 0.2, 0.25))))
    jobs.append(_torus_cover_job("hard_square", 2, 3, 3, rng.choice((0.15, 0.2, 0.25))))
    jobs.append(_key_fact_job(rng.choice(KEY_FACT_RULES), 1, refs))
    jobs.append(_key_fact_job(rng.choice(KEY_FACT_RULES), 2, refs))
    jobs.append(_separation_job(random_relation(rng, 3, 2, 3), rng.randrange(1 << 30)))
    jobs.append(_mass_job(random_relation(rng, 3, 2, 3), rng.randrange(1 << 30)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# closed_form: L1-L3 with no oracle calls
# ---------------------------------------------------------------------------

# Spectral time grows steeply with k, so each job draws k from a narrow band
# around a fixed centre and the chord target from within 2 of k/2: the costs
# of the five jobs stay apart and each moves little with the seed, which
# keeps the latency percentiles steady.  The chord closes a second cycle of
# about k/2, which keeps the mixing time, and with it the job's cost, a
# smooth function of k.
CYCLE_BANDS = ((42, 48), (82, 88), (122, 128), (150, 156), (172, 178))
PAIR_SYSTEMS = 4


def _cycle_chord_job(k, target):
    matrix = ref.cycle_chord_matrix(k, k - 1, target)
    spec = symbolic.sft_from_matrix(matrix)

    def run():
        # one spec, several queries: a compiled-spec cache would show here
        short = symbolic.entropy(spec, 8)
        long = symbolic.entropy(spec, 16)
        table = symbolic.count_words(spec, 24)
        return {"spectral": [short.spectral_value, long.spectral_value],
                "upper_bounds": list(long.upper_bounds),
                "counts": [table[n] for n in range(1, 25)]}

    def check(res):
        want = ref.cycle_chord_log_radius(k, k - 1, target)
        counts = ref.vertex_shift_counts(matrix, 24)
        if not all(ref.close(v, want, SPECTRAL_REL_TOL) for v in res["spectral"]):
            return f"log radius {res['spectral']} != closed form {want}"
        if res["counts"] != counts:
            return "word counts differ from the path-count reference"
        bounds_ok = all(ref.close(g, w, 1e-12)
                        for g, w in zip(res["upper_bounds"], ref.fekete_bounds(counts[:16])))
        return None if bounds_ok else "Fekete bounds differ from the counts"

    return Job(f"l1.cycle_chord.k{k // 10 * 10}", run, check)


def _run_length_job(k, r, symbol):
    spec = symbolic.forbidden_words(k, [[symbol] * r])

    def run():
        short = symbolic.entropy(spec, 10)
        long = symbolic.entropy(spec, 20)
        table = symbolic.count_words(spec, 30)
        return {"spectral": [short.spectral_value, long.spectral_value],
                "counts": [table[n] for n in range(1, 31)]}

    def check(res):
        want = ref.run_length_log_radius(k, r)
        if not all(abs(v - want) <= 1e-9 for v in res["spectral"]):
            return f"log radius {res['spectral']} != reference {want}"
        return None if res["counts"] == ref.run_length_counts(k, r, 30) else "word counts"

    return Job("l1.run_length", run, check)


def random_pair_matrix(rng, size=6):
    rows = []
    for _ in range(size):
        row = [1 if rng.random() < 0.55 else 0 for _ in range(size)]
        for j in rng.sample(range(size), 2):
            row[j] = 1
        rows.append(row)
    return rows


def _pair_system_job(matrix, n_max):
    system = weighted.pair_system(3, 2, symbolic.sft_from_matrix(matrix))
    cspec = carpet.CarpetSpec(3, 2, system)

    def run():
        table = weighted.fiber_counts(system, n_max)
        full = weighted.weighted_entropy(system, 1.0, n_max)
        image = weighted.image_subshift(system)
        image_counts = symbolic.count_words(image, n_max)
        dims = carpet.mean_dims(cspec, n_max)
        return {
            "totals": [table.total(n) for n in range(1, n_max + 1)],
            "image_words": [len(table.level(n)) for n in range(1, n_max + 1)],
            "image_counts": [image_counts[n] for n in range(1, n_max + 1)],
            "z_full": [full.z_values[n] for n in range(1, n_max + 1)],
            "h_omega": dims.h_omega,
            "mdim": [dims.mdim_h.value, dims.mdim_m.value],
        }

    def check(res):
        counts = ref.vertex_shift_counts(matrix, n_max)
        return _all([
            ("fiber totals vs path counts", res["totals"] == counts),
            ("Z at w=1 vs path counts",
             all(ref.close(z, float(c), 1e-12) for z, c in zip(res["z_full"], counts))),
            ("image words vs determinized image",
             res["image_words"] == res["image_counts"]),
            ("h_omega vs eigensolve",
             abs(res["h_omega"] - ref.log_spectral_radius(matrix)) <= 1e-9),
        ])

    return Job("l2.pair_system", run, check)


def grid_reference(rule_doc, n, m, refs):
    """Closed-form count, or the recorded hard-square table."""
    a = rule_doc["a"]
    if rule_doc["rule"] == "free":
        return a ** (n * m)
    if rule_doc["rule"] == "linear":
        # c01 a unit and c10 != 0: column j determines rows 0..n-2 of
        # column j+1, the bottom row stays free
        return a ** (n + m - 1)
    return int(refs["hard_square"][f"{n}x{m}"])


def _grid_count_job(rule_doc, n, m, refs):
    rule = grid2d.rule_from_json(rule_doc)

    def run():
        return grid2d.count_rectangles(rule, n, m)

    def check(count):
        want = grid_reference(rule_doc, n, m, refs)
        return None if count == want else f"count {count} != reference {want}"

    return Job(f"l3.count.{rule_doc['rule']}.{n}x{m}", run, check)


def _grid_entropy_job(rule_doc, n_max, m_max, refs):
    rule = grid2d.rule_from_json(rule_doc)

    def run():
        rep = grid2d.entropy2d(rule, n_max, m_max)
        return {"counts": {f"{n}x{m}": c for (n, m), c in rep.counts.items()},
                "best": rep.best, "best_cell": list(rep.best_cell)}

    def check(res):
        want = {f"{n}x{m}": grid_reference(rule_doc, n, m, refs)
                for n in range(1, n_max + 1) for m in range(1, m_max + 1)}
        if res["counts"] != want:
            return "cell counts differ from the reference"
        best = min(math.log(c) / (n * m) for (n, m), c in
                   ((tuple(map(int, key.split("x"))), c) for key, c in want.items()))
        return None if ref.close(res["best"], best, 1e-12) else "best estimate"

    return Job(f"l3.entropy2d.{rule_doc['rule']}", run, check)


def random_linear_rule(rng, a):
    return {"a": a, "rule": "linear",
            "coeffs": [rng.randrange(a), rng.randrange(1, a), rng.randrange(1, a)]}


HARD_SQUARE = {"a": 2, "rule": "patterns", "window": [2, 2], "allowed": [
    [[0, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 1], [0, 0]],
    [[0, 1], [1, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 1]]]}


def closed_form_jobs(seed, pass_index, work, refs):
    rng = pass_rng("closed_form", seed, pass_index)
    jobs = []
    for lo, hi in CYCLE_BANDS:
        k = rng.randrange(lo, hi)
        jobs.append(_cycle_chord_job(k, k // 2 + rng.randint(-2, 2)))
    for _ in range(2):
        k = rng.choice((2, 3))
        jobs.append(_run_length_job(k, rng.randint(2, 5), rng.randrange(k)))
    for i in range(PAIR_SYSTEMS):
        jobs.append(_pair_system_job(random_pair_matrix(rng), 12 + i % 3))
    # five 2d counts of like cost (a few tenths of a second each)
    jobs.append(_grid_count_job(HARD_SQUARE, 7, 8, refs))
    jobs.append(_grid_count_job({"a": 2, "rule": "linear", "coeffs": [1, 1, 1]}, 8, 9, refs))
    jobs.append(_grid_count_job(random_linear_rule(rng, 2), 8, 9, refs))
    jobs.append(_grid_count_job(random_linear_rule(rng, 2), 8, 9, refs))
    jobs.append(_grid_count_job(random_linear_rule(rng, 3), 5, 9, refs))
    pick = rng.randrange(3)
    if pick == 0:
        jobs.append(_grid_entropy_job(HARD_SQUARE, 6, 6, refs))
    elif pick == 1:
        jobs.append(_grid_entropy_job({"a": 2, "rule": "linear", "coeffs": [1, 1, 1]},
                                      7, 7, refs))
    else:
        jobs.append(_grid_entropy_job(random_linear_rule(rng, 3), 5, 5, refs))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "suite": suite_jobs,
    "oracle": oracle_jobs,
    "closed_form": closed_form_jobs,
}
