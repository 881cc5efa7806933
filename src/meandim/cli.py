"""Command-line interface: every computation as a subcommand with JSON/CSV IO.

Exit codes: 0 success, 2 check failure or usage error, 3 resource limit,
4 bad spec/input.  Reports are canonical JSON (sorted keys, 12 significant
digits) so a fixed configuration reproduces byte-identical files.  Only the
sampling subcommands (oracle qbox, mass and appendix-k) take --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import carpet, grid2d, limits, oracle, selfsim, symbolic, weighted
from .errors import DomainError, MeanDimError, ResourceLimit
from .metrics import LINF_FINITE, SUM_WEIGHTED_ABS, SUM_WEIGHTED_TORUS, MetricDescriptor, PointCloud
from .reportio import cloud_from_csv, cloud_to_csv, write_report
from .suite import run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_RESOURCE = 3
EXIT_SPEC = 4


def _parse_tuples(text: str):
    """'00,11,20' -> [(0, 0), (1, 1), (2, 0)] (single-digit symbol pairs)."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if ":" in item:
            u, v = item.split(":")
            out.append((int(u), int(v)))
        elif len(item) == 2:
            out.append((int(item[0]), int(item[1])))
        else:
            raise ValueError(f"cannot parse tuple {item!r}")
    return out


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _pair_system_arg(args) -> weighted.PairShiftSystem:
    if args.tuples:
        rel = _parse_tuples(args.tuples)
        return weighted.pair_system_from_tuples(args.a, args.b, rel)
    doc = _load_json(args.spec)
    if isinstance(doc, dict) and "omega" in doc:
        a, b = doc.get("a"), doc.get("b")
        if not all(type(x) is int and x > 0 for x in (a, b)):
            raise ValueError("a pair system spec needs positive integers a and b")
        return weighted.pair_system(a, b, symbolic.spec_from_json(doc["omega"]))
    spec = symbolic.spec_from_json(doc)
    if spec.tuple_sizes is None:
        raise ValueError("pair systems need tuple sizes (a, b)")
    a, b = spec.tuple_sizes
    return weighted.pair_system(a, b, spec)


def _check_relation_flags(parser: argparse.ArgumentParser, args) -> None:
    """The relation commands take --tuples with --a and --b, or (carpet and
    weighted-entropy) --spec alone: the parser keeps it apart from
    --tuples, and the spec file sets a and b.

    Other combinations are usage errors (exit 2, like a flag argparse
    rejects), named before any computation starts.
    """
    if "tuples" not in args:
        return
    name = f"oracle {args.oracle_command}" if args.command == "oracle" else args.command
    given = [flag for flag in ("--a", "--b") if getattr(args, flag[2:]) is not None]
    if args.tuples is None:
        if not getattr(args, "spec", None):
            parser.error(f"{name}: provide --tuples" + (" or --spec" if "spec" in args else ""))
        if given:
            parser.error(f"{name}: --spec excludes {' and '.join(given)}")
    elif not args.tuples.strip():
        parser.error(f"{name}: --tuples is empty")
    else:
        missing = [flag for flag in ("--a", "--b") if flag not in given]
        if missing:
            parser.error(f"{name}: --tuples needs {' and '.join(missing)}")


def _emit(report: dict, args, ok: bool = True) -> int:
    """Write the report to --out and stdout; exit 0, or 2 when ok is false."""
    sys.stdout.write(write_report(report, args.out))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _emit_cloud(cloud: PointCloud, args) -> int:
    """CSV rows for the points plus a JSON sidecar for the metric; exit 0."""
    text = cloud_to_csv(cloud.points.tolist())
    sidecar = write_report(
        {
            "kind": cloud.metric.kind,
            "iterates": cloud.metric.iterates,
            "truncation_error": cloud.truncation_error,
        },
        args.out + ".metric.json" if args.out else None,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    sys.stdout.write(sidecar)
    return EXIT_OK


def cmd_entropy(args) -> int:
    spec = symbolic.spec_from_json(_load_json(args.spec))
    rep = symbolic.entropy(spec, args.nmax)
    return _emit(
        {
            "command": "entropy",
            "best_estimate": rep.spectral_value,
            "spectral_value": rep.spectral_value,
            "upper_bounds": list(rep.upper_bounds),
            "counts": {str(n): str(c) for n, c in rep.counts.items()},
            "provenance": "spectral",
        },
        args,
    )


def cmd_weighted_entropy(args) -> int:
    sys_ = _pair_system_arg(args)
    rep = weighted.weighted_entropy(sys_, args.w, args.nmax)
    return _emit(
        {
            "command": "weighted-entropy",
            "w": rep.w,
            "Z": [{"N": n, "value": rep.z_values[n]} for n in sorted(rep.z_values)],
            "upper_bounds": list(rep.upper_bounds),
            "closed_form": rep.closed_form,
            "best_estimate": rep.best_estimate,
            "provenance": "closed_form" if rep.exact else "bracket",
        },
        args,
    )


def _bracket(bracket: carpet.ValueBracket) -> dict:
    return {"value": bracket.value, "upper": bracket.upper, "status": bracket.status}


def cmd_carpet(args) -> int:
    sys_ = _pair_system_arg(args)
    spec = carpet.CarpetSpec(sys_.a_size, sys_.b_size, sys_)
    rep = carpet.mean_dims(spec, args.nmax)
    return _emit(
        {
            "command": "carpet",
            "a": spec.a,
            "b": spec.b,
            "w": rep.w,
            "mdim_h": _bracket(rep.mdim_h),
            "mdim_m": _bracket(rep.mdim_m),
            "h_omega": rep.h_omega,
            "h_omega_prime": rep.h_omega_prime,
            "classical": rep.classical,
            "provenance": "formula",
        },
        args,
    )


def cmd_bm_classical(args) -> int:
    rel = _parse_tuples(args.tuples)
    rep = carpet.classical_carpet_dims(args.a, args.b, rel)
    rep.update(carpet.gap_analysis(args.a, args.b, rel), command="bm-classical")
    return _emit(rep, args)


def cmd_beta(args) -> int:
    omega = symbolic.spec_from_json(_load_json(args.omega)) if args.omega else None
    spec = selfsim.beta_system(args.a, args.beta, omega)
    dims = selfsim.self_similar_dims(spec)
    gap = selfsim.min_gap(args.a, args.beta, min(args.n, 10))
    fam = selfsim.covering_lower_bound(spec, args.N, args.n)
    if args.format == "csv":
        return _emit_cloud(fam.points, args)
    observed = fam.points.min_pairwise() if fam.count > 1 else fam.eps
    separated = observed >= fam.eps - selfsim.SEPARATION_SLACK
    return _emit(
        {
            "command": "beta",
            "a": args.a,
            "beta": args.beta,
            "mdim": dims["mdim"],
            "min_gap": gap,
            "separation_scale": fam.eps,
            "family_count": str(fam.count),
            "family_min_distance": observed,
            "family_separated": separated,
            "provenance": {"mdim": "formula", "family": "oracle"},
        },
        args,
        separated,
    )


def cmd_grid2d(args) -> int:
    spec = grid2d.rule_from_json(_load_json(args.rule))
    rep = grid2d.entropy2d(spec, args.nmax, args.mmax)
    homog = grid2d.homog_dims_from_report(rep, spec.alphabet)
    return _emit(
        {
            "command": "grid2d",
            "counts": {f"{n},{m}": str(c) for (n, m), c in rep.counts.items()},
            "estimates": {f"{n},{m}": e for (n, m), e in rep.estimates.items()},
            "best": rep.best,
            "best_cell": list(rep.best_cell),
            "mdim": homog["mdim"],
            "provenance": "transfer_matrix",
        },
        args,
    )


_CSV_KINDS = (LINF_FINITE, SUM_WEIGHTED_ABS, SUM_WEIGHTED_TORUS)  # metrics of flat points


def _sidecar_metric(doc) -> tuple[MetricDescriptor, float]:
    """Checked metric and truncation error from a cloud's JSON sidecar (the
    document `_emit_cloud` writes): a malformed document raises DomainError
    naming the field."""
    if not isinstance(doc, dict):
        raise DomainError("a metric sidecar is a JSON object")
    kind = doc.get("kind")
    if kind not in _CSV_KINDS:
        raise DomainError(f"metric kind {kind!r} is not one of {', '.join(_CSV_KINDS)}")
    iterates = doc.get("iterates")
    if iterates is not None and not (type(iterates) is int and iterates >= 1):
        raise DomainError(f"metric iterates {iterates!r} is neither null nor a positive integer")
    trunc = doc.get("truncation_error", 0.0)
    if not (type(trunc) in (int, float) and 0.0 <= trunc < math.inf):
        raise DomainError(f"metric truncation_error {trunc!r} is not a finite number >= 0")
    return MetricDescriptor(kind=kind, iterates=iterates), float(trunc)


def cmd_oracle_cover(args) -> int:
    with open(args.points) as fh:
        pts = cloud_from_csv(fh.read())
    metric_doc = _load_json(args.metric) if args.metric else {"kind": LINF_FINITE}
    metric, trunc = _sidecar_metric(metric_doc)
    cloud = PointCloud(points=pts, metric=metric, truncation_error=trunc)
    bounds = oracle.covering_bounds(cloud, args.eps)
    report = {
        "command": "oracle cover",
        "eps": args.eps,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "provenance": "oracle",
    }
    if len(cloud) <= oracle.EXACT_COVER_CAP:
        report["exact"] = oracle.exact_min_cover(cloud, args.eps)
    return _emit(report, args)


def cmd_oracle_hdim(args) -> int:
    diams = [float(x) for x in args.diams.split(",")]
    value = oracle.hausdorff_upper_at_scale(diams, args.eps, tol=args.tol)
    return _emit(
        {
            "command": "oracle hdim",
            "eps": args.eps,
            "exponent": value,
            "sets": len(diams),
            "provenance": "oracle",
        },
        args,
    )


def cmd_oracle_qbox(args) -> int:
    spec = carpet.carpet_from_tuples(args.a, args.b, _parse_tuples(args.tuples))
    fam = oracle.qbox_family(spec, args.N, args.M)
    if args.format == "csv":
        return _emit_cloud(fam.witness_cloud(), args)
    sep = oracle.verify_family_separation(fam, seed=args.seed)
    ok = fam.diam_certified and fam.separation_certified and sep["ok"]
    return _emit(
        {
            "command": "oracle qbox",
            "N": args.N,
            "M": args.M,
            "floor_wm": fam.floor_wm,
            "count": str(fam.count),
            "count_formula": str(fam.count_formula),
            "diam_bound": fam.diam_bound,
            "diam_certified": fam.diam_certified,
            "separation": sep,
            "provenance": {"count": "formula+enumeration", "separation": "oracle"},
        },
        args,
        ok,
    )


def cmd_oracle_mass(args) -> int:
    spec = carpet.carpet_from_tuples(args.a, args.b, _parse_tuples(args.tuples))
    s = args.s
    if s is None:  # 0.1 below the mean Hausdorff dimension, log Z_1 / log b
        log_z1 = weighted.weighted_entropy(spec.system, spec.w, 1).closed_form
        s = log_z1 / math.log(spec.b) - 0.1
    rep = oracle.mass_distribution_check(spec, args.N, range(args.mmin, args.mmax + 1), s,
                                         seed=args.seed)
    return _emit(
        {
            "command": "oracle mass",
            "s": s,
            "all_passed": rep["all_passed"],
            "identity_ok": rep["identity_ok"],
            "identity_max_err": rep["identity_max_err"],
            "per_m": {
                str(m): {
                    "largest_s": v["largest_s"],
                    "passed": v["passed"],
                    "box_count": str(v["box_count"]),
                }
                for m, v in rep["per_m"].items()
            },
            "provenance": "oracle",
        },
        args,
        rep["all_passed"] and rep["identity_ok"],
    )


def cmd_oracle_appendix_k(args) -> int:
    report: dict = {"command": "oracle appendix-k", "provenance": "oracle"}
    ok = True
    if args.witness:
        delta = oracle.reciprocal_witness_delta(args.m, args.eps)
        tail = oracle.reciprocal_tail_depth(args.m, delta)
        x = oracle.sample_reciprocal_point(args.N + tail, args.ncap, seed=args.seed)
        wit = oracle.reciprocal_product_witness(x, args.N, args.m, args.eps)
        ok = wit["passed"]
        keys = ("passed", "mass", "diam_bound", "exponent", "tail_depth")
        report["witness"] = {k: wit[k] for k in keys}
    else:
        dims = oracle.reciprocal_set_dims(args.ncap, args.eps)
        report.update((k, dims[k]) for k in ("minkowski_scale", "hausdorff_scale_upper"))
    return _emit(report, args, ok)


def cmd_paper_suite(args) -> int:
    results = run_suite(verbose=not args.quiet)
    report = {
        "command": "paper-suite",
        "criteria": [{k: r[k] for k in ("number", "name", "passed", "seconds")} for r in results],
        "all_passed": all(r["passed"] for r in results),
    }
    return _emit(report, args, report["all_passed"])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: parsing
    leaves no state on it, and each call returns a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="meandim",
        description="dimension quantities of symbolic systems, with oracle checks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=False, seed=False):
        p.add_argument("--out", help="write the JSON report here")
        if budget:
            p.add_argument("--budget", type=int, default=None)
        if seed:
            p.add_argument("--seed", type=int, default=0, help="sampling seed")

    def relation(p, spec=False):  # checked by _check_relation_flags; --spec excludes --tuples
        p.add_argument("--a", type=int)
        p.add_argument("--b", type=int)
        group = p.add_mutually_exclusive_group() if spec else p
        if spec:
            group.add_argument("--spec")
        group.add_argument("--tuples")

    p = sub.add_parser("entropy", help="word counts and entropy of a subshift")
    p.add_argument("--spec", required=True)
    p.add_argument("--nmax", type=int, default=12)
    common(p, budget=True)
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("weighted-entropy", help="weighted entropy of the projection")
    relation(p, spec=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--nmax", type=int, default=8)
    common(p, budget=True)
    p.set_defaults(fn=cmd_weighted_entropy)

    p = sub.add_parser("carpet", help="mean dimensions of a carpet system")
    relation(p, spec=True)
    p.add_argument("--nmax", type=int, default=8)
    common(p, budget=True)
    p.set_defaults(fn=cmd_carpet)

    p = sub.add_parser("bm-classical", help="classical planar carpet dimensions")
    relation(p)
    common(p)
    p.set_defaults(fn=cmd_bm_classical)

    p = sub.add_parser("beta", help="beta-expansion system dimensions and separation")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--omega", help="subshift JSON for the driving system")
    p.add_argument("--n", type=int, default=3, help="digit layers in the family")
    p.add_argument("--N", type=int, default=3, help="coordinate window")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p, budget=True)
    p.set_defaults(fn=cmd_beta)

    p = sub.add_parser("grid2d", help="2d rectangle-pattern counts and entropy")
    p.add_argument("--rule", required=True, help="rule JSON file")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--mmax", type=int, default=4)
    common(p, budget=True)
    p.set_defaults(fn=cmd_grid2d)

    po = sub.add_parser("oracle", help="brute-force metric geometry checks")
    osub = po.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("cover", help="covering-number brackets for a point cloud")
    p.add_argument("--points", required=True, help="CSV cloud")
    p.add_argument("--metric", help="metric descriptor JSON sidecar")
    p.add_argument("--eps", type=float, required=True)
    common(p)
    p.set_defaults(fn=cmd_oracle_cover)

    p = osub.add_parser("hdim", help="scale-level exponent of a cover")
    p.add_argument("--diams", required=True, help="comma-separated diameters")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10, help="bisection width")
    common(p)
    p.set_defaults(fn=cmd_oracle_hdim)

    p = osub.add_parser("qbox", help="box family counts and separation")
    relation(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p, budget=True, seed=True)
    p.set_defaults(fn=cmd_oracle_qbox)

    p = osub.add_parser("mass", help="box-granular mass-distribution certificate")
    relation(p)
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--mmin", type=int, default=4)
    p.add_argument("--mmax", type=int, default=10)
    p.add_argument("--s", type=float, default=None)
    common(p, budget=True, seed=True)
    p.set_defaults(fn=cmd_oracle_mass)

    p = osub.add_parser(
        "appendix-k", help="reciprocal sequence space: dims and mass witnesses"
    )
    p.add_argument("--ncap", type=int, default=100_000)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--m", type=int, default=2)
    common(p, seed=True)
    p.set_defaults(fn=cmd_oracle_appendix_k)

    p = sub.add_parser("paper-suite", help="run every built-in example check")
    p.add_argument("--quiet", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_paper_suite)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_relation_flags(parser, args)
    try:
        with limits.override(getattr(args, "budget", None)):  # --budget caps every budget
            return args.fn(args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MeanDimError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
