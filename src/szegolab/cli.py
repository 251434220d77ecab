"""Command-line front end: reproducible verification campaigns with
machine-readable CSV/JSON reports.

Every report embeds the exact configuration, its hash, the manifold hash and
the tool version; identical (config, seed, version) produce byte-identical
output.  Exit status: 0 when all configured contracts pass, 1 on a contract
failure (the failing contract is named), 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__, basis, embedding, fourier, kernel
from .errors import SzegolabError
from .geometry import Manifold, monomial_products, require_keys, term_exponents
from .integrate import random_surface_points, solve_rays, stratified_minimum

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _parse_range(text: str, option: str = "--m") -> list[int]:
    """'a..b' -> [a, ..., b]; 'a' -> [a]; 'a,b,c' -> [a, b, c]."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split("..", 1))
            if hi < lo:
                raise ConfigError(f"empty range {text!r}")
            return list(range(lo, hi + 1))
        if "," in text:
            levels = [int(t) for t in text.split(",") if t.strip()]
            if not levels:
                raise ConfigError(f"no levels in {text!r}")
            return levels
        return [int(text)]
    except ValueError as e:
        raise ConfigError(f"cannot parse {option} {text!r}: {e}")


def _parse_list(text: str, option: str, kind) -> list:
    """The comma-separated values of option, each read by kind (int, float, complex)."""
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"cannot parse {option} {text!r}: {e}")


# contract tolerances that --tolerance NAME=VALUE may override, with defaults
TOLERANCES = {"fit": 0.01}


def _parse_tolerances(items) -> dict[str, float]:
    out = dict(TOLERANCES)
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"tolerance override must be name=value, got {item!r}")
        name, value = (t.strip() for t in item.split("=", 1))
        if name not in TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}; known: {', '.join(TOLERANCES)}")
        try:
            out[name] = float(value)
        except ValueError as e:
            raise ConfigError(f"cannot parse --tolerance {item!r}: {e}")
        if not 0 <= out[name] < np.inf:
            raise ConfigError(f"tolerance {name} must be finite and >= 0, got {value!r}")
    return out


def _parse_function(terms, n: int):
    """(A, B, coeffs) of a --function polynomial: terms like rho's, complex coefficients."""
    if not isinstance(terms, list):
        raise ConfigError(f"--function must be a JSON list of terms, got {type(terms).__name__!r}")
    A, B, coeffs = [], [], []
    for t in terms:
        require_keys(t, ("z_exponents", "zbar_exponents"), f"--function term {t}")
        a, b = term_exponents(t["z_exponents"], t["zbar_exponents"], n)
        A.append(a)
        B.append(b)
        coeffs.append(complex(str(t.get("coeff", "1"))))
    A, B = (np.array(E, dtype=np.int64).reshape(-1, n) for E in (A, B))
    return A, B, np.array(coeffs)


def resolve_manifold(args) -> Manifold:
    if getattr(args, "manifold", None):
        spec = json.loads(Path(args.manifold).read_text())
        return Manifold.from_spec(spec)
    preset = getattr(args, "preset", None)
    weights = _parse_list(args.weights, "--weights", int) if getattr(args, "weights", None) else None
    if preset == "example2":
        return Manifold.invariant_hypersurface_example()
    if preset == "sphere" or (preset is None and weights is not None):
        n = getattr(args, "n", None) or (len(weights) if weights else None)
        if n is None:
            raise ConfigError("sphere preset needs --n or --weights")
        return Manifold.sphere(int(n), weights)
    raise ConfigError("no manifold: pass --manifold, --preset, or --weights")


def _config_dict(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if v is not None}
    for k in ("out", "func_cmd", "command"):
        cfg.pop(k, None)
    cfg["version"] = __version__
    return cfg


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def emit_report(args, M: Manifold, results: dict, contracts: list[dict],
                csv_rows, csv_header, primary: str = "json") -> int:
    config = _config_dict(args)
    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": args.command,
        "config": config,
        "config_hash": _hash(config),
        "manifold_hash": M.content_hash,
        "results": results,
        "contracts": contracts,
        "passed": all(c["passed"] for c in contracts),
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    out = getattr(args, "out", None)
    if out or primary == "csv":  # csv_rows may be lazy: consumed only where written
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        csv_text = buf.getvalue()
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{args.command}.json").write_text(text + "\n", encoding="utf-8")
        (outdir / f"{args.command}.csv").write_text(csv_text, encoding="utf-8")
    # one artifact per stream so reports stay machine-parseable
    sys.stdout.write(csv_text if primary == "csv" else text + "\n")
    for c in contracts:
        if not c["passed"]:
            print(f"CONTRACT FAILED: {c['name']}: {c['detail']}", file=sys.stderr)
            return 1
    return 0


# -- subcommands -----------------------------------------------------------


def cmd_dims(args) -> int:
    M = resolve_manifold(args)
    ms = _parse_range(args.m)
    rows = [(m, basis.dimension(M.weights, m)) for m in ms]
    return emit_report(
        args, M,
        {"dimensions": {str(m): d for m, d in rows}},
        [],
        csv_rows=rows, csv_header=("m", "d_m"), primary="csv",
    )


def cmd_norms(args) -> int:
    M = resolve_manifold(args)
    if M.kind != "sphere":
        raise ConfigError("exact norms require a sphere preset")
    ms = _parse_range(args.m)
    A, counts = basis.enumerate_multiindices(M.weights, ms)
    rows = []
    for m, alpha in zip(np.repeat(ms, counts).tolist(), A.tolist()):
        norm = basis.sphere_monomial_norm_sq(alpha, M.n)
        rows.append(
            (m, " ".join(map(str, alpha)), str(norm.rational_part), norm.pi_power, repr(norm.value()))
        )
    return emit_report(
        args, M, {"count": len(rows)}, [],
        csv_rows=rows, csv_header=("m", "alpha", "rational", "pi_power", "value"),
        primary="csv",
    )


def cmd_kernel(args) -> int:
    M = resolve_manifold(args)
    x = M.point(_parse_list(args.point, "--point", complex))
    y = M.point(_parse_list(args.point2, "--point2", complex)) if args.point2 else x
    ms = _parse_range(args.m)
    k = M.stratum_order(x)
    bases = basis.fourier_bases(M, ms, measure=args.measure, samples=args.samples, seed=args.seed)
    level_bases = [bases[m] for m in ms]
    diag = kernel.kernel_diagonal(level_bases, x)
    if args.point2:
        v_xy, v_yx = kernel.szego_kernel(level_bases, np.stack([x, y]), np.stack([y, x]))
    else:  # S_m(x, x) is the diagonal
        v_xy = v_yx = diag.astype(complex)
    scale = np.maximum(diag, 1.0)
    defect = np.abs(v_xy - v_yx.conj())
    worst_h = float(np.max(defect / scale))
    rows = [(m, repr(v.real), repr(v.imag), repr(d))
            for m, v, d in zip(ms, v_xy.tolist(), diag.tolist())]
    results = {"stratum_order_x": k, "hermitian_max_relative_defect": worst_h}
    contracts = [
        {"name": "hermitian-symmetry", "passed": not np.any(defect > 1e-12 * scale),
         "detail": f"max defect {worst_h:.2e}"},
        {"name": "diagonal-nonnegative", "passed": not np.any(diag < 0), "detail": ""},
    ]
    return emit_report(args, M, results, contracts,
                       csv_rows=rows, csv_header=("m", "re", "im", "diag_x"))


def cmd_fit(args) -> int:
    M = resolve_manifold(args)
    tol = _parse_tolerances(args.tolerance)["fit"]
    x = (M.point(_parse_list(args.point, "--point", complex)) if args.point
         else random_surface_points(M, 1, args.seed)[0])
    ms = _parse_range(args.m)
    fit = kernel.fit_expansion(
        M, x, min(ms), max(ms), measure=args.measure, samples=args.samples, seed=args.seed
    )
    results = {
        "stratum_order": fit.stratum_order,
        "levels": list(fit.levels),
        "c_lead": fit.c_lead,
        "c_next": fit.c_next,
        "predicted": fit.predicted,
        "levi_determinant": fit.levi_determinant,
        "relative_error": fit.relative_error,
        "measure": fit.measure,
    }
    contracts = [
        {
            "name": "leading-coefficient",
            "passed": fit.relative_error <= tol,
            "detail": f"relative error {fit.relative_error:.4f} vs tolerance {tol}; "
            f"fitted {fit.c_lead:.6g}, predicted {fit.predicted:.6g}",
        }
    ]
    rows = list(zip(fit.levels, map(repr, fit.values)))
    return emit_report(args, M, results, contracts,
                       csv_rows=rows, csv_header=("m", "diagonal"))


def cmd_vanish(args) -> int:
    M = resolve_manifold(args)
    x0 = M.point(_parse_list(args.point, "--point", complex))
    k = M.stratum_order(x0)
    if k <= 1:
        raise ConfigError("--point must lie on a singular stratum (order > 1)")
    ms = [m for m in _parse_range(args.m) if m % k != 0]
    if not ms:
        raise ConfigError(f"all requested levels are divisible by the stabilizer order {k}")
    # only the span matters for vanishing
    measure = basis.resolve_measure(M, args.measure, span_only=True)
    bases = basis.fourier_bases(M, ms, measure=measure, samples=args.samples, seed=args.seed)
    values = kernel.stratum_vanishing_check([bases[m] for m in ms], M, x0).tolist()
    worst = max([0.0] + values)
    rows = [(m, repr(v)) for m, v in zip(ms, values)]
    contracts = [
        {
            "name": "stratum-vanishing",
            "passed": worst <= 1e-12,
            "detail": f"max |f_j(x0)| = {worst:.3e} over levels with {k} not dividing m",
        }
    ]
    return emit_report(args, M,
                       {"stratum_order": k, "levels": ms, "max_abs_value": worst},
                       contracts, csv_rows=rows, csv_header=("m", "max_abs_value"))


def cmd_ratio(args) -> int:
    M = resolve_manifold(args)
    x0 = M.point(_parse_list(args.point, "--point", complex))
    report = kernel.ratio_search(
        M, x0,
        m_candidates=_parse_range(args.m),
        radii=_parse_list(args.radii, "--radii", float),
        sigma=args.sigma,
        imag_bound=args.i_bound,
        points_per_ball=args.points,
        measure=args.measure,
        samples=args.samples,
        seed=args.seed,
    )
    results = {
        "stratum_order": report.stratum_order,
        "passing_m": report.passing_m,
        "passing_radius": report.passing_radius,
        "attempts": [list(a) for a in report.attempts],
    }
    contracts = [
        {
            "name": "ratio-bounds",
            "passed": report.passing_m is not None,
            "detail": f"first passing (m, radius) = ({report.passing_m}, {report.passing_radius})",
        }
    ]
    rows = [(m, r, repr(wr), repr(wi)) for m, r, wr, wi in report.attempts]
    return emit_report(args, M, results, contracts,
                       csv_rows=rows, csv_header=("m", "radius", "max_abs_one_minus_R", "max_abs_I"))


def cmd_project(args) -> int:
    M = resolve_manifold(args)
    x = M.point(_parse_list(args.point, "--point", complex))
    A, B, coeffs = _parse_function(json.loads(Path(args.function).read_text()), M.n)

    def u(Z):
        return monomial_products(Z, A, B) @ coeffs

    ms = _parse_range(args.m)
    max_orbit_degree = int(np.max(np.abs((A - B) @ M.weights.array), initial=0))
    nodes = fourier.default_quadrature(max(max(ms), max_orbit_degree))
    values = fourier.circle_average(M, u, x, ms, nodes).tolist()
    rows = [(m, repr(v.real), repr(v.imag)) for m, v in zip(ms, values)]
    return emit_report(args, M,
                       {"node_count": nodes, "levels": ms}, [],
                       csv_rows=rows, csv_header=("m", "re", "im"), primary="csv")


def cmd_embed(args) -> int:
    M = resolve_manifold(args)
    extra = _parse_range(args.extra_levels, "--extra-levels") if args.extra_levels else []
    m = args.m_level
    if m is None:
        if args.m0 is None:
            raise ConfigError("embed needs --m or --m0")
        m = args.m0 + 1
    # separation_report draws pairs // 3 same-orbit and cross-stratum pairs
    if args.pairs < 3:
        raise ConfigError(f"--pairs must be at least 3, got {args.pairs}")
    # a pair is held to the separation floor when its distance exceeds --delta
    if not 0 < args.delta < np.inf:
        raise ConfigError(f"--delta must be finite and > 0, got {args.delta!r}")
    minimum = stratified_minimum(M)  # one regular, one per singular pattern, one near
    if args.immersion_samples < minimum:
        raise ConfigError(f"--immersion-samples must be at least {minimum}, got {args.immersion_samples}")
    Phi = embedding.build_embedding(
        M, m, extra_levels=extra, measure=args.measure, samples=args.samples, seed=args.seed
    )
    # both certificates' point sets share one radial_roots call per step
    imm, sep = solve_rays(
        M,
        embedding.immersion_job(Phi, args.immersion_samples, args.seed),
        embedding.separation_job(Phi, args.pairs, args.delta, args.seed),
    )
    worst = imm.argmin_index
    checked = sep.min_image_distance < np.inf  # inf when no pair's quotient distance exceeds delta
    results = {
        "base_level": m,
        "levels": list(Phi.levels),
        "N": Phi.total_dim,
        "min_weight": Phi.min_weight,
        "immersion_floor": imm.min_singular_value,
        "separation_floor": sep.min_image_distance,
        "same_orbit_floor": sep.min_same_orbit_image_distance,
        "violations": list(sep.violations),
        "warnings": list(Phi.warnings),
    }
    contracts = [
        {
            "name": "immersion-floor",
            "passed": imm.min_singular_value > 1e-6,
            "detail": f"min singular value {imm.min_singular_value:.3e} at sample {worst} "
                      f"({imm.records[worst][0]}, stratum order {imm.records[worst][1]})",
        },
        {
            "name": "separation",
            "passed": checked and not sep.violations,
            "detail": f"{len(sep.violations)} violating pairs" if checked
            else f"no pair has quotient distance above --delta {args.delta}: nothing was checked",
        },
    ]
    if args.m0 is not None:
        contracts.append(
            {
                "name": "minimal-weight",
                "passed": Phi.min_weight > args.m0,
                "detail": f"min weight {Phi.min_weight} vs bound {args.m0}",
            }
        )
    rows = (
        (i, label, k, int(near), repr(s))
        for i, (label, k, near, s) in enumerate(imm.records)
    )
    return emit_report(
        args, M, results, contracts, csv_rows=rows,
        csv_header=("sample", "label", "stratum_order", "near_stratum", "sigma_min"),
    )


def _common(p):
    p.add_argument("--preset", choices=["sphere", "example2"])
    p.add_argument("--manifold", help="path to a manifold JSON spec")
    p.add_argument("--n", type=int, help="ambient complex dimension (sphere preset)")
    p.add_argument("--weights", help="comma-separated action weights")
    p.add_argument("--out", help="directory for CSV/JSON artifacts")


def _sampled(p, samples_default=200_000):
    """common options plus those of the subcommands that build Fourier bases"""
    _common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=samples_default)
    p.add_argument("--measure", default="auto",
                   choices=["auto", "round-exact", "compliant-quadrature"])


def _levels_options(p):
    _common(p)
    p.add_argument("--m", required=True, help="level or range a..b")


def _kernel_options(p):
    _sampled(p)
    p.add_argument("--m", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--point2")


def _fit_options(p):
    _sampled(p)
    p.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                   help=f"override a contract tolerance ({', '.join(TOLERANCES)})")
    p.add_argument("--m", required=True, help="level range a..b")
    p.add_argument("--point")


def _vanish_options(p):
    _sampled(p)
    p.add_argument("--m", required=True)
    p.add_argument("--point", required=True)


def _ratio_options(p):
    _sampled(p)
    p.add_argument("--m", required=True, help="base level candidates (range or list)")
    p.add_argument("--point", required=True)
    p.add_argument("--radii", default="0.3,0.1,0.03")
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--i-bound", type=float, default=0.01)
    p.add_argument("--points", type=int, default=50)


def _project_options(p):
    _common(p)
    p.add_argument("--m", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--function", required=True,
                   help="JSON file with polynomial terms")


def _embed_options(p):
    _sampled(p, samples_default=50_000)
    p.add_argument("--m", dest="m_level", type=int)
    p.add_argument("--m0", type=int, help="minimal-weight lower bound")
    p.add_argument("--extra-levels", dest="extra_levels")
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--immersion-samples", type=int, default=100)


# name -> (help text, options, command), in the order help lists them
COMMANDS = {
    "dims": ("component dimensions d_m as CSV", _levels_options, cmd_dims),
    "norms": ("exact sphere monomial norm table", _levels_options, cmd_norms),
    "kernel": ("kernel values S_m(x, y)", _kernel_options, cmd_kernel),
    "fit": ("diagonal growth fit against the Levi prediction", _fit_options, cmd_fit),
    "vanish": ("exact vanishing certificate at a stabilized point", _vanish_options, cmd_vanish),
    "ratio": ("consecutive-level kernel ratio diagnostics", _ratio_options, cmd_ratio),
    "project": ("orbit Fourier coefficients of a polynomial", _project_options, cmd_project),
    "embed": ("equivariant embedding certificate", _embed_options, cmd_embed),
}


def build_parser(commands=tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The parser of the named subcommands, all of them by default.

    A parser of some commands only still shows every command name in its
    usage line, so the errors it prints read as the full parser's do.  Every
    parser formats at the width argparse would measure, terminal columns
    less 2, measured here once: argparse measures it again for each
    add_argument.
    """
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="szegolab",
        description="verification campaigns for Fourier-component kernels and equivariant embeddings",
        formatter_class=formatter,
    )
    # the default metavar lists the registered commands; a set metavar would
    # also rename the command in the full parser's "required" error
    metavar = None if set(commands) == set(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in commands:
        help_text, options, command = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        options(p)
        p.set_defaults(func_cmd=command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the invoked command's parser; help, a missing or an unknown
    # command get the full one
    commands = argv[:1] if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    args = build_parser(commands).parse_args(argv)
    try:
        return args.func_cmd(args)
    except (ConfigError, SzegolabError, ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
