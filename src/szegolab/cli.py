"""Command-line front end: reproducible verification campaigns with
machine-readable CSV/JSON reports.

Each subcommand is a campaign: from the manifold and the parsed options it
returns (results, contracts, CSV rows), and `main` writes them as one report
in the CSV header and primary format that COMMANDS gives the subcommand.
Every report embeds the exact configuration, its hash, the manifold hash and
the tool version; identical (config, seed, version) produce byte-identical
output.  Exit status: 0 when all configured contracts pass, 1 on a contract
failure (the failing contract is named), 2 on a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
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
    spec = json.loads(Path(args.manifold).read_text()) if args.manifold else None
    # --manifold and --preset example2 fix the manifold: refuse the options they would ignore
    fixed = ("--preset", "--n", "--weights") if args.manifold else (
        ("--n", "--weights") if args.preset == "example2" else ())
    ignored = [option for option in fixed if getattr(args, option[2:]) is not None]
    if ignored:
        source = "--manifold" if args.manifold else "--preset example2"
        raise ConfigError(f"{source} fixes the manifold, so {' and '.join(ignored)} would be ignored")
    if args.manifold:
        return Manifold.from_spec(spec)
    if args.preset == "example2":
        return Manifold.invariant_hypersurface_example()
    if not (args.preset or args.weights):
        raise ConfigError("no manifold: pass --manifold, --preset, or --weights")
    weights = _parse_list(args.weights, "--weights", int) if args.weights else None
    n = args.n if args.n is not None else (len(weights) if weights else None)
    if n is None:
        raise ConfigError("sphere preset needs --n or --weights")
    return Manifold.sphere(n, weights)


def _config_dict(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if v is not None and k not in ("out", "command")}
    return {**cfg, "version": __version__}


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _contract(name: str, passed, detail: str = "") -> dict:
    """One contract record; passed is kept as given, numpy bool or not."""
    return {"name": name, "passed": passed, "detail": detail}


def emit_report(args, M: Manifold, results: dict, contracts: list[dict],
                csv_rows, csv_header, primary: str) -> int:
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
    if args.out or primary == "csv":  # csv_rows may be lazy: consumed only where written
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        csv_text = buf.getvalue()
    if args.out:
        outdir = Path(args.out)
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


# -- campaigns: (M, args) -> (results, contracts, CSV rows) ------------------


def cmd_dims(M: Manifold, args):
    rows = [(m, basis.dimension(M.weights, m)) for m in _parse_range(args.m)]
    return {"dimensions": {str(m): d for m, d in rows}}, [], rows


def cmd_norms(M: Manifold, args):
    if M.kind != "sphere":
        raise ConfigError("exact norms require a sphere preset")
    ms = _parse_range(args.m)
    A, counts = basis.enumerate_multiindices(M.weights, ms)
    norms = [basis.sphere_monomial_norm_sq(alpha, M.n) for alpha in A.tolist()]
    rows = [(m, " ".join(map(str, alpha)), str(nm.rational_part), nm.pi_power, repr(nm.value()))
            for m, alpha, nm in zip(np.repeat(ms, counts).tolist(), A.tolist(), norms)]
    return {"count": len(rows)}, [], rows


def cmd_kernel(M: Manifold, args):
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
    contracts = [
        _contract("hermitian-symmetry", not np.any(defect > 1e-12 * scale),
                  f"max defect {worst_h:.2e}"),
        _contract("diagonal-nonnegative", not np.any(diag < 0)),
    ]
    return {"stratum_order_x": k, "hermitian_max_relative_defect": worst_h}, contracts, rows


def cmd_fit(M: Manifold, args):
    tol = _parse_tolerances(args.tolerance)["fit"]
    x = (M.point(_parse_list(args.point, "--point", complex)) if args.point
         else random_surface_points(M, 1, args.seed)[0])
    ms = _parse_range(args.m)
    if ms != list(range(ms[0], ms[-1] + 1)):
        raise ConfigError(f"fit fits every level of a range: --m must be a..b, got {args.m!r}")
    fit = kernel.fit_expansion(
        M, x, ms[0], ms[-1], measure=args.measure, samples=args.samples, seed=args.seed
    )
    results = {name: getattr(fit, name) for name in (
        "stratum_order", "levels", "c_lead", "c_next", "predicted", "levi_determinant",
        "relative_error", "measure")}
    contract = _contract(
        "leading-coefficient", fit.relative_error <= tol,
        f"relative error {fit.relative_error:.4f} vs tolerance {tol}; "
        f"fitted {fit.c_lead:.6g}, predicted {fit.predicted:.6g}",
    )
    return results, [contract], list(zip(fit.levels, map(repr, fit.values)))


def cmd_vanish(M: Manifold, args):
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
    contract = _contract("stratum-vanishing", worst <= 1e-12,
                         f"max |f_j(x0)| = {worst:.3e} over levels with {k} not dividing m")
    results = {"stratum_order": k, "levels": ms, "max_abs_value": worst}
    return results, [contract], [(m, repr(v)) for m, v in zip(ms, values)]


def cmd_ratio(M: Manifold, args):
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
    contract = _contract(
        "ratio-bounds", report.passing_m is not None,
        f"first passing (m, radius) = ({report.passing_m}, {report.passing_radius})",
    )
    rows = [(m, r, repr(wr), repr(wi)) for m, r, wr, wi in report.attempts]
    return results, [contract], rows


def cmd_project(M: Manifold, args):
    x = M.point(_parse_list(args.point, "--point", complex))
    A, B, coeffs = _parse_function(json.loads(Path(args.function).read_text()), M.n)

    def u(Z):
        return monomial_products(Z, A, B) @ coeffs

    ms = _parse_range(args.m)
    max_orbit_degree = int(np.max(np.abs((A - B) @ M.weights.array), initial=0))
    nodes = fourier.default_quadrature(max(max(ms), max_orbit_degree))
    values = fourier.circle_average(M, u, x, ms, nodes).tolist()
    rows = [(m, repr(v.real), repr(v.imag)) for m, v in zip(ms, values)]
    return {"node_count": nodes, "levels": ms}, [], rows


def cmd_embed(M: Manifold, args):
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
        _contract("immersion-floor", imm.min_singular_value > 1e-6,
                  f"min singular value {imm.min_singular_value:.3e} at sample {worst} "
                  f"({imm.records[worst][0]}, stratum order {imm.records[worst][1]})"),
        _contract("separation", checked and not sep.violations,
                  f"{len(sep.violations)} violating pairs" if checked
                  else f"no pair has quotient distance above --delta {args.delta}: nothing was checked"),
    ]
    if args.m0 is not None:
        contracts.append(_contract("minimal-weight", Phi.min_weight > args.m0,
                                   f"min weight {Phi.min_weight} vs bound {args.m0}"))
    rows = (
        (i, label, k, int(near), repr(s))
        for i, (label, k, near, s) in enumerate(imm.records)
    )
    return results, contracts, rows


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


def _vanish_options(p):
    _sampled(p)
    p.add_argument("--m", required=True)
    p.add_argument("--point", required=True)


def _kernel_options(p):
    _vanish_options(p)
    p.add_argument("--point2")


def _fit_options(p):
    _sampled(p)
    p.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                   help=f"override a contract tolerance ({', '.join(TOLERANCES)})")
    p.add_argument("--m", required=True, help="level range a..b")
    p.add_argument("--point")


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


# name -> (help text, options, campaign, CSV header, primary output), in the
# order help lists them
COMMANDS = {
    "dims": ("component dimensions d_m as CSV", _levels_options, cmd_dims, ("m", "d_m"), "csv"),
    "norms": ("exact sphere monomial norm table", _levels_options, cmd_norms,
              ("m", "alpha", "rational", "pi_power", "value"), "csv"),
    "kernel": ("kernel values S_m(x, y)", _kernel_options, cmd_kernel,
               ("m", "re", "im", "diag_x"), "json"),
    "fit": ("diagonal growth fit against the Levi prediction", _fit_options, cmd_fit,
            ("m", "diagonal"), "json"),
    "vanish": ("exact vanishing certificate at a stabilized point", _vanish_options, cmd_vanish,
               ("m", "max_abs_value"), "json"),
    "ratio": ("consecutive-level kernel ratio diagnostics", _ratio_options, cmd_ratio,
              ("m", "radius", "max_abs_one_minus_R", "max_abs_I"), "json"),
    "project": ("orbit Fourier coefficients of a polynomial", _project_options, cmd_project,
                ("m", "re", "im"), "csv"),
    "embed": ("equivariant embedding certificate", _embed_options, cmd_embed,
              ("sample", "label", "stratum_order", "near_stratum", "sigma_min"), "json"),
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
        help_text, options, *_ = COMMANDS[name]
        options(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


@functools.cache
def _keep_freed_heap() -> None:
    """Fix libc's mmap and trim thresholds where it has mallopt, so that temporaries
    reuse freed heap instead of faulting in fresh pages.  Only the CLI does this."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform != "win32" else None
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the invoked command's parser; help, a missing or an unknown
    # command get the full one
    commands = argv[:1] if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    args = build_parser(commands).parse_args(argv)
    *_, campaign, csv_header, primary = COMMANDS[args.command]
    try:
        M = resolve_manifold(args)
        return emit_report(args, M, *campaign(M, args), csv_header, primary)
    except (ConfigError, SzegolabError, ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
