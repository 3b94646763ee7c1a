"""Command-line interface.

Subcommands: ``suite`` (full verification run), ``calibrate`` (weight
constant), ``transform`` (heat-transform point values), ``kernels``
(kernel/weight CSV scans), ``envelope`` (growth-envelope CSV scans),
``special`` (twisted checks), ``stft`` (windowed-transform envelope), and
``bridge`` (heat/windowed-transform identity residual).

Exit status: 0 on success, 1 when a verification check fails, 2 on usage
errors.
"""

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .kernels import (
    bergman_weight_dt,
    mehler_kernel,
    schwartz_image_bound,
    sobolev_embed_bound,
    special_heat_kernel,
    special_schwartz_bound,
    tempered_bound,
    twisted_bergman_weight,
)
from .quadrature import PlaneGrid, QuadratureError, gauss_hermite_rule
from .semigroup import (
    calibrate_weight,
    default_bergman_grid,
    envelope,
    semigroup_apply,
    semigroup_handle,
)
from .specfun import HermiteOverflowError, _finite
from .special import (
    Gaussian2n,
    SpecialEigenHandle,
    SpecialHermiteBasis,
    intertwine_check,
    special_hermite_eval,
    special_semigroup_apply,
)
from .spectral import Bump, Dirac, Gaussian, HermiteBasis, PolyGaussian
from .stft import bridge_residual, gauss_stft, pw_envelope
from .suite import ConfigError, SuiteConfig, run_suite


def parse_test_function(spec: str):
    """Small test-function DSL: h<k>, gaussian:a, dirac:u0, bump:R,
    polygaussian:c0,c1,...:a."""
    spec = spec.strip().lower()
    if spec.startswith("h") and spec[1:].isdigit():
        return HermiteBasis((int(spec[1:]),))
    head, _, rest = spec.partition(":")
    if head == "gaussian":
        return Gaussian(float(rest or 1.0))
    if head == "dirac":
        return Dirac(float(rest or 0.0))
    if head == "bump":
        return Bump(float(rest or 1.0))
    if head == "polygaussian":
        coeff_part, _, a_part = rest.partition(":")
        coeffs = tuple(float(v) for v in coeff_part.split(",") if v)
        return PolyGaussian(coeffs or (1.0,), float(a_part or 1.0))
    raise argparse.ArgumentTypeError(f"unknown test function {spec!r}")


def _parse_complex(s: str) -> complex:
    if "," in s:
        re_part, im_part = s.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(float(s), 0.0)


def _float_repr(x: float) -> str:
    return repr(float(x))


def _write_rows(path, header, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_float_repr(v) for v in row])
    finally:
        if path:
            out.close()


def _grid_from_args(args) -> PlaneGrid:
    box = tuple(args.box) if args.box else (-6.0, 6.0, -4.0, 4.0)
    return PlaneGrid(boxes=(box,), resolution=args.res)


_FLAGS = {
    "out": dict(default=None, help="output path (default stdout)"),
    "t": dict(type=float, default=0.3, help="semigroup time"),
    "N": dict(type=int, default=48, help="spectral truncation"),
    "quad": dict(type=int, default=128, help="quadrature order"),
}


def _add_flags(p, *names):
    """Add the shared flags ``names`` (keys of ``_FLAGS``) to subparser ``p``."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mehler",
        description="Heat semigroups on weighted Bergman spaces: transforms, "
        "kernels, and the verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run the full verification suite")
    p.add_argument("--config", default=None, help="JSON config path")
    p.add_argument("--out", default=None, help="report path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--quad", type=int, default=None)
    p.add_argument("--t", type=float, action="append", default=None)

    p = sub.add_parser("calibrate", help="calibrate the Bergman weight constant")
    _add_flags(p, "out", "t")
    p.add_argument("--res", type=int, default=128)

    p = sub.add_parser("transform", help="evaluate a heat-transform image")
    _add_flags(p, "out", "t", "N", "quad")
    p.add_argument("--f", type=parse_test_function, default=HermiteBasis((0,)))
    p.add_argument("--mode", choices=("spectral", "kernel"), default="spectral")
    p.add_argument("--z", type=_parse_complex, default=0j, help="point re[,im]")

    p = sub.add_parser("kernels", help="scan a kernel or weight to CSV")
    _add_flags(p, "out", "t")
    p.add_argument(
        "--kind",
        choices=("mehler", "weight", "special-heat", "twisted-weight"),
        default="mehler",
    )
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--box", type=float, nargs=4, default=None)
    p.add_argument("--res", type=int, default=64)
    p.add_argument("--w", type=_parse_complex, default=0j, help="second argument")

    p = sub.add_parser("envelope", help="growth-envelope scan to CSV")
    _add_flags(p, "out", "t", "N", "quad")
    p.add_argument("--f", type=parse_test_function, default=HermiteBasis((0,)))
    p.add_argument("--m", type=int, default=0)
    p.add_argument(
        "--bound",
        choices=("schwartz-image", "sobolev-embed", "tempered"),
        default="schwartz-image",
    )
    p.add_argument("--box", type=float, nargs=4, default=None)
    p.add_argument("--res", type=int, default=64)

    p = sub.add_parser("special", help="twisted-semigroup checks")
    _add_flags(p, "out", "t")
    p.add_argument("--action", choices=("eigen", "intertwine", "envelope"), required=True)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--x", type=float, default=0.0, help="fixed Re z for the slice")
    p.add_argument("--u", type=float, default=0.0, help="fixed Re w for the slice")
    p.add_argument("--box", type=float, nargs=4, default=None)
    p.add_argument("--res", type=int, default=32)

    p = sub.add_parser("stft", help="windowed-transform growth envelope")
    _add_flags(p, "out", "quad")
    p.add_argument("--f", type=parse_test_function, default=HermiteBasis((0,)))
    p.add_argument("--a", type=float, default=2.0, help="window width parameter")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--box", type=float, nargs=4, default=None)
    p.add_argument("--res", type=int, default=48)

    p = sub.add_parser("bridge", help="heat/windowed-transform identity residual")
    _add_flags(p, "t", "N", "quad")
    p.add_argument("--f", type=parse_test_function, default=HermiteBasis((0,)))

    return parser


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_suite(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = SuiteConfig.from_json(fh.read())
    else:
        config = SuiteConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.N is not None:
        overrides["N"] = args.N
    if args.quad is not None:
        overrides["quad"] = args.quad
    if args.t:
        overrides["t"] = tuple(args.t)
    config = dataclasses.replace(config, **overrides)
    report = run_suite(config)
    for line in report.lines():
        print(line)
    if args.out:
        with open(args.out, "w") as fh:
            if args.format == "json":
                fh.write(report.to_json() + "\n")
            else:
                writer = csv.writer(fh)
                writer.writerow(["name", "theorem", "status", "metric", "tol", "details"])
                for c in report.checks:
                    writer.writerow(
                        [c.name, c.theorem, c.status, _float_repr(c.metric),
                         _float_repr(c.tol), c.details]
                    )
    return 1 if report.failed else 0


def _cmd_calibrate(args) -> int:
    grid = default_bergman_grid(args.t, resolution=args.res)
    cal = calibrate_weight(args.t, 1, None, grid)
    _emit(
        args,
        {
            "t": args.t,
            "kappa": cal.kappa,
            "ratios": {str(k): v for k, v in cal.ratios.items()},
            "max_offdiagonal": cal.max_offdiagonal,
        },
    )
    return 0


def _cmd_transform(args) -> int:
    rule = gauss_hermite_rule(args.quad)
    val = semigroup_apply(
        args.f, args.t, [args.z], mode=args.mode, truncation=args.N, rule=rule
    )
    _emit(
        args,
        {
            "t": args.t,
            "mode": args.mode,
            "z": [args.z.real, args.z.imag],
            "value": [val.real, val.imag],
        },
    )
    return 0


def _cmd_kernels(args) -> int:
    grid = _grid_from_args(args)
    X, Y, _ = grid.nodes()
    Z = X + 1j * Y
    if args.kind == "mehler":
        vals = mehler_kernel(args.t, Z, np.full_like(Z, args.w))
        vals = np.abs(vals)
    elif args.kind == "weight":
        vals = bergman_weight_dt(args.t, args.m, Z)
    elif args.kind == "special-heat":
        P = np.stack([Z, np.full_like(Z, args.w)], axis=-1)
        vals = np.abs(special_heat_kernel(args.t, P))
    else:
        vals = twisted_bergman_weight(args.t, args.m, Z, np.full_like(Z, args.w))
    _write_rows(args.out, ["x", "y", "value"], zip(X, Y, np.real(vals)))
    return 0


_BOUNDS = {
    "schwartz-image": schwartz_image_bound,
    "sobolev-embed": sobolev_embed_bound,
    "tempered": tempered_bound,
}


def _csv_abs2(grid: PlaneGrid, evaluate):
    """(X, Y, |F|^2) at the nodes of the CSV grid, in the order of
    grid.nodes(), with F = evaluate(X, Y); HermiteOverflowError where |F|^2
    passes the largest double."""
    X, Y, _ = grid.nodes()
    with np.errstate(over="ignore", invalid="ignore"):
        absF2 = np.abs(evaluate(X, Y)) ** 2
    return X, Y, _finite(absF2, "|F|^2", "at a node of the CSV grid")


def _cmd_envelope(args) -> int:
    rule = gauss_hermite_rule(args.quad)
    handle = semigroup_handle(args.f, args.t, "spectral", truncation=args.N, rule=rule)
    bound = _BOUNDS[args.bound](args.t, args.m)
    grid = _grid_from_args(args)
    rep = envelope(handle, bound, grid)
    X, Y, absF2 = _csv_abs2(grid, handle.eval_grid)
    bvals = bound.eval(X, Y)
    ratio = absF2 / bvals
    _write_rows(args.out, ["x", "y", "absF2", "bound", "ratio"], zip(X, Y, absF2, bvals, ratio))
    print(f"sup ratio {rep.sup_ratio!r} at {rep.argmax} stable={rep.stable}", file=sys.stderr)
    return 0


def _cmd_special(args) -> int:
    ab = (args.alpha,), (args.beta,)
    if args.action == "eigen":
        z, w = 0.5, -0.3
        got = special_semigroup_apply(SpecialHermiteBasis(*ab), args.t, z, w)
        lam = 2 * args.beta + 1
        ref = math.exp(-lam * args.t) * special_hermite_eval(*ab, z, w)
        residual = abs(got - ref) / (1 + abs(ref))
        _emit(args, {"t": args.t, "eigenvalue": lam, "residual": residual})
        return 0 if residual < 1e-6 else 1
    if args.action == "intertwine":
        rep_p, rep_m = intertwine_check(Gaussian2n(1.0), args.t)
        _emit(
            args,
            {
                "t": args.t,
                "residual_positive": rep_p.residual,
                "residual_negative": rep_m.residual,
                "validated": "+coth(t)/2" if rep_p.residual < rep_m.residual else "-coth(t)/2",
            },
        )
        return 0 if rep_p.passes() != rep_m.passes() else 1
    # envelope: CSV over a 2-D (y, v) slice at fixed (x, u)
    box = tuple(args.box) if args.box else (-5.0, 5.0, -5.0, 5.0)
    Y, V = np.meshgrid(
        np.linspace(box[0], box[1], args.res), np.linspace(box[2], box[3], args.res),
        indexing="ij",
    )
    absF2 = np.abs(SpecialEigenHandle(*ab, args.t).eval_grid(args.x, Y, args.u, V)) ** 2
    b = special_schwartz_bound(args.t, args.m).eval(args.x, Y, args.u, V)
    rows = zip(Y.ravel(), V.ravel(), absF2.ravel(), b.ravel(), (absF2 / b).ravel())
    _write_rows(args.out, ["y", "v", "absF2", "bound", "ratio"], rows)
    return 0


def _cmd_stft(args) -> int:
    rule = gauss_hermite_rule(args.quad)
    grid = _grid_from_args(args)
    rep = pw_envelope(args.f, args.a, args.m, grid, rule=rule)
    X, Y, absF2 = _csv_abs2(
        grid, lambda X, Y: gauss_stft(args.f, args.a, X + 1j * Y, rule=rule)
    )
    bvals = np.exp(2.0 * rep.bound.log_eval(X, Y))
    _write_rows(
        args.out, ["x", "y", "absF2", "bound", "ratio"],
        zip(X, Y, absF2, bvals, absF2 / bvals),
    )
    print(f"sup ratio {rep.sup_ratio!r} stable={rep.stable}", file=sys.stderr)
    return 0


def _cmd_bridge(args) -> int:
    rule = gauss_hermite_rule(args.quad)
    rep = bridge_residual(args.f, args.t, rule=rule, truncation=args.N)
    print(
        f"t={args.t} a=coth(2t)={rep.a!r} c={rep.c!r} max residual={rep.max_residual!r}"
    )
    return 0 if rep.max_residual < 1e-6 else 1


_COMMANDS = {
    "suite": _cmd_suite,
    "calibrate": _cmd_calibrate,
    "transform": _cmd_transform,
    "kernels": _cmd_kernels,
    "envelope": _cmd_envelope,
    "special": _cmd_special,
    "stft": _cmd_stft,
    "bridge": _cmd_bridge,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, HermiteOverflowError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
