"""Command-line interface.

Subcommands: poisedness (certify a point set), fit (build a model from a
points+values file), bounds (evaluate the error-bound constants), verify
(run a trial campaign from a config file), oracle (brute-force grid max of
a polynomial on a ball).

Exit codes: 0 success, 1 usage or I/O error, 2 mathematical failure (not
poised, or a relaxation outside its envelope).  Stdout carries one JSON
document per invocation; verify streams progress lines to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from typing import Optional

# Only the NumPy-free bounds module loads with the CLI; each command imports
# the rest of what it runs, so `dfobounds bounds` never loads NumPy.  main
# catches the two mathematical failures, defined there too, by name.
from .bounds import BoundInputs, NotPoisedError, RelaxationError, _integer, _require, error_bounds

__all__ = ["build_parser", "main", "entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default, which would
    # collide with the mathematical-failure code; usage problems are 1 here.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    # Stdout is strict JSON, which has no infinity or NaN; argparse names
    # the offending flag in the error.
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dfobounds",
        description=(
            "Interpolation models for derivative-free optimization: "
            "poisedness certificates, model fitting, error-bound constants, "
            "and empirical verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "poisedness", help="certify the poisedness constant of a point set"
    )
    p.add_argument(
        "points",
        help="CSV with header y1,...,yn[,f]; the first data row is the center",
    )
    p.add_argument(
        "--delta",
        type=_finite_float,
        default=None,
        help="ball radius (overrides the JSON sidecar)",
    )
    p.add_argument("--kind", choices=["linear", "mfn", "quadratic"], required=True)
    p.add_argument("--out", default=None, help="also write the JSON here")

    p = sub.add_parser("fit", help="fit an interpolation model to a points file")
    p.add_argument("points", help="CSV with header y1,...,yn,f")
    p.add_argument("--delta", type=_finite_float, default=None)
    p.add_argument("--kind", choices=["lin_det", "mfn", "quad_det"], required=True)
    p.add_argument(
        "--kappa",
        type=_finite_float,
        default=0.0,
        help="relaxation envelope multiplier; 0 (the default) fits exactly",
    )
    p.add_argument(
        "--gamma-file",
        default=None,
        help="JSON array of surrogate values to interpolate instead of f",
    )
    p.add_argument(
        "--noise-seed",
        type=int,
        default=0,
        help="seed for sampled surrogate values when --kappa > 0",
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="evaluate error-bound constants")
    p.add_argument(
        "--kind", choices=["lin_det", "mfn", "quad_det", "under"], required=True
    )
    p.add_argument(
        "--L", type=_finite_float, required=True, help="gradient Lipschitz constant"
    )
    p.add_argument("--kappa", type=_finite_float, default=0.0)
    p.add_argument("--lam", type=_finite_float, default=None, help="poisedness constant")
    p.add_argument("--kappa-L", type=_finite_float, default=None)
    p.add_argument("--kappa-Q", type=_finite_float, default=None)
    p.add_argument("--kappa-s", type=_finite_float, default=None)
    p.add_argument("--kappa-H", type=_finite_float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--delta", type=_finite_float, default=None)
    p.add_argument("--delta-max", type=_finite_float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--config", required=True, help="flat JSON config; list values sweep")
    p.add_argument("--csv", default="campaign.csv", help="per-trial CSV output path")
    p.add_argument(
        "--json", default="campaign_summary.json", help="JSON summary output path"
    )
    p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")

    p = sub.add_parser("oracle", help="brute-force grid max of |m| on a ball")
    p.add_argument("--poly", required=True, help="model JSON file (keys n, c, g, H)")
    p.add_argument(
        "--center", default=None, help="comma-separated coordinates; default origin"
    )
    p.add_argument("--radius", type=_finite_float, required=True)
    p.add_argument("--resolution", type=_finite_float, required=True)
    p.add_argument("--out", default=None)

    return parser


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    # Flushed here, so that a reader who closed the pipe early fails the
    # write inside main, not in the flush at interpreter exit.
    print(text, flush=True)
    if out is not None:
        with open(out, "w") as handle:
            handle.write(text + "\n")


# The commands call these through this module, where a caller may rebind
# them; each loads its module, and NumPy, on first call.
def lambda_poisedness(*args, **kwargs):
    from .geometry import lambda_poisedness

    return lambda_poisedness(*args, **kwargs)


def fit_model(*args, **kwargs):
    from .models import fit_model

    return fit_model(*args, **kwargs)


def fit_relaxed(*args, **kwargs):
    from .models import fit_relaxed

    return fit_relaxed(*args, **kwargs)


def _cmd_poisedness(args) -> int:
    from . import fileio

    sample_set, _ = fileio.read_points(args.points, delta=args.delta)
    certificate = lambda_poisedness(sample_set, args.kind)
    _emit(certificate.to_dict(), args.out)
    return EXIT_OK


def _cmd_fit(args) -> int:
    from . import fileio
    from .models import RelaxationSpec

    sample_set, values = fileio.read_points(args.points, delta=args.delta)
    if values is None:
        raise ValueError(f"{args.points}: fit requires an f column")
    _integer("noise_seed", args.noise_seed, 0)
    gamma = fileio.read_gamma(args.gamma_file) if args.gamma_file else None
    if gamma is None and args.kappa == 0.0:
        fit = fit_model(args.kind, sample_set, values)
    else:
        spec = RelaxationSpec(kappa=args.kappa, gamma=gamma, noise_seed=args.noise_seed)
        fit = fit_relaxed(args.kind, sample_set, values, spec)
    payload = fileio.write_model(
        args.out,
        fit.model,
        extra={"residual": fit.residual, "condition": fit.condition},
    )
    _emit(payload, None)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    # Each flag's dest is the BoundInputs field it sets.
    inputs = BoundInputs(**{f.name: getattr(args, f.name) for f in fields(BoundInputs)})
    if args.kind == "under":
        # UNDER is MFN with both matrix constants supplied.
        _require(inputs, "p", "kappa_s", "kappa_H")
    payload = error_bounds(args.kind, inputs).to_dict()
    # The provenance names each matrix constant the kind read.  A constant
    # derived from lambda reads lam, and kappa_H derived so reads delta_max,
    # which --delta sets when it is not given.  Every kind reads L, kappa,
    # and n and p for its shape.
    prov = payload["provenance"]
    read = {"L", "kappa", "n", "p", *prov}
    if "from_lambda" in prov.values():
        read.add("lam")
    if prov.get("kappa_H") == "from_lambda":
        read.update(("delta", "delta_max"))
    for f in fields(BoundInputs):
        if getattr(args, f.name) is not None and f.name not in read:
            raise ValueError(f"--kind {args.kind} does not read --{f.name.replace('_', '-')}")
    # The document names the kind as requested, so UNDER stays UNDER.
    payload["kind"] = args.kind.upper()
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import fileio
    from .verify import expand_config, run_campaign

    config = fileio.read_config(args.config)
    trials = expand_config(config)
    progress = None
    if not args.quiet:
        progress = lambda message: print(message, file=sys.stderr, flush=True)
    report = run_campaign(
        trials, csv_path=args.csv, json_path=args.json, progress=progress
    )
    _emit(report.summary, None)
    if report.summary["n_failed"] > 0 or not report.summary["all_passed"]:
        return EXIT_MATH
    return EXIT_OK


def _cmd_oracle(args) -> int:
    import numpy as np

    from . import fileio
    from .ball import grid_oracle

    model = fileio.read_model(args.poly)
    if args.center is None:
        center = np.zeros(model.dim)
    else:
        try:
            center = np.asarray([_finite_float(part) for part in args.center.split(",")])
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"argument --center: {exc}") from None
    value, argmax = grid_oracle(model, center, args.radius, args.resolution)
    _emit(
        {
            "max_abs": value,
            "argmax": [float(x) for x in argmax],
            "resolution": args.resolution,
        },
        args.out,
    )
    return EXIT_OK


_DISPATCH = {
    "poisedness": _cmd_poisedness,
    "fit": _cmd_fit,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except NotPoisedError as exc:
        print(f"dfobounds: not poised: {exc}", file=sys.stderr)
        return EXIT_MATH
    except RelaxationError as exc:
        print(f"dfobounds: {exc}", file=sys.stderr)
        return EXIT_MATH
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does: nothing is left
        # to report to.  Stdout now points at devnull, so the flush at exit
        # cannot fail again (the SIGPIPE note of Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"dfobounds: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"dfobounds: {exc}", file=sys.stderr)
        return EXIT_MATH


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
