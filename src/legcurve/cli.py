"""Command-line interface.

Subcommands: gamma, semigroup, conormal, transform, normalize,
equivalent, verify-generic, upsilon.  Reports go to stdout and are
byte-stable for fixed arguments; diagnostics go to stderr.  Exit codes:
0 success, 2 invalid input or a failed internal check, 3 non-generic
curve, 4 insufficient precision, 5 check failed (``upsilon`` found a
counterexample or ``verify-generic`` had a failed trial; the report is
printed as usual).
Randomized commands draw trial k of a run seeded with S
from random.Random(S * 1000003 + k); rerunning with the same seed
reproduces every report byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .documents import curve_to_document, dump_curve, load_curve
from .errors import (
    InsufficientPrecisionError,
    LegcurveError,
    NonGenericCurveError,
    ValidationError,
)
from .contact import Y_MONO, act_on_curve, solve_contact
from .expansion import ExpansionContext
from .expressions import format_scalar, parse_germ
from .germs import monomials_in_valuation_range
from .moduli import equivalent_curves, normal_form
from .oracle import conormal_semigroup
from .sampling import random_curve, trial_rng
from .semigroups import generic_semigroup, generic_semigroup_descent, moduli_dimension, try_s_invariant

CHECK_FAILED = 5  # exit code of a check that ran and failed
# exit code of each error, the first class that matches
_EXIT_CODES = ((NonGenericCurveError, 3), (InsufficientPrecisionError, 4), (LegcurveError, 2))


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _format_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _read_curve(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read {path}: {err}") from None
    return load_curve(text)


# -- gamma -----------------------------------------------------------------------


def cmd_gamma(args) -> int:
    semigroup, trajectory = generic_semigroup_descent(args.n, args.m)
    s = try_s_invariant(args.n, args.m)
    dimension = moduli_dimension(args.n, args.m)
    if args.json:
        _emit_json(
            {
                "schema": "legcurve/gamma/1",
                "n": args.n,
                "m": args.m,
                "gaps": list(semigroup.gaps),
                "conductor": semigroup.conductor,
                "s": s,
                "dimension": dimension,
                "trajectories": [
                    {
                        "i": step.i,
                        "sharp": step.sharp,
                        "omega": step.omega,
                        "tau": list(step.tau),
                    }
                    for step in trajectory
                ],
            }
        )
        return 0
    _emit(f"generic semigroup for ({args.n}, {args.m})")
    _emit(f"gaps: {_format_set(semigroup.gaps)}")
    _emit(f"conductor: {semigroup.conductor}")
    _emit(f"generators: {_format_set(semigroup.generators())}")
    _emit(f"s: {s if s is not None else 'none'}")
    _emit(f"dimension: {dimension}")
    _emit("trajectory:")
    for step in trajectory:
        _emit(
            f"  i={step.i} sharp={step.sharp} omega={step.omega} "
            f"tau={_format_set(step.tau)}"
        )
    return 0


# -- semigroup / conormal ----------------------------------------------------------


def cmd_semigroup(args) -> int:
    curve = _read_curve(args.curve)
    semigroup = conormal_semigroup(curve)
    n, m = curve.n, curve.m
    generic = None
    if curve.in_strong_generic_position():
        generic = semigroup == generic_semigroup(n, m)
    if args.json:
        _emit_json(
            {
                "schema": "legcurve/semigroup/1",
                "n": n,
                "m": m,
                "gaps": list(semigroup.gaps),
                "conductor": semigroup.conductor,
                "generators": list(semigroup.generators()),
                "generic": generic,
            }
        )
        return 0
    _emit(f"curve type: ({n}, {m})")
    _emit(f"semigroup gaps: {_format_set(semigroup.gaps)}")
    _emit(f"conductor: {semigroup.conductor}")
    _emit(f"generators: {_format_set(semigroup.generators())}")
    if generic is None:
        _emit("matches generic semigroup: not defined for this type")
    else:
        _emit(f"matches generic semigroup: {'yes' if generic else 'no'}")
    return 0


def cmd_conormal(args) -> int:
    curve = _read_curve(args.curve)
    series = curve.p_series()
    items = list(series.items())
    if args.json:
        _emit_json(
            {
                "schema": "legcurve/conormal/1",
                "n": curve.n,
                "terms": [{"e": e, "c": format_scalar(c)} for e, c in items],
                "precision": int(series.accuracy),
            }
        )
        return 0
    _emit(f"conormal p-series for the curve of type ({curve.n}, {curve.m})")
    for e, c in items:
        _emit(f"  t^{e}: {format_scalar(c)}")
    _emit(f"precision: {int(series.accuracy)}")
    return 0


# -- transform ----------------------------------------------------------------------


def cmd_transform(args) -> int:
    curve = _read_curve(args.curve)
    n, m = curve.n, curve.m
    alpha = parse_germ(args.alpha, n, m)
    beta0 = parse_germ(args.beta0, n, m)
    if beta0.coeffs.get(Y_MONO):
        raise ValidationError("the y-derivative of beta0 must vanish at the origin")
    phi = solve_contact(alpha, beta0, curve.accuracy)
    image = act_on_curve(phi, curve)
    sys.stdout.write(dump_curve(image))
    return 0


# -- normalize / equivalent ----------------------------------------------------------


def cmd_normalize(args) -> int:
    curve = _read_curve(args.curve)
    reduced = normal_form(curve)
    point = reduced.moduli_point()
    if args.json:
        _emit_json(
            {
                "schema": "legcurve/normalize/1",
                "curve": curve_to_document(reduced.curve),
                "unit": format_scalar(reduced.unit),
                "steps": [
                    {"order": step.order, "scale": format_scalar(step.scale)}
                    for step in reduced.steps
                ],
                "free": list(reduced.free),
                "point": {str(e): format_scalar(c) for e, c in sorted(point.items())},
            }
        )
        return 0
    _emit(f"short form of the curve of type ({reduced.curve.n}, {reduced.curve.m})")
    for e, c in reduced.curve.items():
        _emit(f"  t^{e}: {format_scalar(c)}")
    _emit(f"precision: {int(reduced.curve.accuracy)}")
    _emit(f"y-unit applied first: {format_scalar(reduced.unit)}")
    if reduced.steps:
        _emit("reduction steps (order, added coefficient):")
        for step in reduced.steps:
            _emit(f"  {step.order}: {format_scalar(step.scale)}")
    else:
        _emit("reduction steps: none")
    _emit(f"free exponents: {_format_set(reduced.free)}")
    for e, c in sorted(point.items()):
        _emit(f"moduli coordinate a_{e}: {format_scalar(c)}")
    return 0


def cmd_equivalent(args) -> int:
    first = _read_curve(args.first)
    second = _read_curve(args.second)
    verdict, witness = equivalent_curves(first, second)
    if args.json:
        _emit_json(
            {
                "schema": "legcurve/equivalent/1",
                "equivalent": verdict,
                "witness": witness,
            }
        )
        return 0
    if verdict:
        _emit("equivalent: yes")
        _emit(f"witness root-of-unity exponent: {witness}")
    else:
        _emit("equivalent: no")
    return 0


# -- verify-generic -------------------------------------------------------------------


def cmd_verify_generic(args) -> int:
    if args.trials < 0:
        raise ValidationError(f"--trials must be non-negative, got {args.trials}")
    expected = generic_semigroup(args.n, args.m)
    failures = []
    for trial in range(args.trials):
        rng = trial_rng(args.seed, trial)
        curve = random_curve(args.n, args.m, rng, spread=args.range)
        actual = conormal_semigroup(curve)
        if actual != expected:
            failures.append((trial, curve, actual))
    passes = args.trials - len(failures)
    if args.json:
        _emit_json(
            {
                "schema": "legcurve/verify-generic/1",
                "n": args.n,
                "m": args.m,
                "trials": args.trials,
                "seed": args.seed,
                "range": args.range,
                "passes": passes,
                "failures": [
                    {
                        "trial": trial,
                        "coefficients": {str(e): format_scalar(c) for e, c in curve.items()},
                        "gaps": list(actual.gaps),
                        "expected_gaps": list(expected.gaps),
                    }
                    for trial, curve, actual in failures
                ],
            }
        )
        return CHECK_FAILED if failures else 0
    _emit(
        f"verify-generic ({args.n}, {args.m}): trials={args.trials} "
        f"seed={args.seed} range={args.range}"
    )
    _emit(f"pass: {passes}/{args.trials}")
    for trial, curve, actual in failures:
        _emit(f"trial {trial} FAILED")
        for e, c in curve.items():
            _emit(f"  a_{e} = {format_scalar(c)}")
        _emit(f"  semigroup gaps: {_format_set(actual.gaps)}")
        _emit(f"  expected gaps: {_format_set(expected.gaps)}")
    return CHECK_FAILED if failures else 0


# -- upsilon ---------------------------------------------------------------------------


def _check_entries(ctx: ExpansionContext, holds, need_x: bool = False):
    """Count the entries (index, k) for which ``holds`` until the first that
    fails: the monomial indices of valuation below the cutoff, in sorted
    order, by the orders k in [m, cutoff); need_x restricts to i >= 1 and
    l >= 1 for the derivative check."""
    checked = 0
    for index in sorted(monomials_in_valuation_range(ctx.n, ctx.m, 0, ctx.cutoff)):
        if need_x and (index[0] < 1 or index[2] < 1):
            continue
        for k in range(ctx.m, ctx.cutoff):
            if not holds(index, k):
                return checked, {"index": list(index), "k": k}
            checked += 1
    return checked, None


def _check_direct_vs_closed(ctx: ExpansionContext):
    return _check_entries(ctx, lambda index, k: ctx.entry(index, k) == ctx.entry_closed_form(index, k))


def _check_mu_derivative(ctx: ExpansionContext):
    return _check_entries(ctx, ctx.mu_derivative_matches, need_x=True)


def _check_det_invariance(ctx: ExpansionContext, seed: int, selections: int = 50):
    checked = 0
    for trial in range(selections):
        rng = trial_rng(seed, trial)
        while True:
            count = rng.randint(1, 3)
            q = rng.randint(-2, 2)
            valuation = ctx.family_valuation(q, count)
            low = max(valuation, ctx.m)
            if valuation >= 0 and ctx.cutoff - low >= count + 1:
                break
        columns = sorted(rng.sample(range(low, ctx.cutoff), count + 1))
        # substituting mu = mu0 is a ring homomorphism, so a determinant with
        # no mu term is also the determinant at every twist mu0
        if ctx.family_determinant(q, count, columns).degree_in("mu"):
            return checked, {"q": q, "count": count, "columns": columns}
        checked += 1
    return checked, None


def cmd_upsilon(args) -> int:
    ctx = ExpansionContext(args.n, args.m)
    if args.check == "direct-vs-closed":
        checked, counterexample = _check_direct_vs_closed(ctx)
    elif args.check == "mu-derivative":
        checked, counterexample = _check_mu_derivative(ctx)
    else:
        checked, counterexample = _check_det_invariance(ctx, args.seed)
    ok = counterexample is None
    if args.json:
        _emit_json(
            {
                "schema": "legcurve/upsilon/1",
                "n": args.n,
                "m": args.m,
                "check": args.check,
                "checked": checked,
                "pass": ok,
                "counterexample": counterexample,
            }
        )
        return 0 if ok else CHECK_FAILED
    _emit(f"upsilon ({args.n}, {args.m}) check={args.check}")
    _emit(f"checked: {checked}")
    _emit(f"result: {'pass' if ok else 'FAIL'}")
    if counterexample is not None:
        _emit(f"first counterexample: {json.dumps(counterexample)}")
    return 0 if ok else CHECK_FAILED


# -- wiring -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legcurve",
        description="Exact computations with Legendrian curve germs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("gamma", help="generic semigroup of a type (n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    add_json(p)
    p.set_defaults(handler=cmd_gamma)

    p = sub.add_parser("semigroup", help="conormal semigroup of a curve file")
    p.add_argument("curve", help="path to a curve document, or - for stdin")
    add_json(p)
    p.set_defaults(handler=cmd_semigroup)

    p = sub.add_parser("conormal", help="conormal p-series of a curve file")
    p.add_argument("curve", help="path to a curve document, or - for stdin")
    add_json(p)
    p.set_defaults(handler=cmd_conormal)

    p = sub.add_parser("transform", help="apply a contact transformation to a curve")
    p.add_argument("curve", help="path to a curve document, or - for stdin")
    p.add_argument("--alpha", required=True, help="x-displacement expression")
    p.add_argument("--beta0", required=True, help="y-displacement at p = 0")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("normalize", help="reduce a generic curve to short form")
    p.add_argument("curve", help="path to a curve document, or - for stdin")
    add_json(p)
    p.set_defaults(handler=cmd_normalize)

    p = sub.add_parser(
        "equivalent",
        help="decide equivalence of two curves under contact maps with linear x-coefficient 1 and t -> zeta*t",
    )
    p.add_argument("first")
    p.add_argument("second")
    add_json(p)
    p.set_defaults(handler=cmd_equivalent)

    p = sub.add_parser(
        "verify-generic",
        help="Monte-Carlo check that random curves have the generic semigroup",
    )
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", type=int, default=10**6)
    add_json(p)
    p.set_defaults(handler=cmd_verify_generic)

    p = sub.add_parser("upsilon", help="symbolic identities of the coefficient matrix")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument(
        "--check",
        required=True,
        choices=["direct-vs-closed", "mu-derivative", "det-invariance"],
    )
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(handler=cmd_upsilon)

    return parser


def _join_expression_flags(argv: list[str]) -> list[str]:
    # expressions may start with '-', which argparse would read as a flag
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("--alpha", "--beta0") and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_expression_flags(list(argv)))
    try:
        return args.handler(args)
    except LegcurveError as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
