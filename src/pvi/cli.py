"""Batch command-line front end with machine-readable output.

Commands: classify, orbit, verify, eval-picard, derive-quartics, selftest.
Exit codes: 0 success, 1 verification failure (or stdout closed by its
reader), 2 usage error.  JSON output is deterministic (sorted keys,
canonical 'p/q' rationals, fixed sampling), so identical invocations
produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from . import curves as cv
from . import elliptic as el
from . import orbits as ob
from . import verifier as vf
from .curves import CurveId
from .elliptic import AlphaTuple
from .multipoly import MultiPoly

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _rational(text: str) -> Fraction:
    try:
        return ob.parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_csv(text: str) -> list[Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected four comma-separated rationals, got {text!r}")
    return [_rational(p) for p in parts]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit_json(command: str, **body) -> None:
    print(json.dumps({"schema_version": SCHEMA_VERSION, "command": command, **body},
                     sort_keys=True))


def _alpha_from_args(args) -> AlphaTuple:
    if (args.alpha is None) == (args.pvi is None):
        raise UsageError("provide exactly one of --alpha or --pvi")
    if args.alpha is not None:
        return AlphaTuple(*args.alpha)
    return vf.params_convert(vf.PviParams(*args.pvi))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _cmd_classify(args) -> int:
    alpha = _alpha_from_args(args)
    result = vf.classify(alpha, verify=args.verify, spec=vf.SampleSpec(count=args.samples))
    alpha_text = [ob.format_rational(a) for a in alpha]
    pvi_text = [ob.format_rational(p) for p in vf.params_convert(alpha)]
    if args.format == "json":
        _emit_json("classify", **result.to_json_dict(), alpha=alpha_text, pvi=pvi_text)
    else:
        print(f"alpha = ({', '.join(alpha_text)})   pvi = ({', '.join(pvi_text)})")
        if result.kind == "picard_family":
            print(f"picard_family: {result.picard_note}")
        elif result.kind == "empty":
            print("no smooth solutions (empty classification)")
        else:
            names = ", ".join(c.value for c in result.curves)
            print(f"smooth solutions: {names}")
            for cid in result.curves:
                print(f"  {cid.value}: {cv.CURVES[cid]} = 0")
        if result.reports:
            for cid, rep in sorted(result.reports.items()):
                print(
                    f"  residual[{cid.value}]: max {rep.max_residual:.3e} "
                    f"({rep.verdict()})"
                )
    return EXIT_OK


def _cmd_orbit(args) -> int:
    if args.denominator is not None and (args.mu is not None or args.nu is not None):
        raise UsageError("--denominator excludes --mu/--nu")
    if args.denominator is not None:
        if args.denominator < 2:
            raise UsageError("--denominator must be at least 2")
        partition = ob.orbit_partition(args.denominator)
        body = {
            "denominator": args.denominator,
            "partition": partition,
            "class_count": sum(partition),
        }
        if args.format == "json":
            _emit_json("orbit", **body)
        else:
            print(f"N = {args.denominator}: orbit sizes {partition} "
                  f"({body['class_count']} classes)")
        return EXIT_OK
    if args.mu is None or args.nu is None:
        raise UsageError("provide --mu and --nu, or --denominator")
    v = ob.canonicalize((args.mu, args.nu))
    if v.is_zero() or v.is_half_integer():
        raise UsageError(f"class {v} is half-integer: labels a trivial solution")
    data = ob.standard_form(v)
    level, members = ob.orbit_numerators(v)
    text = [ob.format_rational(Fraction(k, level)) for k in range(level)]
    orbit = [[text[a], text[b]] for a, b in members]
    curve = vf.orbit_to_curve(v)
    body = {
        "vector": v.as_strings(),
        "standard_form": {
            "M": data.M, "N": data.N, "m": data.m, "n": data.n,
            "standard": data.standard.as_strings(),
        },
        "orbit": orbit,
        "size": len(orbit),
        "curve": curve.value if curve else None,
    }
    if args.format == "json":
        _emit_json("orbit", **body)
    else:
        print(f"class {v}: N = {data.N}, standard {data.standard}, orbit size {len(orbit)}")
        print("orbit: " + ", ".join(f"({mu}, {nu})" for mu, nu in orbit))
        if curve:
            print(f"curve: {curve.value}  ({cv.CURVES[curve]} = 0)")
        else:
            print("curve: none (orbit longer than 6)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    alpha = _alpha_from_args(args)
    params = vf.params_convert(alpha)
    if (args.curve is None) == (args.poly is None):
        raise UsageError("provide exactly one of --curve or --poly")
    if args.curve is not None:
        target = CurveId(args.curve)
    else:
        try:
            target = MultiPoly.parse(args.poly)
        except ValueError as exc:
            raise UsageError(f"cannot parse polynomial: {exc}") from None
    report = vf.verify_curve(target, params, vf.SampleSpec(count=args.samples))
    if args.format == "json":
        _emit_json("verify", **report.to_json_dict())
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(vf.CSV_HEADER)
        writer.writerows(report.csv_rows())
        sys.stdout.write(out.getvalue())
    else:
        label = report.curve or "custom polynomial"
        print(f"curve {label} at pvi = ({', '.join(map(str, params))})")
        # the count from the CSV rows, without building the samples
        print(f"samples: {len(report.csv_rows())}  skipped: {len(report.skipped)}")
        print(f"max residual: {report.max_residual:.6e}")
        print(f"median residual: {report.median_residual:.6e}")
        print(f"verdict: {report.verdict()}")
    return EXIT_OK if report.verdict() == "pass" else EXIT_VERIFICATION


def _cmd_eval_picard(args) -> int:
    v = ob.canonicalize((args.mu, args.nu))
    if v.is_half_integer():
        raise UsageError(f"class {v} is half-integer: the solution is trivial")
    tau = complex(args.tau_re, args.tau_im)
    try:
        t, y = el.picard_eval(v, tau)
    except el.EllipticError as exc:
        raise UsageError(str(exc)) from None
    curve = vf.orbit_to_curve(v)
    body = {
        "mu": ob.format_rational(v.mu),
        "nu": ob.format_rational(v.nu),
        "tau": {"re": tau.real, "im": tau.imag},
        "t": {"re": t.real, "im": t.imag},
        "y": {"re": y.real, "im": y.imag},
        "curve": curve.value if curve else None,
        "curve_residual": None,
        "master_residual": None,
        "master_alpha": None,
    }
    if curve is not None:
        alpha = cv.CURVE_TABLE[curve].alpha
        body["curve_residual"] = abs(complex(cv.CURVES[curve](y=y, t=t)))
        body["master_residual"] = abs(complex(cv.master_poly(alpha)(y=y, t=t)))
        body["master_alpha"] = [ob.format_rational(a) for a in alpha]
    if args.format == "json":
        _emit_json("eval-picard", **body)
    else:
        print(f"(mu, nu) = {v}, tau = {tau}")
        print(f"t = {t}")
        print(f"y = {y}")
        if curve is not None:
            print(f"curve {curve.value}: |P(y, t)| = {body['curve_residual']:.3e}")
            print(f"sextic at alpha = ({', '.join(body['master_alpha'])}): "
                  f"{body['master_residual']:.3e}")
        else:
            print("no canonical curve (orbit longer than 6)")
    return EXIT_OK


def _cmd_derive_quartics(args) -> int:
    derived = cv.derive_quartics()
    body = {
        "f": str(cv.TRIPLING_F),
        "g": str(cv.TRIPLING_G),
        "curves": {cid.value: str(poly) for cid, poly in sorted(derived.items())},
        "matches_canonical": all(
            derived[cid] == cv.CURVES[cid] for cid in cv.QUARTIC_CURVES
        ),
    }
    if args.format == "json":
        _emit_json("derive-quartics", **body)
    else:
        print(f"f(y, t) = {body['f']}")
        print(f"g(y, t) = {body['g']}")
        for name, text in body["curves"].items():
            print(f"curve {name}: {text} = 0")
        print(f"matches canonical curves: {body['matches_canonical']}")
    return EXIT_OK if body["matches_canonical"] else EXIT_VERIFICATION


def _cmd_selftest(args) -> int:
    from . import selftest as st
    results = st.run_all()
    passed = sum(r.passed for r in results)
    ok = passed == len(results)
    if args.json:
        _emit_json(
            "selftest",
            checks=[
                {"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 3),
                 "detail": r.detail}
                for r in results
            ],
            passed=passed,
            failed=len(results) - passed,
            ok=ok,
        )
    else:
        for r in results:
            print(r.line())
        total = sum(r.seconds for r in results)
        print(f"{passed}/{len(results)} checks passed in {total:.2f}s")
    return EXIT_OK if ok else EXIT_VERIFICATION


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse drops a failed write of --help or --version to stdout and exits
    # 0; let it reach main, which exits 1 for a stdout closed by its reader.
    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pvi",
        description="Smooth (zero-, one-, pole- and fixed-point-free) solutions "
                    "of the sixth Painleve equation: classification, orbit "
                    "analysis, exact identity self-tests, residual verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("json", "text")):
        p.add_argument("--format", choices=choices, default="json",
                       help="output format (default json)")

    def add_params(p):
        p.add_argument("--alpha", type=_rational_csv, metavar="a0,a1,a2,a3")
        p.add_argument("--pvi", type=_rational_csv, metavar="alpha,beta,gamma,delta")

    p = sub.add_parser("classify", help="list the smooth solutions for parameters")
    add_params(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check the rule-based answer by ODE residuals")
    p.add_argument("--samples", type=_positive_int, default=25, help="t samples per curve")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("orbit", help="orbit of a rational class, or all orbit sizes at level N")
    p.add_argument("--mu", type=_rational, metavar="p/q")
    p.add_argument("--nu", type=_rational, metavar="r/s")
    p.add_argument("--denominator", type=int, metavar="N")
    add_format(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("verify", help="ODE residual report for one curve at parameters")
    p.add_argument("--curve", choices=[c.value for c in CurveId])
    p.add_argument("--poly", metavar="TEXT", help="custom curve polynomial in y, t")
    add_params(p)
    p.add_argument("--samples", type=_positive_int, default=25)
    add_format(p, choices=("json", "csv", "text"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval-picard", help="evaluate a Picard solution point (t, y)")
    p.add_argument("--mu", type=_rational, required=True, metavar="p/q")
    p.add_argument("--nu", type=_rational, required=True, metavar="r/s")
    p.add_argument("--tau-re", type=float, default=0.0)
    p.add_argument("--tau-im", type=float, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_eval_picard)

    p = sub.add_parser("derive-quartics", help="derive the quartic curves from the tripling identity")
    add_format(p)
    p.set_defaults(func=_cmd_derive_quartics)

    p = sub.add_parser("selftest", help="run every identity and classification check")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_selftest)

    return parser


# Options whose value may start with '-' (a negative rational); argparse would
# read such a value as an option unless it is attached with '='.
_SIGNED_VALUE_OPTIONS = frozenset({"--alpha", "--pvi", "--mu", "--nu"})


def _attach_signed_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (vf.VerificationError, vf.NoValidSamplesError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull so the interpreter's
        # final flush cannot fail again, and report failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
