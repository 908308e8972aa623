"""Command line front end.

Subcommands:
  decompose  print a constructive witness for one input
  verify     sweep [0, N] for exceptions of a chosen form
  selftest   cross-check constructive witnesses against brute force

Each subcommand's handler returns 0 or 1 for the outcome it checked and
raises the library's typed errors, all ValueErrors; main alone turns one
into an exit code, after printing "error: <message>" to stderr.

Exit codes: 0 = success / expected outcome, 1 = a witness failed to
check or could not be built (ConstructionFailed), or the exception set
was not the expected one, 2 = usage error (any other ValueError).
selftest counts a typed error on one of its inputs as a failed input.
"""

import argparse
import json
import random
import sys
from functools import partial
from typing import Optional, Sequence

from .core_arith import MAX_INPUT, ConstructionFailed, eval_quad
from .theorem1 import fallback_count, represent_thm1, reset_fallback_count
from .theorem2 import branch_counts, represent_thm2, reset_branch_counts
from .verifier import DEFAULT_CAP, FORMS, BudgetExceeded, brute_quad, verify_range

_EXPECTED_EXCEPTIONS = {
    "thm1": (),
    "thm2": (),
    "conjecture": (8, 68),
}

_RANDOM_LO = 10**9
_RANDOM_HI = MAX_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisum",
        description="witnesses and exhaustive checks for triangular-number sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="find a witness for one input")
    p_dec.add_argument("n", type=int, help="the number to decompose")
    p_dec.add_argument(
        "--theorem", type=int, choices=(1, 2), required=True, help="which quadruple form to use"
    )
    p_dec.add_argument("--json", action="store_true", help="machine readable output")
    p_dec.set_defaults(run=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="sweep a range for exceptions")
    p_ver.add_argument("--form", choices=FORMS, required=True)
    p_ver.add_argument("--to", type=int, required=True, help="inclusive upper end of the sweep")
    p_ver.add_argument("--json", action="store_true", help="machine readable output")
    p_ver.add_argument(
        "--full",
        action="store_true",
        help="allow sweeps past the safety cap (memory grows with --to)",
    )
    p_ver.set_defaults(run=_cmd_verify)

    p_self = sub.add_parser("selftest", help="cross-check witnesses against brute force")
    p_self.add_argument("--to", type=int, default=10000, help="exhaustive range end (inclusive)")
    p_self.add_argument(
        "--random",
        type=int,
        default=0,
        help="extra random inputs to check, drawn from [10^9, 2^58]",
    )
    p_self.add_argument("--seed", type=int, default=0, help="seed for the random inputs")
    p_self.set_defaults(run=_cmd_selftest)
    return parser


def _cmd_decompose(args: argparse.Namespace) -> int:
    form, solve = ("thm1", represent_thm1) if args.theorem == 1 else ("thm2", represent_thm2)
    witness = solve(args.n)
    ok = eval_quad(form, witness) == args.n
    if args.json:
        payload = {"n": args.n, "form": form, "witness": list(witness), "check": ok}
        print(json.dumps(payload))
    else:
        a, b, c, d = witness
        status = "ok" if ok else "MISMATCH"
        print(f"{form}({args.n}): a={a} b={b} c={c} d={d} [{status}]")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = verify_range(args.form, 0, args.to, full=args.full)
    except BudgetExceeded:
        # the sweep cap, which the command line lifts with --full
        raise ValueError(f"--to {args.to} above cap={DEFAULT_CAP}; pass --full to override")
    if args.json:
        payload = {
            "form": report.form,
            "lo": report.lo,
            "hi": report.hi,
            "exceptions": list(report.exceptions),
            "elapsed_ms": round(report.elapsed_ms, 3),
            # a list of [name, ms] pairs, not an object: the order of the
            # stages is part of the output
            "stages": [[name, round(ms, 3)] for name, ms in report.stages],
            "holes": report.holes,
        }
        print(json.dumps(payload))
    else:
        shown = ", ".join(map(str, report.exceptions)) if report.exceptions else "none"
        print(f"{report.form} on [0, {report.hi}]: exceptions: {shown} ({report.elapsed_ms:.1f} ms)")
    if args.form not in _EXPECTED_EXCEPTIONS:
        if not args.json:
            print("informational only; this form is allowed to have exceptions")
        return 0
    expected = tuple(e for e in _EXPECTED_EXCEPTIONS[args.form] if e <= args.to)
    if report.exceptions == expected:
        if not args.json:
            print("as expected")
        return 0
    shown = ", ".join(map(str, expected)) if expected else "none"
    print(f"MISMATCH: expected exceptions: {shown}", file=sys.stderr)
    return 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    if args.to < 0 or args.random < 0:
        raise ValueError("--to and --random must be non-negative")
    reset_fallback_count()
    reset_branch_counts()
    pairs = (("thm1", represent_thm1), ("thm2", represent_thm2))
    failures = 0

    def check(form: str, n: int, solve) -> None:
        nonlocal failures
        try:
            witness = solve(n)
        except ValueError:
            witness = None  # a typed error on an input in range is a failed input
        if witness is None or eval_quad(form, witness) != n:
            failures += 1
            print(f"FAIL {form} n={n} witness={witness}", file=sys.stderr)

    for n in range(args.to + 1):
        for form, solve in pairs:
            check(form, n, solve)
            check(form, n, partial(brute_quad, form))
    print(f"checked {args.to + 1} inputs against brute force: {failures} failures")

    if args.random:
        before = failures
        rng = random.Random(args.seed)
        for _ in range(args.random):
            n = rng.randint(_RANDOM_LO, _RANDOM_HI)
            for form, solve in pairs:
                check(form, n, solve)
        print(f"checked {args.random} random large inputs: {failures - before} failures")

    branches = branch_counts()
    summary = " ".join(f"{k}={branches.get(k, 0)}" for k in ("brute", "square", "doubled"))
    print(f"theorem-2 branches: {summary}; theorem-1 fallbacks: {fallback_count()}")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConstructionFailed) else 2


if __name__ == "__main__":
    raise SystemExit(main())
