"""Command-line interface.

Subcommands: expand, recurrence, verify, and family {list,expand,audit}.
Exit codes: 0 success / all checks pass, 1 verification or audit mismatch,
2 invalid input or an internal error, 141 (128 + SIGPIPE) when the reader
closes stdout early.  Output is deterministic: identical invocations produce
byte-identical output.  Each command builds its whole stdout text and hands
it to :func:`main`, the one writer of stdout, so a command that fails with
exit 2 leaves stdout empty.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Sequence

from . import families as families_mod
from .errors import InvalidVariable, MissingVariable, RatGenError, TooManyDigits
from .parser import format_poly, parse_poly, split_in_t
from .poly import Polynomial, require_values, validate_variable_name
from .recurrence import (
    RationalGF,
    convolve_numerator,
    expand_family,
    expand_inverse,
    identity_residual,
    inverts,
    iter_family,
    iter_values,
    render_recurrence,
)
from .series import SeriesPrefix, geometric_inverse, multinomial_inverse

MULTINOMIAL_ORDER_CAP = 12
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status of a writer killed by a closed pipe
# An integer as --at and --param read it: what int() accepts, less its
# underscores and non-ASCII digits, as in an expression's integer literals.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratgen",
        description=(
            "Expand rational generating functions A(x,..,t)/B(x,..,t)^h "
            "into their polynomial families, derive the recurrence they "
            "satisfy, and cross-verify against independent series oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gf_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--num", required=True, help="numerator expression in t")
        p.add_argument("--den", required=True, help="denominator expression in t")
        p.add_argument(
            "--pow", type=int, default=1, metavar="H",
            help="denominator power h >= 1 (default 1)",
        )

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )
        p.add_argument(
            "--at", metavar="VAR=INT,...", default=None,
            help="also evaluate each coefficient at an integer point",
        )

    p_expand = sub.add_parser("expand", help="expand a generating function")
    p_expand.set_defaults(run=_cmd_expand)
    add_gf_flags(p_expand)
    p_expand.add_argument("-N", type=int, required=True, help="truncation order")
    add_output_flags(p_expand)

    p_rec = sub.add_parser("recurrence", help="derive the recurrence")
    p_rec.set_defaults(run=_cmd_recurrence)
    add_gf_flags(p_rec)

    p_verify = sub.add_parser("verify", help="cross-check against oracles")
    p_verify.set_defaults(run=_cmd_verify)
    add_gf_flags(p_verify)
    p_verify.add_argument("-N", type=int, required=True, help="truncation order")
    p_verify.add_argument(
        "--oracle", required=True,
        choices=("geometric", "multinomial", "convolution", "residual", "all"),
        help="which identity to check",
    )
    p_verify.add_argument(
        "--force", action="store_true",
        help="allow the multinomial oracle beyond N=12",
    )

    p_family = sub.add_parser("family", help="work with the named catalog")
    fam_sub = p_family.add_subparsers(dest="family_command", required=True)

    p_flist = fam_sub.add_parser("list", help="list the catalog")
    p_flist.set_defaults(run=_cmd_family_list)

    def add_family_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("name", help="family name (see `family list`)")
        p.add_argument(
            "--param", action="append", default=[], metavar="KEY=VALUE",
            help="family parameter (repeatable); value is an integer or expression",
        )
        p.add_argument(
            "--mode", choices=families_mod.MODES, default="canonical",
            help="numerator reading (default canonical)",
        )

    p_fexpand = fam_sub.add_parser("expand", help="expand a named family")
    p_fexpand.set_defaults(run=_cmd_family_expand)
    add_family_flags(p_fexpand)
    p_fexpand.add_argument("-N", type=int, required=True, help="truncation order")
    add_output_flags(p_fexpand)

    p_faudit = fam_sub.add_parser(
        "audit", help="compare the expansion against the table's stated values"
    )
    p_faudit.set_defaults(run=_cmd_family_audit)
    add_family_flags(p_faudit)
    p_faudit.add_argument(
        "-N", type=int, default=4, help="orders to audit (default 4)"
    )

    return parser


def _coefficients(expr: str, what: str) -> tuple[Polynomial, ...]:
    try:
        return split_in_t(parse_poly(expr))
    except RatGenError as exc:
        raise RatGenError(f"in --{what} expression: {exc}") from exc


def _gf_from_args(args: argparse.Namespace) -> RationalGF:
    if args.pow < 1:
        raise RatGenError(f"--pow must be >= 1, got {args.pow}")
    num = _coefficients(args.num, "num")
    den = _coefficients(args.den, "den")
    return RationalGF(num, den, args.pow)


def _integer(text: str, what: str) -> int | None:
    """The value of ``text`` if it is an integer (see _INTEGER), else None."""
    if not _INTEGER.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise TooManyDigits(what) from None


def _parse_at(text: str | None) -> dict[str, int] | None:
    if text is None:
        return None
    assignment: dict[str, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        var, sep, value = piece.partition("=")
        var = var.strip()
        if not sep or not var:
            raise RatGenError(f"bad --at entry {piece!r}; expected VAR=INT")
        try:
            validate_variable_name(var)
        except InvalidVariable as exc:
            raise RatGenError(f"bad --at entry {piece!r}: {exc}") from None
        if var in assignment:
            raise RatGenError(f"--at assigns {var!r} more than once")
        value = value.strip()
        number = _integer(value, f"the --at value for {var!r}")
        if number is None:
            raise RatGenError(
                f"bad --at value for {var!r}: {value!r} is not an integer"
            )
        assignment[var] = number
    if not assignment:
        raise RatGenError("--at given but no assignments parsed")
    return assignment


def _parse_family_params(pairs: Sequence[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise RatGenError(f"bad --param entry {pair!r}; expected KEY=VALUE")
        value = value.strip()
        number = _integer(value, f"the --param value for {key!r}")
        params[key] = parse_poly(value) if number is None else number
    return params


def _rows(
    terms: Iterable[Polynomial], at: dict[str, int] | None, values: Iterator[int]
) -> Iterator[tuple[int, str, str | None]]:
    """(k, P_k formatted, P_k's value at ``at`` or None) as each P_k arrives.

    With ``at``, each row draws its value from ``values`` once P_k is known
    to mention only names that ``at`` assigns."""
    assigned = frozenset(at or ())
    for k, p in enumerate(terms):
        poly, value = format_poly(p), None
        if at is not None:
            if not p.variables() <= assigned:
                try:  # raises MissingVariable, naming what at lacks
                    require_values(p.variables(), at)
                except MissingVariable as exc:
                    raise RatGenError(f"--at is incomplete at k={k}: {exc}") from exc
            number = next(values)
            try:
                value = str(number)
            except ValueError:  # past the interpreter's digit limit
                raise TooManyDigits(f"the --at value at k={k}") from None
        yield k, poly, value


def _text_lines(query: dict[str, object], rows: Iterable[tuple]) -> Iterator[str]:
    for k, poly, value in rows:
        yield from (f"P_{k} = ", poly, "\n" if value is None else f" = {value}\n")


def _csv_lines(query: dict[str, object], rows: Iterable[tuple]) -> Iterator[str]:
    yield "k,poly\n" if query["at"] is None else "k,poly,value\n"
    for k, poly, value in rows:
        yield from (f'{k},"', poly, '"\n' if value is None else f'",{value}\n')


def _json_lines(query: dict[str, object], rows: Iterable[tuple]) -> Iterator[str]:
    """json.dumps({"query": query, "results": rows}, indent=2, sort_keys=True)
    plus a newline, for one or more rows: "query" sorts first, so rows come last."""
    head = json.dumps({"query": query}, indent=2, sort_keys=True)
    yield head[:-2] + ',\n  "results": ['  # drops the closing "\n}"
    sep = "\n"
    for k, poly, value in rows:
        tail = "" if value is None else f',\n      "value": {_quote(value)}'
        yield from (f'{sep}    {{\n      "k": {k},\n      "poly": ', _quote(poly),
                    f"{tail}\n    }}")
        sep = ",\n"
    yield "\n  ]\n}\n"


def _at_echo(at: dict[str, int] | None) -> dict[str, str] | None:
    if at is None:
        return None
    return {var: str(value) for var, value in sorted(at.items())}


def _zero_filled(gf: RationalGF, at: dict[str, int]) -> dict[str, int]:
    """``at`` with every name of A or B that it lacks set to 0.

    Exact for every value that is printed: a row whose P_k mentions such a
    name fails before its value is drawn, and the other rows do not depend
    on it."""
    names = chain.from_iterable(p.variables() for p in gf.numerator + gf.denominator)
    return {**dict.fromkeys(names, 0), **at}


# What a command hands back to main: its exit code and its stdout text, in pieces.
Output = tuple[int, list[str]]


def _expand(args: argparse.Namespace, gf: RationalGF, query: dict[str, object]) -> Output:
    """P_0..P_N of gf, emitted with the query echo; both expand commands end here.

    Each polynomial's text stays its own piece, never copied into a line."""
    at = _parse_at(args.at)
    terms = iter_family(gf, args.N)
    values = iter(()) if at is None else iter_values(gf, _zero_filled(gf, at), args.N)
    query = {**query, "N": args.N, "at": _at_echo(at)}
    write = {"text": _text_lines, "csv": _csv_lines, "json": _json_lines}[args.format]
    return 0, list(write(query, _rows(terms, at, values)))


def _cmd_expand(args: argparse.Namespace) -> Output:
    query = {"command": "expand", "num": args.num, "den": args.den, "pow": args.pow}
    return _expand(args, _gf_from_args(args), query)


def _cmd_recurrence(args: argparse.Namespace) -> Output:
    gf = _gf_from_args(args)
    order = gf.power * gf.n  # the degree of B^h in t
    return 0, [render_recurrence(gf), f"\norder: {order}\nforcing cutoff: {gf.m}\n"]


def _first_difference(a: SeriesPrefix, b: SeriesPrefix) -> int | None:
    if a.coeffs == b.coeffs:  # one pass in C, by identity where verify shares terms
        return None
    for k in range(a.order + 1):
        if a[k] != b[k]:
            return k
    return None


def _report(
    name: str, engine: SeriesPrefix, oracle: SeriesPrefix, note: str
) -> tuple[bool, str]:
    """Whether one oracle agrees with the engine, and its PASS or FAIL line."""
    k = _first_difference(engine, oracle)
    if k is None:
        return True, f"PASS {name} ({note})\n"
    return False, (f"FAIL {name}: first difference at k={k}: "
                   f"engine {format_poly(engine[k])} vs oracle {format_poly(oracle[k])}\n")


def _cmd_verify(args: argparse.Namespace) -> Output:
    gf = _gf_from_args(args)
    N = args.N
    selected = args.oracle
    # the engine expands from B itself by Miller's recurrence; the power
    # oracles build B^-h from B and h, and the convolution and residual ones
    # read D = B^h, folded once and only to order N
    B, h = gf.denominator, gf.power
    engine = expand_family(gf, N)
    first = None  # (Y, A * Y) for the first series Y multiplied by A

    def times_A(X: SeriesPrefix) -> tuple[SeriesPrefix, SeriesPrefix]:
        """X and A * X: where X is a prefix of the stored Y, as every
        oracle's B^-h is on a PASS, Y's prefix and the stored A * Y cut to
        X's order, so each later comparison is by identity; otherwise X and
        a new product."""
        nonlocal first
        if first and X.coeffs == first[0].coeffs[:len(X)]:
            return first[0].truncate(X.order), first[1].truncate(X.order)
        product = convolve_numerator(gf.numerator, X)
        first = first or (X, product)
        return X, product

    def check_engine(
        name: str, X: SeriesPrefix, note: str
    ) -> tuple[tuple[bool, str], SeriesPrefix]:
        """The line that compares the engine with A * X to X's order, and
        times_A's X; an engine found equal to A * X to order N becomes it."""
        nonlocal engine
        X, product = times_A(X)
        report = _report(name, engine.truncate(X.order), product, note)
        if report[0] and X.order == N:
            engine = product
        return report, X

    reports = []
    if selected in ("geometric", "all"):
        report, geometric = check_engine("geometric", geometric_inverse(B, N, h), f"N={N}")
        reports.append(report)
    if selected in ("multinomial", "all"):
        n_m = N
        note = f"N={N}"
        if N > MULTINOMIAL_ORDER_CAP and not args.force:
            if selected == "multinomial":
                raise RatGenError(
                    f"multinomial oracle is exponential; refusing N={N} > "
                    f"{MULTINOMIAL_ORDER_CAP} (pass --force to override)"
                )
            n_m = MULTINOMIAL_ORDER_CAP
            note = f"capped at N={n_m}"
        # the engine against A * B^-h, then the two oracles against each
        # other: the line fails if either differs
        report, lhs = check_engine("multinomial", multinomial_inverse(B, n_m, h), note)
        if report[0]:
            rhs = (geometric_inverse(B, n_m, h) if selected == "multinomial"
                   else geometric.truncate(n_m))
            report = _report("multinomial", lhs, rhs, note)
        reports.append(report)
    if selected in ("convolution", "residual", "all"):
        reduced = RationalGF(gf.numerator, gf.reduced_denominator(N))
        D = reduced.denominator
        # Q = 1/D for both lines below: on a PASS the stored B^-h, checked
        # once by D * Y = 1 to order N and read with its A * Y, and otherwise
        # expanded here, the residual line then forming the whole identity
        if first and inverts(D, first[0], N):
            inverse, product = first
        else:
            inverse, product = expand_inverse(D, N), None
    if selected in ("convolution", "all"):
        reports.append(check_engine("convolution", inverse, f"N={N}")[0])
    if selected in ("residual", "all"):
        residual = identity_residual(reduced, N, engine, inverse, product)
        zero = SeriesPrefix.from_polynomials((), N)
        reports.append(_report("residual", residual, zero, f"N={N}"))
    return (0 if all(ok for ok, _ in reports) else 1), [line for _, line in reports]


def _cmd_family_list(args: argparse.Namespace) -> Output:
    return 0, [f"{spec.name}: {spec.summary}\n" for spec in families_mod.list_families()]


def _family_query_params(params: dict[str, object]) -> dict[str, str]:
    return {
        key: format_poly(value) if isinstance(value, Polynomial) else str(value)
        for key, value in params.items()
    }


def _cmd_family_expand(args: argparse.Namespace) -> Output:
    params = _parse_family_params(args.param)
    parts, resolved = families_mod.build_parts(args.name, params)
    gf = parts.gf(args.mode)
    query = {
        "command": "family expand",
        "family": args.name,
        "mode": args.mode,
        "params": _family_query_params(resolved),
    }
    return _expand(args, gf, query)


def _cmd_family_audit(args: argparse.Namespace) -> Output:
    """The audit report, one line per piece."""
    params = _parse_family_params(args.param)
    report = families_mod.audit(args.name, params, args.N)
    lines = [f"family: {report.family}"]
    if report.parameters:
        rendered = ", ".join(
            f"{k}={v}" for k, v in _family_query_params(report.parameters).items()
        )
        lines.append(f"parameters: {rendered}")
    for mode in families_mod.MODES:
        mode_audit = report.mode(mode)
        lines.append(f"mode: {mode}")
        lines.append(
            "  expansion: "
            + ", ".join(format_poly(p) for p in mode_audit.expansion)
        )
        if not mode_audit.checks:
            lines.append("  no stated initial values to compare")
        for check in mode_audit.checks:
            verdict = "match" if check.match else "MISMATCH"
            lines.append(
                f"  k={check.k}: computed {format_poly(check.computed)}, "
                f"stated {format_poly(check.stated)} -> {verdict}"
            )
    feedback = "match" if report.feedback_match else "MISMATCH"
    lines.append(f"recurrence feedback vs table: {feedback}")
    lines.extend(f"note: {note}" for note in report.notes)

    requested = report.mode(args.mode)
    problems: list[str] = []
    if not requested.all_match:
        ks = ", ".join(str(k) for k in requested.mismatches)
        problems.append(f"{args.mode}-mode values disagree at k={ks}")
    if not report.feedback_match:
        problems.append("derived recurrence disagrees with the table")
    label = "MISMATCH" if args.mode == "printed" else "WARN"
    lines.extend(f"{label}: {problem}" for problem in problems)
    other = report.mode("printed" if args.mode == "canonical" else "canonical")
    if not problems and not other.all_match:
        ks = ", ".join(str(k) for k in other.mismatches)
        lines.append(f"WARN: {other.mode}-mode values disagree at k={ks}")
    return (1 if problems and args.mode == "printed" else 0), [line + "\n" for line in lines]


@lru_cache(maxsize=1)
def _arg_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_arg_parser()


def _bind_expressions(argv: Sequence[str]) -> Iterator[str]:
    """``--num -t`` -> ``--num=-t``: the token after --num or --den is its
    expression, which argparse would take for an option if it starts with -."""
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in ("--num", "--den") else None
        yield token if value is None else f"{token}={value}"


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _arg_parser().parse_args(_bind_expressions(argv))
    try:
        code, pieces = args.run(args)  # all of stdout, built before any is written
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped reading (`| head`): not an error of ours.  Point
        # stdout at devnull so the flush at exit cannot raise again ("Note on
        # SIGPIPE", Python's signal module docs), and say nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except RatGenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not bad input; 1 means a failed check
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
