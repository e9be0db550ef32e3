"""Command line interface.

Exit codes: 0 success / all checks pass, 1 a check failed or a bound
was violated, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import __version__
from .edgelist import CLI_VERTEX_LIMIT, _edge_lines, parse_graph
from .extraction import (
    _regular_k,
    extract_dirac,
    extract_general,
    extract_large_alpha,
    extract_regular,
    extract_triple,
)
from .generators import clique_substitution, cycle_power, random_c4free, w5_blowup
from .graph import (
    ORACLE_LIMIT_DEFAULT,
    Graph,
    GraphInputError,
    InvariantViolation,
    find_induced_c4,
    greedy_maximal_independent_set,
    max_clique_exact,
)
from .structure import HypothesisViolation, alpha2_decompose
from .suites import SuiteConfig, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Reports print --epsilon and numbers derived from it, and Python refuses to
# print an int of more than 4300 digits; the derived ones stay within a few
# digits of epsilon's. --p goes through the same check.
EPSILON_DIGITS = 1000

# The decimal exponent of a rational option, in the syntax Fraction reads.
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _rational(option: str, text: str) -> Fraction:
    # Fraction builds the power of ten of a decimal exponent before anything
    # can bound it, which takes seconds from a million digits up, so a long
    # exponent is refused first.
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(EPSILON_DIGITS)) or int(digits or 0) > EPSILON_DIGITS:
            raise GraphInputError(
                f"{option} needs a decimal exponent of at most {EPSILON_DIGITS} in magnitude"
            )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GraphInputError(f"{option} is not a rational number: {text!r}") from None
    if max(abs(value.numerator), value.denominator) >= 10**EPSILON_DIGITS:
        raise GraphInputError(
            f"{option} needs a numerator and denominator of at most {EPSILON_DIGITS} digits"
        )
    return value


def _sizes_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        name = "<stdin>" if path == "-" else path
        raise GraphInputError(f"{name}: {exc}") from exc


def _write_text(path: Optional[str], pieces: Iterable[str]) -> None:
    # Written piece by piece, so the whole text is never held at once.
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c4free",
        description=(
            "Certified clique extraction and bound verification for graphs "
            "with no induced 4-cycle."
        ),
    )
    parser.add_argument("--version", action="version", version=f"c4free {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph and print its edge list")
    gen.set_defaults(run=_cmd_gen)
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    # Each size follows from the arguments, so an oversized graph is refused
    # before it is built and scanned; a build looks its generator up when run.

    p = gen_sub.add_parser("cycle-power", help="cycle on 4k+1 vertices with chords up to distance k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", metavar="FILE", default=None)
    p.set_defaults(size=lambda a: 4 * a.k + 1, build=lambda a: cycle_power(a.k))

    p = gen_sub.add_parser("w5", help="clique substitution into the 5-wheel")
    p.add_argument("--sizes", type=_sizes_list, required=True,
                   help="six sizes: hub,s1,s2,s3,s4,s5")
    p.add_argument("-o", metavar="FILE", default=None)
    p.set_defaults(size=lambda a: sum(a.sizes), build=lambda a: w5_blowup(a.sizes))

    p = gen_sub.add_parser("substitute", help="clique substitution into a base graph")
    p.add_argument("--base", metavar="FILE", required=True)
    p.add_argument("--sizes", type=_sizes_list, required=True)
    p.add_argument("-o", metavar="FILE", default=None)
    p.set_defaults(size=lambda a: sum(a.sizes),
                   build=lambda a: clique_substitution(_load_graph(a.base), a.sizes))

    p = gen_sub.add_parser("random", help="seeded random graph repaired to be C4-free")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", metavar="FILE", default=None)
    p.set_defaults(size=lambda a: a.n, build=lambda a: random_c4free(a.n, a.p, a.seed))

    check = sub.add_parser("check", help="recognition checks")
    check.set_defaults(run=_cmd_check)
    check_sub = check.add_subparsers(dest="check_kind", required=True)
    p = check_sub.add_parser("c4free", help="report an induced 4-cycle or 'c4-free'")
    p.add_argument("file")

    clique = sub.add_parser("clique", help="clique oracles and extractors")
    clique.set_defaults(run=_cmd_clique)
    clique_sub = clique.add_subparsers(dest="clique_kind", required=True)

    p = clique_sub.add_parser("exact", help="exact maximum clique (small graphs)")
    p.add_argument("file")
    p.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT_DEFAULT)

    p = clique_sub.add_parser("extract", help="certified clique extraction")
    p.add_argument("file")
    p.add_argument(
        "--method",
        choices=["auto", "regular", "general", "triple", "large-alpha"],
        default="auto",
    )
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--independent-set", type=_sizes_list, default=None)
    p.add_argument(
        "--dirac",
        action="store_true",
        help="large-alpha preset for min degree >= n/2: threshold 3/eps+1, "
        "bound (1-eps)*n/4",
    )
    p.add_argument(
        "--exact-alpha",
        action="store_true",
        help="start the general method from a maximum independent set "
        "(oracle-sized graphs only)",
    )
    p.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT_DEFAULT)

    p = sub.add_parser("structure", help="decompose a C4-free graph with independence number <= 2")
    p.add_argument("file")
    p.set_defaults(run=_cmd_structure)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-n", type=int, default=40)
    p.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT_DEFAULT)
    p.add_argument("--epsilon", default="1/2")
    p.add_argument("--json", metavar="FILE", default=None)
    p.set_defaults(run=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # A parser keeps no state between parse_args calls, so each process builds
    # one; this saves the rebuild only for callers that run main more than once.
    return build_parser()


def _cmd_gen(args: argparse.Namespace) -> int:
    n = args.size(args)
    if n > CLI_VERTEX_LIMIT:
        raise GraphInputError(f"n={n} exceeds the vertex limit {CLI_VERTEX_LIMIT}")
    _write_text(args.o, _edge_lines(args.build(args)))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    witness = find_induced_c4(g)
    if witness is None:
        print("c4-free")
        return EXIT_OK
    print(f"induced-c4: {witness.a} {witness.b} {witness.c} {witness.d}")
    return EXIT_FAIL


def _cmd_clique(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    if args.clique_kind == "exact":
        clique = max_clique_exact(g, limit=args.oracle_limit)
        _print_json({"clique": list(clique), "size": len(clique)})
        return EXIT_OK

    method = args.method
    if args.dirac:
        if method not in ("auto", "large-alpha"):
            raise GraphInputError("--dirac is a preset of --method large-alpha")
        method = "dirac"
    if method == "auto":
        try:
            _regular_k(g)
            method = "regular"
        except GraphInputError:
            method = "general"

    if args.exact_alpha and method != "general":
        raise GraphInputError("--exact-alpha applies to the general method only")
    if args.independent_set is not None and method not in ("large-alpha", "dirac"):
        raise GraphInputError("--independent-set applies to the large-alpha method only")
    if method == "regular":
        cert = extract_regular(g)
    elif method == "general":
        cert = extract_general(
            g, exact_alpha=args.exact_alpha, oracle_limit=args.oracle_limit
        )
    elif method == "triple":
        cert = extract_triple(g)
    else:
        members = args.independent_set
        if members is None:
            members = list(greedy_maximal_independent_set(g))
        if method == "dirac":
            cert = extract_dirac(g, members, args.epsilon)
        else:
            cert = extract_large_alpha(g, members, args.epsilon)
    _print_json(cert.to_json_dict(g))
    return EXIT_OK


def _cmd_structure(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    try:
        cert = alpha2_decompose(g)
    except HypothesisViolation as exc:
        print("alpha>2")
        print(f"witness: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _print_json(cert.to_json_dict())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n > CLI_VERTEX_LIMIT:
        raise GraphInputError(f"--max-n must be at most {CLI_VERTEX_LIMIT}, got {args.max_n}")
    config = SuiteConfig(
        suite=args.suite,
        seed=args.seed,
        samples=args.samples,
        max_n=args.max_n,
        oracle_limit=args.oracle_limit,
        epsilon=args.epsilon,
    )
    # The report file is opened before the suite runs, so a bad path costs no
    # suite work; append mode keeps an existing file until the report is written.
    with contextlib.ExitStack() as stack:
        if args.json not in (None, "-"):
            sink = stack.enter_context(open(args.json, "a", encoding="utf-8"))
        report = run_suite(config)
        # A report on stdout is the whole of stdout, so that it parses as JSON.
        summary = sys.stderr if args.json == "-" else sys.stdout
        print(f"{report.suite}: {report.passed}/{len(report.records)} pass", file=summary)
        for record in report.records:
            if not record["pass"]:
                print(f"FAIL {record['id']}: repro: {record['repro']}", file=summary)
        if args.json == "-":
            sys.stdout.write(report.to_json())
        elif args.json:
            sink.truncate(0)
            sink.write(report.to_json())
    return EXIT_OK if report.all_passed() else EXIT_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Seeds are taken mod 2**64 below, so two spellings of one stream are refused.
        if not 0 <= getattr(args, "seed", 0) < 1 << 64:
            raise GraphInputError(f"--seed must be in [0, 2**64), got {args.seed}")
        for name in ("p", "epsilon"):
            if hasattr(args, name):
                setattr(args, name, _rational(f"--{name}", getattr(args, name)))
        return args.run(args)
    except (GraphInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
