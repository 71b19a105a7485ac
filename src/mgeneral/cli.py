"""Command-line interface.

Subcommands: verify a set file against either or both m-general oracles,
construct the 4-general lower-bound set, evaluate bounds (optionally CSV),
reproduce the published bound tables, run exact or greedy searches writing
certificates, and check certificates.

Exit codes: 0 success / predicate true, 1 predicate false or verification
failure, 2 usage or precondition error, 3 search limits exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .affine import PointSet, is_m_general, read_point_set, write_point_set
from .arithmetic import is_m_general_arithmetic
from .bounds import (
    TABLE1_M_ROWS,
    TABLE1_Q_COLUMNS,
    _fmt,
    bound_report,
    reports_to_csv,
    table1_grid,
    table2_rows,
)
from .constructions import lower_bound_4general
from .field import MODULUS_TABLE_ENV, field_for_order, field_from_q_spec, make_field
from .search import (
    read_certificate,
    search_exact,
    search_greedy,
    verify_certificate,
    write_certificate,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_LIMITS = 3


def _parse_q(text: str):
    """Accept a prime power (`9`), a `p^d` pair, or a full q-spec tag."""
    if ":" in text:
        return field_from_q_spec(text)
    try:
        parts = [int(part) for part in text.split("^")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 2:
        raise ValueError(f"malformed q: {text!r}")
    if len(parts) == 2:
        return make_field(*parts)
    return field_for_order(parts[0])


def cmd_verify(args) -> int:
    A, file_m = read_point_set(args.setfile)
    m = args.m if args.m is not None else file_m
    results = {}
    if args.oracle in ("geometric", "both"):
        results["geometric"] = is_m_general(A, m)
    if args.oracle in ("arithmetic", "both"):
        results["arithmetic"] = is_m_general_arithmetic(A, m)
    for name, verdict in results.items():
        print(f"{name}: {len(A)} points, {'' if verdict else 'NOT '}{m}-general")
    if len(results) == 2 and len(set(results.values())) != 1:
        print("ORACLE DISAGREEMENT: geometric and arithmetic checkers differ; "
              "this is a bug tripwire, please report", file=sys.stderr)
        return EXIT_FALSE
    return EXIT_OK if all(results.values()) else EXIT_FALSE


def cmd_construct(args) -> int:
    A = lower_bound_4general(args.n)
    d = args.n // 2
    comments = [
        f"construction: apn-cube-sidon-graph d={d}",
        f"base field GF(2^{d}) modulus_id={make_field(2, d).modulus_id}",
        "flattening: coefficient vectors, low degree first, x then f(x)",
    ]
    if args.n % 2 == 1:
        comments.append("odd n: embedded even construction, trailing coordinate 0")
    write_point_set(args.output or sys.stdout, A, 4, comments)
    print(f"wrote {len(A)} points in F_2^{args.n}", file=sys.stderr)
    return EXIT_OK


def cmd_bounds(args) -> int:
    field = _parse_q(args.q)
    reports = [bound_report(n, field.q, args.m) for n in args.n]
    if args.csv:
        sys.stdout.write(reports_to_csv(reports))
        return EXIT_OK
    for r in reports:
        print(f"n={r.n} q={r.q} m={r.m} k={r.k}")
        for label, value, note in (
            ("counting bound", r.main, ""),
            ("refined bound", r.refined, "  (largest x with L C(x, k) <= q^n)"),
            ("mu upper", r.mu_main, ""),
            ("bennett bound", r.bennett, f"  (t* = {_fmt(r.t_star)})"),
            ("mu bennett", r.mu_bennett, ""),
        ):
            print(f"  {label:<14} : {_fmt(value)}{note if value is not None else ''}")
    return EXIT_OK


def cmd_table(args) -> int:
    if args.which == 2:
        print("m  mu_upper (any prime power q)")
        for m, cell in table2_rows():
            print(f"{m}  {cell}")
        return EXIT_OK
    grid = table1_grid()
    header = "m\\q " + " ".join(f"{q:>5}" for q in TABLE1_Q_COLUMNS)
    print(header)
    for m in TABLE1_M_ROWS:
        cells = []
        for q in TABLE1_Q_COLUMNS:
            v = grid.get((m, q))
            cells.append(f"{v:.3f}"[1:] if v is not None else "     ")
        print(f"{m:<4}" + " ".join(f"{c:>5}" for c in cells))
    return EXIT_OK


def cmd_search(args) -> int:
    # the budget flags given; the exact search's own defaults stand for the others
    limits = {name: value for name in ("max_nodes", "max_seconds", "workers")
              if (value := getattr(args, name)) is not None}
    if args.greedy and limits:
        flags = ", ".join("--" + name.replace("_", "-") for name in limits)
        raise ValueError(f"--greedy is bounded by --restarts alone, not by {flags}")
    field = _parse_q(args.q)
    if args.greedy:
        cert = search_greedy(args.n, field, args.m, seed=args.seed, restarts=args.restarts)
    else:
        cert = search_exact(args.n, field, args.m, **limits)
    write_certificate(args.output or sys.stdout, cert)
    print(
        f"value={cert.value} exact={cert.exact} nodes={cert.nodes_explored}",
        file=sys.stderr,
    )
    if not args.greedy and not cert.exact:
        return EXIT_LIMITS
    return EXIT_OK


def cmd_check(args) -> int:
    cert = read_certificate(args.certfile)
    ok = verify_certificate(cert)
    print(f"certificate {'VALID' if ok else 'INVALID'}: "
          f"n={cert.n} q_spec={cert.q_spec} m={cert.m} value={cert.value} exact={cert.exact}")
    return EXIT_OK if ok else EXIT_FALSE


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The argument parser.  Every subcommand is registered with its name
    and help line, so top-level help, usage and errors never change; given
    argv, only the subcommands named by one of its tokens get their
    arguments (and -h).  argparse selects a subcommand by its exact name,
    so the one it parses argv with is always complete."""
    ap = argparse.ArgumentParser(
        prog="mgeneral",
        description="m-general sets in AG(n,q): verify, construct, bound, search.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument(
        "--moduli",
        metavar="PATH",
        help=f"modulus table file (overrides ${MODULUS_TABLE_ENV})",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    named = None if argv is None else set(argv)

    def command(name: str, help: str):
        """The subparser to fill in, or None for one argv does not name."""
        full = named is None or name in named
        p = sub.add_parser(name, help=help, add_help=full)
        return p if full else None

    if p := command("verify", "check a set file against the m-general oracles"):
        p.add_argument("setfile")
        p.add_argument("-m", type=int, default=None, help="override the file's m")
        p.add_argument("--oracle", choices=("arithmetic", "geometric", "both"), default="both")
        p.set_defaults(func=cmd_verify)

    if p := command("construct", "build the 4-general lower-bound set in F_2^n"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("-o", "--output", default=None, help="set file (default stdout)")
        p.set_defaults(func=cmd_construct)

    if p := command("bounds", "evaluate upper bounds at (n, q, m)"):
        p.add_argument("--q", required=True, help="prime power or p^d")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, nargs="+", required=True)
        p.add_argument("--csv", action="store_true")
        p.set_defaults(func=cmd_bounds)

    if p := command("table", "reproduce the published mu-bound tables"):
        p.add_argument("--which", type=int, choices=(1, 2), required=True)
        p.set_defaults(func=cmd_table)

    if p := command("search", "search for a maximum m-general set"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--greedy", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=1)
        # the budget flags default to None, so cmd_search tells a given flag from a left-out one
        p.add_argument("--max-nodes", type=int,
                       help="node budget of the whole exact search, shared equally by its spans")
        p.add_argument("--max-seconds", type=float)
        p.add_argument("--workers", type=int,
                       help="exact search over 4 x WORKERS spans in min(WORKERS, CPUs) processes")
        p.add_argument("-o", "--output", default=None, help="certificate file (default stdout)")
        p.set_defaults(func=cmd_search)

    if p := command("check", "re-verify a search certificate"):
        p.add_argument("certfile")
        p.set_defaults(func=cmd_check)

    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    saved = os.environ.get(MODULUS_TABLE_ENV)
    if args.moduli:
        os.environ[MODULUS_TABLE_ENV] = args.moduli
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if args.moduli:  # the override lasts this call only
            os.environ.pop(MODULUS_TABLE_ENV)
            if saved is not None:
                os.environ[MODULUS_TABLE_ENV] = saved


if __name__ == "__main__":
    sys.exit(main())
