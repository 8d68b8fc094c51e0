"""Command-line front end.

One subcommand per operation plus the batch verifier.  Exit codes: 0 for
answered queries and all-pass verification, 1 when a verified property
actually fails (bad table under validate, non-congruence under quotient,
any failing check under verify), 2 for usage, parse, and I/O problems.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from itertools import islice
from typing import Iterable, Sequence

from .catalog import catalog_line, enumerate_semigroups
from .congruences import Congruence, enumerate_congruences, p_congruence, quotient
from .core import format_sg, read_sg
from .errors import DuplicateLabel, NotACongruence, NotAssociative
from .permutative import find_permutation_identity, format_permutation, lemma4_minimal_k
from .subsets import format_subset, idealizer, is_medial, parse_subset, separator
from .sweep import FAMILY_MODES, THEOREM_GROUPS, SweepConfig, SweepReport, iter_sweep

__all__ = ["run_command", "main"]

# Long outputs go out this many lines per write.
_LINES_PER_WRITE = 4096

# The verify flags' defaults are the sweep's own.
_SWEEP = SweepConfig()


def _parse_family(text: str, ambient: int):
    text = text.strip()
    if not text:
        return []
    return [parse_subset(part, ambient) for part in text.split(";")]


def _parse_partition(text: str, ambient: int) -> Congruence:
    parts = [parse_subset(p, ambient).members for p in text.split(";")]
    return Congruence.from_classes(ambient, parts)


def _write_lines(lines: Iterable[str]) -> None:
    # Lines go out as they come, in writes of a fixed number of lines:
    # one write per line costs more than the work behind most lines, and
    # holding every line until the end would make the whole output
    # resident.
    lines = iter(lines)
    while chunk := list(islice(lines, _LINES_PER_WRITE)):
        sys.stdout.write("\n".join(chunk) + "\n")


def cmd_validate(args) -> int:
    try:
        S = read_sg(args.file)
    except (NotAssociative, DuplicateLabel) as e:
        print(f"invalid: {e}")
        return 1
    print(f"valid: order {S.order}")
    return 0


def cmd_sep(args) -> int:
    S = read_sg(args.file)
    print(format_subset(separator(S, parse_subset(args.set, S.order))))
    return 0


def cmd_idealizer(args) -> int:
    S = read_sg(args.file)
    print(format_subset(idealizer(S, parse_subset(args.set, S.order))))
    return 0


def cmd_medial(args) -> int:
    S = read_sg(args.file)
    ok, w = is_medial(S, parse_subset(args.set, S.order))
    if ok:
        print("true")
    else:
        x, a, b, y = w
        print(f"false witness x={x} a={a} b={b} y={y}")
    return 0


def cmd_pcong(args) -> int:
    S = read_sg(args.file)
    family = _parse_family(args.family, S.order)
    print(p_congruence(S, family).literal())
    return 0


def cmd_quotient(args) -> int:
    S = read_sg(args.file)
    part = _parse_partition(args.partition, S.order)
    try:
        Q = quotient(S, part)
    except NotACongruence as e:
        print(f"not a congruence: {e}")
        return 1
    print("# projection " + " ".join(str(c) for c in Q.projection))
    sys.stdout.write(format_sg(Q.quotient))
    return 0


def cmd_congruences(args) -> int:
    S = read_sg(args.file)
    _write_lines(c.literal() for c in enumerate_congruences(S))
    return 0


def cmd_permid(args) -> int:
    S = read_sg(args.file)
    found = find_permutation_identity(S, args.max_n)
    if found is None:
        print(f"none found up to n={args.max_n}")
    else:
        print(f"n={found.length} {format_permutation(found)}")
    return 0


def cmd_lemma4(args) -> int:
    S = read_sg(args.file)
    res = lemma4_minimal_k(S)
    if res.k is not None:
        print(f"k={res.k}")
    else:
        print("absent")
        for k, (u, x, y, v) in res.counterexamples:
            print(f"k={k} counterexample u={u} x={x} y={y} v={v}")
    return 0


def cmd_enumerate(args) -> int:
    _write_lines(map(catalog_line, enumerate_semigroups(args.n, up_to_iso=args.up_to_iso)))
    return 0


def cmd_verify(args) -> int:
    if args.order is not None and args.max_order is not None:
        print("error: give --order or --max-order, not both", file=sys.stderr)
        return 2
    if args.order is not None:
        lo = hi = args.order
    else:
        lo = _SWEEP.min_order
        hi = args.max_order if args.max_order is not None else _SWEEP.max_order
    cfg = SweepConfig(
        min_order=lo,
        max_order=hi,
        n_max_permutation=args.n_max_perm,
        family_mode=args.family_mode,
        random_families=args.random_families,
        seed=args.seed,
        parallelism=args.jobs,
        theorem=args.theorem,
    )
    rep = SweepReport()
    # Closing the sweep on the way out, also when the reader hangs up,
    # stops its workers there and then.  Each instance's records go out
    # in one write as soon as it arrives.
    with contextlib.closing(iter_sweep(cfg)) as instances:
        for instance in instances:
            text = rep.add(instance)
            if args.structured:
                sys.stdout.write(text)
    if not args.structured:
        for line in rep.summary_lines():
            print(line)
        for line in rep.fails:
            print(f"FAIL {line}")
    return 1 if rep.fails else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sglab",
        description="finite semigroup workbench: separators, induced congruences, "
        "quotients, and batch verification over exhaustive catalogs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a Cayley table file for the semigroup axioms")
    q.add_argument("file")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("sep", help="separator of a subset")
    q.add_argument("file")
    q.add_argument("set", help="subset literal, e.g. '{0,2}'")
    q.set_defaults(fn=cmd_sep)

    q = sub.add_parser("idealizer", help="idealizer of a subset")
    q.add_argument("file")
    q.add_argument("set")
    q.set_defaults(fn=cmd_idealizer)

    q = sub.add_parser("medial", help="test whether a subset is medial")
    q.add_argument("file")
    q.add_argument("set")
    q.set_defaults(fn=cmd_medial)

    q = sub.add_parser("pcong", help="congruence induced by a subset family")
    q.add_argument("file")
    q.add_argument("family", help="semicolon-separated subsets, e.g. '{0};{1,2}'")
    q.set_defaults(fn=cmd_pcong)

    q = sub.add_parser("quotient", help="quotient table by a congruence partition")
    q.add_argument("file")
    q.add_argument("partition", help="partition literal, e.g. '{0,1};{2}'")
    q.set_defaults(fn=cmd_quotient)

    q = sub.add_parser("congruences", help="list all congruences of a small semigroup")
    q.add_argument("file")
    q.set_defaults(fn=cmd_congruences)

    q = sub.add_parser("permid", help="search for a permutation identity")
    q.add_argument("file")
    q.add_argument("--max-n", type=int, default=4, dest="max_n")
    q.set_defaults(fn=cmd_permid)

    q = sub.add_parser("lemma4", help="least k making middles swap between S^k contexts")
    q.add_argument("file")
    q.set_defaults(fn=cmd_lemma4)

    q = sub.add_parser("enumerate", help="stream all semigroups of one order")
    q.add_argument("n", type=int)
    q.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    q.set_defaults(fn=cmd_enumerate)

    q = sub.add_parser("verify", help="run the verification sweep over the catalog")
    q.add_argument("--order", type=int, default=None, help="exactly this order")
    q.add_argument("--max-order", type=int, default=None, dest="max_order",
                   help=f"orders 1 through this bound (default {_SWEEP.max_order})")
    q.add_argument("--theorem", choices=THEOREM_GROUPS, default=_SWEEP.theorem)
    q.add_argument("--family-mode", choices=FAMILY_MODES, default=_SWEEP.family_mode,
                   dest="family_mode")
    q.add_argument("--n-max-perm", type=int, default=_SWEEP.n_max_permutation,
                   dest="n_max_perm")
    q.add_argument("--random-families", type=int, default=_SWEEP.random_families,
                   dest="random_families")
    q.add_argument("--seed", type=int, default=_SWEEP.seed)
    q.add_argument("--jobs", type=int, default=_SWEEP.parallelism,
                   help="worker processes, at most one per usable CPU "
                   "(default: every usable CPU; 1 runs serially)")
    q.add_argument("--structured", action="store_true",
                   help="emit one record line per check instead of a summary")
    q.set_defaults(fn=cmd_verify)

    return p


def run_command(argv: Sequence[str]) -> int:
    """Parse and run one command line; never raises for user mistakes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        code = e.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream consumer (head, etc.) closed the stream; not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
