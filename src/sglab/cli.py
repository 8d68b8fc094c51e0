"""Command-line front end.

One subcommand per operation plus the batch verifier.  The nine table
queries share one runner: it reads the .sg file, writes the query's
answer lines and turns the errors the query declares a false verdict
into exit 1.  Exit codes: 0 for answered queries and all-pass
verification, 1 when a verified property actually fails (bad table under
validate, non-congruence under quotient, any failing check under
verify), 2 for usage, parse, and I/O problems.
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
from .sweep import THEOREM_GROUPS, SweepConfig, SweepReport, iter_sweep

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


def _medial_lines(S, args) -> list[str]:
    ok, w = is_medial(S, parse_subset(args.set, S.order))
    if ok:
        return ["true"]
    x, a, b, y = w
    return [f"false witness x={x} a={a} b={b} y={y}"]


def _quotient_lines(S, args) -> list[str]:
    Q = quotient(S, _parse_partition(args.partition, S.order))
    return ["# projection " + " ".join(str(c) for c in Q.projection),
            *format_sg(Q.quotient).splitlines()]


def _permid_lines(S, args) -> list[str]:
    found = find_permutation_identity(S, args.max_n)
    if found is None:
        return [f"none found up to n={args.max_n}"]
    return [f"n={found.length} {format_permutation(found)}"]


def _lemma4_lines(S, args) -> list[str]:
    res = lemma4_minimal_k(S)
    if res.k is not None:
        return [f"k={res.k}"]
    return ["absent"] + [f"k={k} counterexample u={u} x={x} y={y} v={v}"
                         for k, (u, x, y, v) in res.counterexamples]


# The table queries, in the order --help lists them: the name, the help,
# the arguments after the file (a name or flag and its add_argument
# options each), the answer (the table and the parsed arguments to the
# output lines), and the errors that are a false verdict with its word.
_QUERIES = (
    ("validate", "check a Cayley table file for the semigroup axioms", (),
     lambda S, args: [f"valid: order {S.order}"], (NotAssociative, DuplicateLabel), "invalid"),
    ("sep", "separator of a subset", (("set", {"help": "subset literal, e.g. '{0,2}'"}),),
     lambda S, args: [format_subset(separator(S, parse_subset(args.set, S.order)))], (), ""),
    ("idealizer", "idealizer of a subset", (("set", {}),),
     lambda S, args: [format_subset(idealizer(S, parse_subset(args.set, S.order)))], (), ""),
    ("medial", "test whether a subset is medial", (("set", {}),), _medial_lines, (), ""),
    ("pcong", "congruence induced by a subset family",
     (("family", {"help": "semicolon-separated subsets, e.g. '{0};{1,2}'"}),),
     lambda S, args: [p_congruence(S, _parse_family(args.family, S.order)).literal()], (), ""),
    ("quotient", "quotient table by a congruence partition",
     (("partition", {"help": "partition literal, e.g. '{0,1};{2}'"}),),
     _quotient_lines, NotACongruence, "not a congruence"),
    ("congruences", "list all congruences of a small semigroup", (),
     lambda S, args: (c.literal() for c in enumerate_congruences(S)), (), ""),
    ("permid", "search for a permutation identity",
     (("--max-n", {"type": int, "default": 4, "dest": "max_n"}),), _permid_lines, (), ""),
    ("lemma4", "least k making middles swap between S^k contexts", (), _lemma4_lines, (), ""),
)


def _run_query(args) -> int:
    # The answer's lines all go out through one write path; an error the
    # query declares a false verdict exits 1, any other reaches
    # run_command.  A query with a verdict answers in full before it
    # returns, so a false verdict's line is the only one written.
    try:
        _write_lines(args.answer(read_sg(args.file), args))
    except args.refusals as e:
        print(f"{args.verdict}: {e}")
        return 1
    return 0


def cmd_enumerate(args) -> int:
    _write_lines(map(catalog_line, enumerate_semigroups(args.n, up_to_iso=args.up_to_iso)))
    return 0


def cmd_verify(args) -> int:
    if args.order is not None:
        lo = hi = args.order
    else:
        lo = _SWEEP.min_order
        hi = args.max_order if args.max_order is not None else _SWEEP.max_order
    cfg = SweepConfig(
        min_order=lo,
        max_order=hi,
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

    for name, summary, arguments, answer, refusals, verdict in _QUERIES:
        q = sub.add_parser(name, help=summary)
        q.add_argument("file")
        for flag, options in arguments:
            q.add_argument(flag, **options)
        q.set_defaults(fn=_run_query, answer=answer, refusals=refusals, verdict=verdict)

    q = sub.add_parser("enumerate", help="stream all semigroups of one order")
    q.add_argument("n", type=int)
    q.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    q.set_defaults(fn=cmd_enumerate)

    q = sub.add_parser("verify", help="run the verification sweep over the catalog")
    orders = q.add_mutually_exclusive_group()
    orders.add_argument("--order", type=int, default=None, help="exactly this order")
    orders.add_argument("--max-order", type=int, default=None, dest="max_order",
                        help=f"orders 1 through this bound (default {_SWEEP.max_order})")
    q.add_argument("--theorem", choices=THEOREM_GROUPS, default=_SWEEP.theorem)
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
