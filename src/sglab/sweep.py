"""Batch verification of the quotient and separator results over the
whole catalog of small semigroups.

Every catalog instance is pushed through the lemma checks (all subsets),
both directions of the commutative-monoid quotient theorem, the
separator corollary, and, when a permutation identity of length at most
4 is found, the permutative strengthenings.  Each check is asked of
the instance's class representative and its record rendered, once per
isomorphism class (see _plan); a labeled copy's records are the
representative's, picked by the copy's cases pulled back, and a report
with a witness is asked of the copy itself (see _Copy).  Output is a
stream of one-line records ordered by instance, byte-stable across
runs and across worker counts.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import re
import signal
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence

from .catalog import _labeled_count, _orbit_index, _relabeling, catalog_line
from .congruences import (
    Congruence,
    _class_bits,
    _first_appearance,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    enumerate_congruences,
    verify_corollary1,
    verify_theorem1_converse,
    verify_theorem1_forward,
)
from .core import ElementSet, FiniteSemigroup, _format_mask, _within_budget, memoized, validate
from .errors import StatusNotInvariant, WorkerDied
from .permutative import (
    PermutationIdentity,
    _theorem2_forward,
    find_permutation_identity,
    format_permutation,
    lemma4_minimal_k,
    verify_corollary2,
    verify_theorem2_converse,
)
from .reports import FAIL, CheckReport, failed, passed, unmet

__all__ = [
    "SweepConfig",
    "SweepReport",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "iter_sweep",
    "run_sweep",
]

THEOREM_GROUPS = ("all", "1", "2", "cor1", "cor2", "lemmas")

# One instance's output: its record lines, each ending in a newline,
# its per-(check, status) counts and its fail lines.
Instance = tuple[str, Counter, list[str]]

# Instances per message from a worker process: 8 to 32 run the order-4
# sweep equally fast, a larger chunk holds more records in the parent,
# which holds one chunk per worker, and 16 starts no worker for the 9
# tables of orders 1-2.
_CHUNK = 16

# Measured cost of the default sweep per labeled table: 0.75 ms
# (verify-o4, 1.89-2.72 s end to end over the 3614 tables of orders 1-4
# in 5 runs; 2-vCPU Xeon VM, Python 3.11, serial).  Each class is
# answered and rendered once and its copies assembled from that, so the
# cost is an average over the 218 classes and their copies.  Orders 1-4
# are estimated at 2.7 s and accepted; a range that includes order 5
# (138 s for its tables alone) is refused.  The estimate stays serial,
# whatever the CPU count, so whether a sweep is refused never depends on
# the machine.
_INSTANCE_SECONDS = 0.75e-3

# The longest permutation identity the sweep searches for.  A longer
# search changes no verdict at the orders the sweep accepts: of the
# isomorphism classes with no identity up to length 4 (2 at order 3, 34
# at order 4, 609 at order 5), none has one of length 5-8 at orders 3-4
# or of length 5-6 at order 5.  A shorter one would drop checks.  The
# length-4 search is refused only above order 90, so no sweep meets a
# refusal.
_IDENTITY_LENGTH = 4


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepConfig:
    """Knobs for one catalog sweep.

    min_order/max_order bound the catalog; random_families adds that
    many seeded multi-set families per permutative instance to the
    theorem 2 families, drawn from seed; parallelism caps the worker
    processes (default every usable CPU; 1 runs the sweep in this
    process); theorem picks the check group (one of THEOREM_GROUPS).
    """

    min_order: int = 1
    max_order: int = 4
    random_families: int = 20
    seed: int = 0
    parallelism: int = field(default_factory=_usable_cpus)
    theorem: str = "all"

    def __post_init__(self):
        if not 1 <= self.min_order <= self.max_order:
            raise ValueError("need 1 <= min_order <= max_order")
        if self.theorem not in THEOREM_GROUPS:
            raise ValueError(f"theorem must be one of {THEOREM_GROUPS}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.random_families < 0:
            raise ValueError("random_families cannot be negative")


class SweepReport:
    """Per-(check, status) counts and fail lines of the instances seen so far.

    ``records`` holds the record lines only where the caller keeps them:
    ``run_sweep`` does, ``verify`` writes them out instead.
    """

    def __init__(self):
        self.instances = 0
        self.records: list[str] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.fails: list[str] = []

    def add(self, instance: Instance) -> str:
        """Count one instance and return its record text."""
        text, counts, fails = instance
        self.instances += 1
        self.counts.update(counts)
        self.fails += fails
        return text

    def summary_lines(self) -> list[str]:
        n_pass = sum(v for (_, st), v in self.counts.items() if st == "pass")
        n_unmet = sum(v for (_, st), v in self.counts.items() if st == "precondition-unmet")
        n_fail = len(self.fails)
        lines = [
            f"instances: {self.instances}",
            f"checks: pass={n_pass} precondition-unmet={n_unmet} fail={n_fail}",
        ]
        for (check, status), v in sorted(self.counts.items()):
            lines.append(f"  {check}: {status}={v}")
        return lines


def _table_hash(S: FiniteSemigroup) -> str:
    return hashlib.sha256(catalog_line(S).encode()).hexdigest()[:12]


def _random_families(cfg: SweepConfig, order: int, idx: int) -> list[tuple[int, ...]]:
    # Each family as the bit masks of its 2-3 sets.  One generator per
    # instance, keyed by seed, order, and catalog position, so results
    # never depend on worker scheduling.
    rng = random.Random(f"{cfg.seed}:{order}:{idx}")
    return [
        tuple(rng.randrange(1 << order) for _ in range(rng.randint(2, 3)))
        for _ in range(cfg.random_families)
    ]


def _family_bits(case: int | tuple[int, ...]) -> tuple[int, ...]:
    """The masks of a case's theorem family: a mask's one set, a partition's classes."""
    return (case,) if type(case) is int else _class_bits(case)


def _family(n: int, case: int | tuple[int, ...]) -> list[ElementSet]:
    return [ElementSet._from_bits(n, bits) for bits in _family_bits(case)]


def _identity_report(ident: PermutationIdentity | None) -> CheckReport:
    if ident is None:
        return unmet("permutation-identity", f"no identity found up to length {_IDENTITY_LENGTH}")
    return passed("permutation-identity", f"n={ident.length} {format_permutation(ident)}")


def _lemma4_report(T: FiniteSemigroup) -> CheckReport:
    res = lemma4_minimal_k(T)
    if res.k is not None:
        return passed("lemma4", f"k={res.k}")
    k, w = res.counterexamples[0]
    return failed("lemma4", tuple(zip("kuxyv", (k, *w))),
                  "no exponent works along the whole power chain")


# Each check the sweep asks, as a function of a table, a case and the
# table's permutation identity (None where none was found).  A case is
# a subset's mask, a partition's class_of, or None for a whole-table
# check.
_CHECKS = {
    "lemma1": lambda T, bits, _: check_lemma1(T, ElementSet._from_bits(T.order, bits)),
    "lemma2": lambda T, bits, _: check_lemma2(T, ElementSet._from_bits(T.order, bits)),
    "lemma3": lambda T, bits, _: check_lemma3(T, ElementSet._from_bits(T.order, bits)),
    "corollary1": lambda T, bits, _: verify_corollary1(T, ElementSet._from_bits(T.order, bits)),
    "theorem1-forward": lambda T, case, _: verify_theorem1_forward(T, _family(T.order, case)),
    "theorem1-converse": lambda T, cls, _: verify_theorem1_converse(
        T, Congruence._from_rgs(T.order, cls)),
    "permutation-identity": lambda T, _, ident: _identity_report(ident),
    "lemma4": lambda T, _, ident: _lemma4_report(T),
    "theorem2-forward": lambda T, case, ident: _theorem2_forward(T, _family_bits(case), ident),
    "theorem2-converse": lambda T, cls, ident: verify_theorem2_converse(
        T, Congruence._from_rgs(T.order, cls), ident),
    "corollary2": lambda T, bits, ident: verify_corollary2(
        T, ElementSet._from_bits(T.order, bits), ident),
}


class _Rendered(NamedTuple):
    """One check's records on a class representative R, one per key of
    its span, in R's key order (see _plan)."""

    check: str
    # Each record's text from "check=" on, with its newline.
    texts: list[str]
    # The keys whose report has no witness but subset literals in its detail.
    pushes: list[int]
    # The keys whose report has a witness, each with R's status.
    asks: dict[int, str]


class _Plan(NamedTuple):
    """A class representative's rendered records for one theorem group.

    steps are the group's checks in record order, each as a span and
    the checks rendered over it, whose records interleave case by case;
    None marks where the random families go.  counts are the (check,
    status) counts over every record but the random families', which
    every labeled copy of the class shares.
    """

    steps: list[tuple[str, list[_Rendered]] | None]
    counts: Counter
    congruences: list[tuple[int, ...]]
    identity: PermutationIdentity | None


@memoized("plan")
def _plan(R: FiniteSemigroup, group: str) -> _Plan:
    """Ask R every check of a theorem group once and render each record.

    A span is the keys a check runs over: "subsets" (every mask),
    "congruences" (R's congruences by enumeration index j) and "table"
    (the one key 0 of a whole-table check).  A forward theorem runs over
    every subset's one-set family, then every congruence's classes.
    """
    wants = (group,) if group != "all" else THEOREM_GROUPS
    congruences = ([sigma.class_of for sigma in enumerate_congruences(R)]
                   if "1" in wants or "2" in wants else [])
    identity = (find_permutation_identity(R, _IDENTITY_LENGTH)
                if "2" in wants or "cor2" in wants else None)
    cases = {"subsets": range(1 << R.order), "congruences": congruences, "table": [None]}
    steps: list = []
    counts: Counter = Counter()

    def render(span: str, *checks: str) -> None:
        rendered = []
        for check in checks:
            texts, pushes, asks = [], [], {}
            for key, case in enumerate(cases[span]):
                rep = _CHECKS[check](R, case, identity)
                if rep.witness is not None:
                    asks[key] = rep.status
                elif "{" in rep.detail:
                    pushes.append(key)
                texts.append(rep.record() + "\n")
                counts[check, rep.status] += 1
            rendered.append(_Rendered(check, texts, pushes, asks))
        steps.append((span, rendered))

    if "lemmas" in wants:
        render("subsets", "lemma1", "lemma2", "lemma3")
    if "cor1" in wants:
        render("subsets", "corollary1")
    if "1" in wants:
        render("subsets", "theorem1-forward")
        render("congruences", "theorem1-forward")
        render("congruences", "theorem1-converse")
    if "2" in wants or "cor2" in wants:
        render("table", "permutation-identity")
        if identity is not None and "2" in wants:
            render("table", "lemma4")
            render("subsets", "theorem2-forward")
            render("congruences", "theorem2-forward")
            steps.append(None)
            render("congruences", "theorem2-converse")
        if identity is not None and "cor2" in wants:
            render("subsets", "corollary2")
    return _Plan(steps, counts, congruences, identity)


@lru_cache(maxsize=1 << 12)
def _pushed_partition(class_of: tuple[int, ...], q: Sequence[int]) -> tuple[int, ...]:
    """The class_of of the partition ``class_of`` of R on the table that
    relabeling q makes of R, as in _Copy; built once per partition and q."""
    return _first_appearance([class_of[x] for x in q])


@lru_cache(maxsize=1 << 12)
def _partition_literal(class_of: tuple[int, ...]) -> str:
    """The literal "{0};{1,2}" of a canonical class_of, built once per partition."""
    return Congruence._from_rgs(len(class_of), class_of).literal()


# A subset literal in a record's detail, as _format_mask writes it.
_MASK_LITERAL = re.compile(r"\{[\d,]*\}")


class _Span(NamedTuple):
    """A labeled table's cases of one span, in its own order: the
    representative's key of each, its literal and record head, the
    position of each representative key, and the table's own case."""

    keys: list[int]
    literals: list[str]
    heads: list[str]
    where: list[int]
    cases: Sequence


class _Copy:
    """A labeled table S, answered through its class representative R.

    q is the relabeling that makes S of R: S labels i the element q[i]
    of R.  A case of S, a subset's mask or a partition, is pulled back
    through q to R's key, and S's record is R's rendered one for that
    key.  Every notion the checks test is defined up to relabeling, so
    a report without a witness holds for S as it stands once each
    subset literal in its detail is pushed forward to S's labels.  A
    witness is the lexicographically first, which a relabeling does not
    keep, so a report with a witness is asked of S itself, and must keep
    R's status, which the sweep counts for every copy.  With R = S and q
    the identity nothing moves, and nothing is asked twice.
    """

    def __init__(self, S: FiniteSemigroup, R: FiniteSemigroup, q: Sequence[int]):
        self.S, self.R, self.q = S, R, q
        # pull[b] is R's mask of S's subset with mask b.
        pull = [0] * (1 << S.order)
        for b in range(1, len(pull)):
            low = b & -b
            pull[b] = pull[b ^ low] | 1 << q[low.bit_length() - 1]
        self.pull = pull
        self.moves: dict[str, str] = {}

    @cached_property
    def literals(self) -> dict[str, str]:
        """S's literal of each of R's subset literals."""
        return {_format_mask(r): _format_mask(b) for b, r in enumerate(self.pull)}

    def moved(self, text: str) -> str:
        """R's witness-free record text as S's: its subset literals moved."""
        if "{" not in text or self.S is self.R:
            return text
        moved = self.moves.get(text)
        if moved is None:
            literals = self.literals
            moved = self.moves[text] = _MASK_LITERAL.sub(lambda m: literals[m[0]], text)
        return moved

    def lines(self, rendered: _Rendered, span: _Span,
              identity: PermutationIdentity | None) -> list[str]:
        """S's record lines of one rendered check, in S's case order."""
        texts, heads, where = rendered.texts, span.heads, span.where
        out = [h + texts[k] for h, k in zip(heads, span.keys)]
        if self.S is self.R:
            return out
        for k in rendered.pushes:
            i = where[k]
            out[i] = heads[i] + self.moved(texts[k])
        for k, status in rendered.asks.items():
            i = where[k]
            rep = _CHECKS[rendered.check](self.S, span.cases[i], identity)
            if rep.status != status:
                raise StatusNotInvariant(_table_hash(self.S), rendered.check, span.literals[i],
                                         status, rep.status)
            out[i] = heads[i] + rep.record() + "\n"
        return out


def _spans(copy: _Copy, prefix: str, plan: _Plan) -> dict[str, _Span]:
    """S's spans, each case beside its record head and R's key."""
    pull = copy.pull
    base = len(pull)
    # S's congruences are R's pushed forward, in S's enumeration (RGS)
    # order, each beside its index in R's.
    congruences = sorted((_pushed_partition(cls, copy.q), j)
                         for j, cls in enumerate(plan.congruences))
    cong_cases = [cls for cls, _ in congruences]
    cong_keys = [j for _, j in congruences]
    push = [0] * base
    for b, r in enumerate(pull):
        push[r] = b
    cong_where = [0] * len(cong_keys)
    for i, j in enumerate(cong_keys):
        cong_where[j] = i
    subset_literals = list(map(_format_mask, range(base)))
    cong_literals = list(map(_partition_literal, cong_cases))
    subset_heads = [f"{prefix}{lit} " for lit in subset_literals]
    cong_heads = [f"{prefix}{lit} " for lit in cong_literals]
    return {
        "subsets": _Span(pull, subset_literals, subset_heads, push, range(base)),
        "congruences": _Span(cong_keys, cong_literals, cong_heads, cong_where, cong_cases),
        "table": _Span([0], ["-"], [f"{prefix}- "], [0], [None]),
    }


def _instance(
    cfg: SweepConfig,
    order: int,
    idx: int,
    S: FiniteSemigroup,
    R: FiniteSemigroup | None = None,
    q: Sequence[int] | None = None,
) -> Instance:
    """One catalog instance's record text, (check, status) counts and
    fail lines.

    R is S's class representative and q the relabeling that makes S of
    it, as in _Copy; left out, R is S and q the identity.  The cases,
    their literals and their order are S's own.
    """
    if R is None:
        R, q = S, range(order)
    plan = _plan(R, cfg.theorem)
    copy = _Copy(S, R, q)
    prefix = f"order={order} table={_table_hash(S)} case="
    spans = _spans(copy, prefix, plan)
    counts = Counter(plan.counts)
    lines: list[str] = []
    for step in plan.steps:
        if step is None:
            lines += _random_lines(cfg, order, idx, copy, prefix, plan.identity, counts)
            continue
        span, rendered = step
        columns = [copy.lines(r, spans[span], plan.identity) for r in rendered]
        if len(columns) == 1:
            lines += columns[0]
        else:
            for row in zip(*columns):
                lines += row
    fails = []
    if any(status == FAIL for _, status in counts):
        # A case literal holds no space, so the fifth field is the status.
        fails = [line[:-1] for line in lines if line.split(" ", 5)[4] == f"status={FAIL}"]
    return "".join(lines), counts, fails


def _random_lines(cfg: SweepConfig, order: int, idx: int, copy: _Copy, prefix: str,
                  identity: PermutationIdentity, counts: Counter) -> list[str]:
    """S's theorem 2 forward records on its random families, counted into counts.

    Each family is asked of R once, at its masks pulled back, and not
    stored; a report with a witness is asked of S itself and must keep
    R's status, as in _Copy.
    """
    R, S, pull = copy.R, copy.S, copy.pull
    out = []
    for masks in _random_families(cfg, order, idx):
        literal = ";".join(map(_format_mask, masks))
        rep = _theorem2_forward(R, [pull[m] for m in masks], identity)
        if rep.witness is None:
            text = copy.moved(rep.record())
        else:
            if S is not R:
                status, rep = rep.status, _theorem2_forward(S, masks, identity)
                if rep.status != status:
                    raise StatusNotInvariant(_table_hash(S), rep.check, literal,
                                             status, rep.status)
            text = rep.record()
        counts[rep.check, rep.status] += 1
        out.append(f"{prefix}{literal} {text}\n")
    return out


def _instance_worker(item: tuple[SweepConfig, int, int, FiniteSemigroup, int]) -> Instance:
    # The item carries S's class representative and the index of the
    # relabeling that makes S of it.
    cfg, order, idx, R, k = item
    S, q = _relabeling(R, k)
    return _instance(cfg, order, idx, S, R, q)


def iter_sweep(cfg: SweepConfig) -> Iterator[Instance]:
    """Each catalog instance's record text, (check, status) counts and
    fail lines, in catalog order.

    Instances come as they are done, so a consumer that writes and
    drops them holds a few instances' records at a time.  The bytes
    are the same for every parallelism.  A sweep whose labeled tables
    are estimated over ten seconds (any that includes order 5) raises
    WorkBudgetExceeded from this call, before any table is built.  No
    more worker processes start than there are usable CPUs or chunks of
    instances; close the iterator to stop a parallel sweep early.
    """
    orders = range(cfg.min_order, cfg.max_order + 1)
    tables = sum(map(_labeled_count, orders))
    _within_budget(f"the sweep of {tables:,} labeled tables", tables * _INSTANCE_SECONDS)
    items, classes = [], []
    for order in orders:
        canonical, index = _orbit_index(order)
        # Fresh representatives, so their memos last only this sweep.
        reps = [validate(t) for t in canonical]
        items += [(cfg, order, idx, reps[i], k) for idx, (i, k) in enumerate(index)]
        classes += [i for i, _ in index]
    chunks = -(-len(items) // _CHUNK)
    workers = min(cfg.parallelism, _usable_cpus(), chunks)
    # Where there is no fork (Windows), the sweep runs in this process.
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        return _forked(items, [i % workers for i in classes], workers)
    return (_instance_worker(item) for item in items)


def _forked(items: list, owners: list[int], workers: int) -> Iterator[Instance]:
    # Each class belongs to one worker (owners[pos] is the worker of
    # item pos), so its plan is built once.  Worker w sweeps only its
    # own items, in catalog order, and sends them _CHUNK instances per
    # message down its own pipe.  The parent walks the catalog and takes
    # each instance from its owner's current chunk, reading the owner's
    # next message only once that chunk is used up; a worker whose pipe
    # is full waits in send, so the parent holds at most one chunk per
    # worker.  Fork, not spawn: the workers inherit their items, so
    # nothing is pickled on the way out, and the parent runs no thread
    # that a fork could catch mid-operation.
    ctx = multiprocessing.get_context("fork")
    readers, procs = [], []

    def received(w: int) -> Iterator[Instance]:
        while True:
            try:
                error, instances = readers[w].recv()
            except (EOFError, OSError):
                # The parent reads only while worker w owes it an
                # instance: any end of file is a death, whatever the
                # exit code.
                procs[w].join(timeout=5)
                raise WorkerDied(w, procs[w].exitcode) from None
            if error is not None:
                raise error
            yield from instances

    try:
        for w in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            mine = [item for item, owner in zip(items, owners) if owner == w]
            proc = ctx.Process(target=_work, args=(mine, writer, readers), daemon=True)
            proc.start()
            procs.append(proc)
            # Only the worker may hold the write end, or its death
            # would never reach the reader as end of file.
            writer.close()
        streams = [received(w) for w in range(workers)]
        for w in owners:
            yield next(streams[w])
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for reader in readers:
            reader.close()


def _work(items: list, writer, readers) -> None:
    # A worker holds only its own pipe's write end, so it can block only
    # in send, where a dead parent wakes it with BrokenPipeError, which
    # ends the worker quietly.  Ctrl-C is the parent's to handle.
    for reader in readers:
        reader.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for i in range(0, len(items), _CHUNK):
        try:
            message = None, [_instance_worker(item) for item in items[i:i + _CHUNK]]
        except Exception as e:  # raised again in the parent, in catalog order
            message = e, None
        try:
            writer.send(message)
        except BrokenPipeError:
            return


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run every configured check over the catalog and keep every record.

    Records keep catalog order regardless of parallelism, so two sweeps
    with the same config are byte-identical.
    """
    rep = SweepReport()
    for instance in iter_sweep(cfg):
        rep.records += rep.add(instance).splitlines()
    return rep
