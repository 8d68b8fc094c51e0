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
import os
import random
import re
import signal
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add
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
from .reports import FAIL, PASS, UNMET, CheckReport, failed, passed, unmet

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
# its per-(check, status) counts as a tally (see _TALLY) and its fail
# lines.
Instance = tuple[str, tuple[int, ...], list[str]]

# Instances per message from a worker process: 8 to 32 run the order-4
# sweep equally fast, a larger chunk holds more records in the parent,
# which holds one chunk per worker, and 16 starts no worker for the 9
# tables of orders 1-2.
_CHUNK = 16

# Measured cost of the sweep per labeled table, and per random family of
# a permutative instance, on a 2-vCPU Xeon VM with Python 3.11, serial:
# the sweep of the 3614 tables of orders 1-4 with no random families
# takes 0.94-1.10 s end to end (0.26-0.30 ms per table, 5 runs), and each
# family adds 2.9-3.0 us per permutative instance (3024 at orders 1-4;
# in-process sweeps with 0, 100 and 1000 families, 5 runs each).  Each
# class is answered and rendered once and its copies assembled from that,
# so the table cost is an average over the 218 classes and their copies.
# The estimate counts the families on every table, permutative or not,
# but only where the group checks theorem 2 and so draws them.
# Orders 1-4 are estimated at 1.3 s with the default 20 families and at
# 2.2 s with 100, and accepted; a range that includes order 5 (55 s for
# its tables alone) is refused, and so are more than about 820 families
# at orders 1-4.  The estimate stays serial, whatever the CPU count, so
# whether a sweep is refused never depends on the machine.
_INSTANCE_SECONDS = 0.3e-3
_FAMILY_SECONDS = 3e-6

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
        self._tally = (0,) * len(_TALLY)
        self.fails: list[str] = []

    def add(self, instance: Instance) -> str:
        """Count one instance and return its record text."""
        text, tally, fails = instance
        self.instances += 1
        self._tally = tuple(map(add, self._tally, tally))
        self.fails += fails
        return text

    @property
    def counts(self) -> Counter[tuple[str, str]]:
        """The (check, status) counts that are not zero."""
        return Counter({key: v for key, v in zip(_TALLY, self._tally) if v})

    def summary_lines(self) -> list[str]:
        counts = self.counts
        n_pass = sum(v for (_, st), v in counts.items() if st == PASS)
        n_unmet = sum(v for (_, st), v in counts.items() if st == UNMET)
        n_fail = len(self.fails)
        lines = [
            f"instances: {self.instances}",
            f"checks: pass={n_pass} precondition-unmet={n_unmet} fail={n_fail}",
        ]
        for (check, status), v in sorted(counts.items()):
            lines.append(f"  {check}: {status}={v}")
        return lines


def _table_hash(S: FiniteSemigroup) -> str:
    return hashlib.sha256(catalog_line(S).encode()).hexdigest()[:12]


def _random_families(cfg: SweepConfig, order: int, idx: int) -> list[list[int]]:
    """The instance's random families, each as the list of the bit masks
    of its 2-3 sets: what ``[[rng.randrange(1 << order) for _ in
    range(rng.randint(2, 3))] for _ in range(cfg.random_families)]``
    draws.  One generator per instance, keyed by seed, order, and catalog
    position, so results never depend on worker scheduling.

    The draw decodes the generator's 32-bit outputs (Matsumoto and
    Nishimura, "Mersenne Twister", ACM TOMACS 1998), taken in bulk, as
    CPython's randint(2, 3) and randrange(1 << order) consume them (its
    _randbelow_with_getrandbits, 3.8-3.13): each try takes one output
    and keeps its top 2 bits for the set count, its top order + 1 for a
    mask, and is tried again when the first of those is set.  So the
    tries that are kept are the outputs below 2**31, in order, and each
    is read as the mask ``output >> (31 - order)``, whose top bit is the
    count's (0 for 2 sets, 1 for 3).  A mask of more than 31 elements
    would take more than one output; the sweep stops at order 4.
    """
    rng = random.Random(f"{cfg.seed}:{order}:{idx}")
    wanted, shift, top = cfg.random_families, 31 - order, order - 1
    kept: list[int] = []
    families: list[list[int]] = []
    at = 0
    while len(families) < wanted:
        # A family takes at most 4 kept outputs, and about 7 outputs
        # are drawn per family kept.
        while at + 4 > len(kept):
            kept = kept[at:] + _kept_outputs(rng, 7 * (wanted - len(families)) + 8, shift)
            at = 0
        end = at + 3 + (kept[at] >> top)
        families.append(kept[at + 1:end])
        at = end
    return families


def _kept_outputs(rng: random.Random, m: int, shift: int) -> list[int]:
    """Of rng's next m outputs, those below 2**31, each shifted right by
    shift.  getrandbits(32 * m) holds m outputs, the i-th in bits 32i to
    32i + 31, on every platform."""
    words = struct.unpack(f"<{m}I", rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
    return [w >> shift for w in words if w < 0x80000000]


def _family_bits(case: int | list[int] | tuple[int, ...]) -> Sequence[int]:
    """The masks of a case's theorem family: a mask's one set, a random
    family's own masks (a list), a partition's classes (its class_of, a
    tuple).  The tuple (0, 1) is both an order-2 class_of and a 2-set
    family, so only a list is read as a family."""
    if type(case) is int:
        return (case,)
    return case if type(case) is list else _class_bits(case)


def _family(n: int, case: int | list[int] | tuple[int, ...]) -> list[ElementSet]:
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
# a subset's mask, a partition's class_of, a random family's list of
# masks, or None for a whole-table check.
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
    "theorem2-forward": lambda T, case, ident: _theorem2_forward(T, [_family_bits(case)], ident)[0],
    "theorem2-converse": lambda T, cls, ident: verify_theorem2_converse(
        T, Congruence._from_rgs(T.order, cls), ident),
    "corollary2": lambda T, bits, ident: verify_corollary2(
        T, ElementSet._from_bits(T.order, bits), ident),
}

# Every (check, status) pair, in a fixed order.  An instance's counts
# travel as a tally, one int per pair, which is summed and pickled at
# less cost than a Counter.
_TALLY = tuple((check, status) for check in _CHECKS for status in (PASS, UNMET, FAIL))
_SLOT = {key: i for i, key in enumerate(_TALLY)}
_FAIL_SLOTS = [_SLOT[check, FAIL] for check in _CHECKS]


class _Rendered(NamedTuple):
    """One check's records on a class representative R, one per key of
    its span, in R's key order (see _render)."""

    check: str
    # Each record's text from "check=" on, with its newline.
    texts: list[str]
    # The keys whose report has no witness but subset literals in its detail.
    pushes: list[int]
    # The keys whose report has a witness, each with R's status.
    asks: dict[int, str]


def _render(check: str, reports: Sequence[CheckReport], tally: list[int]) -> _Rendered:
    """One check's records of reports, one per key, each distinct report
    rendered once, and each report's status counted into tally (see
    _TALLY).  A report is known by its id, which stays its own while
    reports holds it."""
    texts, pushes, asks = [], [], {}
    rendered: dict[int, str] = {}
    for key, rep in enumerate(reports):
        text = rendered.get(id(rep))
        if text is None:
            text = rendered[id(rep)] = rep.record() + "\n"
        texts.append(text)
        if rep.witness is not None:
            asks[key] = rep.status
        elif "{" in rep.detail:
            pushes.append(key)
        tally[_SLOT[check, rep.status]] += 1
    return _Rendered(check, texts, pushes, asks)


class _Plan(NamedTuple):
    """A class representative's rendered records for one theorem group.

    steps are the group's checks in record order, each as a span and
    the checks rendered over it, whose records interleave case by case;
    None marks where the random families go.  tally holds the (check,
    status) counts over every record but the random families', which
    every labeled copy of the class shares (see _TALLY).
    """

    steps: list[tuple[str, list[_Rendered]] | None]
    tally: tuple[int, ...]
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
    tally = [0] * len(_TALLY)

    def render(span: str, *checks: str) -> None:
        steps.append((span, [_render(check, [_CHECKS[check](R, case, identity)
                                             for case in cases[span]], tally)
                             for check in checks]))

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
    return _Plan(steps, tuple(tally), congruences, identity)


@lru_cache(maxsize=1 << 12)
def _pushed_partition(class_of: tuple[int, ...], q: Sequence[int]) -> tuple[int, ...]:
    """The class_of of the partition ``class_of`` of R on the table that
    relabeling q makes of R, as in _Copy; built once per partition and q."""
    return _first_appearance([class_of[x] for x in q])


@lru_cache(maxsize=1 << 12)
def _partition_literal(class_of: tuple[int, ...]) -> str:
    """The literal "{0};{1,2}" of a canonical class_of, built once per partition."""
    return Congruence._from_rgs(len(class_of), class_of).literal()


@lru_cache(maxsize=None)
def _subset_literals(order: int) -> list[str]:
    """The literal of every subset of an order-n table, by mask."""
    return list(map(_format_mask, range(1 << order)))


# A subset literal in a record's detail, as _format_mask writes it.
_MASK_LITERAL = re.compile(r"\{[\d,]*\}")


class _RelabelingMaps(NamedTuple):
    """What a relabeling q moves, whatever the class: pull[b] is R's mask
    of the subset with mask b of the table q makes of R, and push the
    inverse; literals maps R's subset literals to that table's, and
    moves R's record texts to that table's (see _Copy.moved)."""

    pull: list[int]
    push: list[int]
    literals: dict[str, str]
    moves: dict[str, str]


@lru_cache(maxsize=None)
def _relabeling_maps(q: tuple[int, ...]) -> _RelabelingMaps:
    """The subset maps of relabeling q, built once per q; the sweep's
    orders 1-4 have 33 relabelings in all."""
    pull = [0] * (1 << len(q))
    for b in range(1, len(pull)):
        low = b & -b
        pull[b] = pull[b ^ low] | 1 << q[low.bit_length() - 1]
    push = [0] * len(pull)
    for b, r in enumerate(pull):
        push[r] = b
    literals = _subset_literals(len(q))
    return _RelabelingMaps(pull, push, {literals[r]: literals[b] for b, r in enumerate(pull)}, {})


class _Span(NamedTuple):
    """A labeled table's cases of one span, in its own order: the
    representative's key of each, its literal and record head, the
    position of each representative key, and the table's own case."""

    keys: Sequence[int]
    literals: list[str]
    heads: list[str]
    where: Sequence[int]
    cases: Sequence


class _Copy:
    """A labeled table S, answered through its class representative R.

    q is the relabeling that makes S of R: S labels i the element q[i]
    of R.  A case of S, a subset's mask, a partition or a random family,
    is pulled back through q to R's key, and S's record is R's rendered
    one for that key.  Every notion the checks test is defined up to
    relabeling, so a report without a witness holds for S as it stands
    once each subset literal in its detail is pushed forward to S's
    labels.  A witness is the lexicographically first, which a
    relabeling does not keep, so a report with a witness is asked of S
    itself, and must keep R's status, which the sweep counts for every
    copy.  With R = S and q the identity nothing moves, and nothing is
    asked twice.
    """

    def __init__(self, S: FiniteSemigroup, R: FiniteSemigroup, q: tuple[int, ...]):
        self.S, self.R, self.q = S, R, q
        self.maps = _relabeling_maps(q)

    def moved(self, text: str) -> str:
        """R's witness-free record text as S's, its subset literals
        moved; lines asks it only of a text with some, of a copy S that
        is not R."""
        moves = self.maps.moves
        moved = moves.get(text)
        if moved is None:
            literals = self.maps.literals
            moved = moves[text] = _MASK_LITERAL.sub(lambda m: literals[m[0]], text)
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
    pull = copy.maps.pull
    base = len(pull)
    # S's congruences are R's pushed forward, in S's enumeration (RGS)
    # order, each beside its index in R's.
    congruences = sorted((_pushed_partition(cls, copy.q), j)
                         for j, cls in enumerate(plan.congruences))
    cong_cases = [cls for cls, _ in congruences]
    cong_keys = [j for _, j in congruences]
    cong_where = [0] * len(cong_keys)
    for i, j in enumerate(cong_keys):
        cong_where[j] = i
    subset_literals = _subset_literals(copy.S.order)
    cong_literals = list(map(_partition_literal, cong_cases))
    subset_heads = [f"{prefix}{lit} " for lit in subset_literals]
    cong_heads = [f"{prefix}{lit} " for lit in cong_literals]
    return {
        "subsets": _Span(pull, subset_literals, subset_heads, copy.maps.push, range(base)),
        "congruences": _Span(cong_keys, cong_literals, cong_heads, cong_where, cong_cases),
        "table": _Span([0], ["-"], [f"{prefix}- "], [0], [None]),
    }


def _instance(cfg: SweepConfig, order: int, idx: int, R: FiniteSemigroup, k: int = 0) -> Instance:
    """One catalog instance's record text, (check, status) tally and
    fail lines.

    The instance is the labeled table S that relabeling k makes of its
    class representative R, as in _Copy; relabeling 0 gives back R.  The
    cases, their literals and their order are S's own.
    """
    S, q = _relabeling(R, k)
    plan = _plan(R, cfg.theorem)
    copy = _Copy(S, R, q)
    prefix = f"order={order} table={_table_hash(S)} case="
    spans = _spans(copy, prefix, plan)
    tally = plan.tally
    lines: list[str] = []
    for step in plan.steps:
        if step is None:
            span, rendered, tally = _random_step(cfg, order, idx, copy, prefix, plan, tally)
        else:
            span, rendered = spans[step[0]], step[1]
        columns = [copy.lines(r, span, plan.identity) for r in rendered]
        if len(columns) == 1:
            lines += columns[0]
        else:
            for row in zip(*columns):
                lines += row
    fails = []
    if any(tally[i] for i in _FAIL_SLOTS):
        # A case literal holds no space, so the fifth field is the status.
        fails = [line[:-1] for line in lines if line.split(" ", 5)[4] == f"status={FAIL}"]
    return "".join(lines), tally, fails


def _random_step(cfg: SweepConfig, order: int, idx: int, copy: _Copy, prefix: str, plan: _Plan,
                 tally: tuple[int, ...]) -> tuple[_Span, list[_Rendered], tuple[int, ...]]:
    """S's random families as a span, theorem 2 forward on them rendered
    on R, and tally with them counted in.

    The families are asked of R in one call, at their masks pulled
    back; R's key of S's i-th family is i.
    """
    pull = copy.maps.pull
    families = _random_families(cfg, order, idx)
    reports = _theorem2_forward(copy.R, [[pull[m] for m in masks] for masks in families],
                                plan.identity)
    literals = _subset_literals(order)
    names = [";".join([literals[m] for m in masks]) for masks in families]
    keys = range(len(families))
    span = _Span(keys, names, [f"{prefix}{name} " for name in names], keys, families)
    counted = list(tally)
    rendered = _render("theorem2-forward", reports, counted)
    return span, [rendered], tuple(counted)


def _instance_worker(item: tuple[SweepConfig, int, int, FiniteSemigroup, int]) -> Instance:
    # The item carries S's class representative and the index of the
    # relabeling that makes S of it.
    return _instance(*item)


def iter_sweep(cfg: SweepConfig) -> Iterator[Instance]:
    """Each catalog instance's record text, (check, status) counts and
    fail lines, in catalog order.

    Instances come as they are done, so a consumer that writes and
    drops them holds a few instances' records at a time.  The bytes
    are the same for every parallelism.  A sweep whose labeled tables
    are estimated over ten seconds (any that includes order 5, or checks
    theorem 2 with more than about 820 random families per table at
    orders 1-4) raises WorkBudgetExceeded from this call, before any
    table is built.  No more worker processes start than there are
    usable CPUs or chunks of instances; close the iterator to stop a
    parallel sweep early.
    """
    orders = range(cfg.min_order, cfg.max_order + 1)
    tables = sum(map(_labeled_count, orders))
    # Only a group that checks theorem 2 draws the random families.
    families = cfg.random_families if cfg.theorem in ("all", "2") else 0
    what = f"the sweep of {tables:,} labeled tables"
    if families:
        what += f" with up to {families:,} random families each"
    _within_budget(what, tables * (_INSTANCE_SECONDS + families * _FAMILY_SECONDS))
    items, classes = [], []
    for order in orders:
        canonical, index = _orbit_index(order)
        # Fresh representatives, so their memos last only this sweep.
        reps = [validate(t) for t in canonical]
        items += [(cfg, order, idx, reps[i], k) for idx, (i, k) in enumerate(index)]
        classes += [i for i, _ in index]
    chunks = -(-len(items) // _CHUNK)
    workers = min(cfg.parallelism, _usable_cpus(), chunks)
    if workers > 1:
        # Imported here, so a serial sweep and the CLI's start never load it.
        import multiprocessing

        # Where there is no fork (Windows), the sweep runs in this process.
        if "fork" in multiprocessing.get_all_start_methods():
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
    import multiprocessing

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
