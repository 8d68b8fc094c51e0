"""Batch verification of the quotient and separator results over the
whole catalog of small semigroups.

Every catalog instance is pushed through the lemma checks (all subsets),
both directions of the commutative-monoid quotient theorem, the
separator corollary, and, when a permutation identity of length at most
4 is found, the permutative strengthenings.  Each check is asked of
the instance's class representative, once per isomorphism class, and
its answer moved onto every labeled copy; an answer with a witness is
asked of the copy itself (see _Copy).  Output is a stream of one-line
records ordered by instance, byte-stable across runs and across worker
counts.
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
from typing import Iterable, Iterator, Sequence

from .catalog import _labeled_count, _orbits, _relabeling, catalog_line
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
from .core import ElementSet, FiniteSemigroup, _format_mask, _within_budget, memoized
from .errors import WorkerDied
from .permutative import (
    PermutationIdentity,
    find_permutation_identity,
    format_permutation,
    lemma4_minimal_k,
    parse_permutation,
    verify_corollary2,
    verify_theorem2_converse,
    verify_theorem2_forward,
)
from .reports import FAIL, PASS, CheckReport, _report, failed, passed, unmet

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

# Instances per claim and per message from a worker process: 8 to 32
# run the order-4 sweep equally fast, a larger chunk holds more records
# in the parent's reorder window (32: about 1 MiB more at peak), and 16
# starts no worker for the 9 tables of orders 1-2.
_CHUNK = 16

# Measured cost of the default sweep per labeled table: 0.9 ms (verify-o4,
# 2.55-3.29 s over the 3614 tables of orders 1-4 in 5 runs; 2-vCPU Xeon
# VM, Python 3.11, serial).  Most tables are answered through their class
# representative, so the cost is an average over the 218 classes and
# their copies.  Orders 1-4 are estimated at 3.3 s and accepted; a range
# that includes order 5 (165 s for its tables alone) is refused.  The
# estimate stays serial, whatever the CPU count, so whether a sweep is
# refused never depends on the machine.
_INSTANCE_SECONDS = 0.9e-3

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


def _wants(cfg: SweepConfig, group: str) -> bool:
    return cfg.theorem in ("all", group)


def _random_families(cfg: SweepConfig, order: int, idx: int) -> list[tuple[int, ...]]:
    # Each family as the bit masks of its 2-3 sets.  One generator per
    # instance, keyed by seed, order, and catalog position, so results
    # never depend on worker scheduling.
    rng = random.Random(f"{cfg.seed}:{order}:{idx}")
    return [
        tuple(rng.randrange(1 << order) for _ in range(rng.randint(2, 3)))
        for _ in range(cfg.random_families)
    ]


def _sets(n: int, masks: Iterable[int]) -> list[ElementSet]:
    return [ElementSet._from_bits(n, bits) for bits in masks]


def _family(n: int, case: int | tuple[int, ...]) -> list[ElementSet]:
    """The theorem family of a case: a mask's one set, a partition's classes."""
    return _sets(n, (case,) if type(case) is int else _class_bits(case))


def _identity_report(T: FiniteSemigroup, _) -> CheckReport:
    witness = find_permutation_identity(T, _IDENTITY_LENGTH)
    if witness is None:
        return unmet("permutation-identity", f"no identity found up to length {_IDENTITY_LENGTH}")
    return passed("permutation-identity", f"n={witness.length} {format_permutation(witness)}")


def _lemma4_report(T: FiniteSemigroup, _) -> CheckReport:
    res = lemma4_minimal_k(T)
    if res.k is not None:
        return passed("lemma4", f"k={res.k}")
    k, w = res.counterexamples[0]
    return failed("lemma4", tuple(zip("kuxyv", (k, *w))),
                  "no exponent works along the whole power chain")


def _identity(T: FiniteSemigroup) -> PermutationIdentity | None:
    """The permutation identity that T's permutation-identity report names."""
    rep = _answer(T, ("permutation-identity", None))
    return parse_permutation(rep.detail.partition(" ")[2]) if rep.status == PASS else None


# Each check the sweep asks, as a function of a table and a case: a
# subset's mask, a partition's class_of, or None for a whole-table check.
_CHECKS = {
    "lemma1": lambda T, bits: check_lemma1(T, ElementSet._from_bits(T.order, bits)),
    "lemma2": lambda T, bits: check_lemma2(T, ElementSet._from_bits(T.order, bits)),
    "lemma3": lambda T, bits: check_lemma3(T, ElementSet._from_bits(T.order, bits)),
    "corollary1": lambda T, bits: verify_corollary1(T, ElementSet._from_bits(T.order, bits)),
    "theorem1-forward": lambda T, case: verify_theorem1_forward(T, _family(T.order, case)),
    "theorem1-converse": lambda T, cls: verify_theorem1_converse(
        T, Congruence._from_rgs(T.order, cls)),
    "permutation-identity": _identity_report,
    "lemma4": _lemma4_report,
    "theorem2-forward": lambda T, case: verify_theorem2_forward(
        T, _family(T.order, case), _identity(T)),
    "theorem2-converse": lambda T, cls: verify_theorem2_converse(
        T, Congruence._from_rgs(T.order, cls), _identity(T)),
    "corollary2": lambda T, bits: verify_corollary2(
        T, ElementSet._from_bits(T.order, bits), _identity(T)),
}


@memoized("answer")
def _answer(R: FiniteSemigroup, key: tuple[str, int | tuple[int, ...] | None]) -> CheckReport:
    """R's report for a (check, case) key."""
    check, case = key
    return _CHECKS[check](R, case)


# A subset literal in a report's detail, as _format_mask writes it.
_MASK_LITERAL = re.compile(r"\{[\d,]*\}")


class _Copy:
    """A labeled table S, asked through its class representative R.

    q is the relabeling that makes S of R: S labels i the element q[i]
    of R.  A case of S, a subset's mask or a partition, is pulled back
    through q, and R answers it once per class through its memo.  Every
    notion the checks test is defined up to relabeling, so a report
    without a witness holds for S as it stands once each subset literal
    in its detail is pushed forward to S's labels.  A witness is the
    lexicographically first, which a relabeling does not keep, so a
    report with a witness is asked of S itself.  With R = S and q the
    identity nothing moves, and nothing is asked twice.
    """

    def __init__(self, S: FiniteSemigroup, R: FiniteSemigroup, q: Sequence[int]):
        self.S, self.R, self.q = S, R, q
        # pull[b] is R's mask of S's subset with mask b.
        pull = [0] * (1 << S.order)
        for b in range(1, len(pull)):
            low = b & -b
            pull[b] = pull[b ^ low] | 1 << q[low.bit_length() - 1]
        self.pull = pull
        self.literals = {_format_mask(r): _format_mask(b) for b, r in enumerate(pull)}
        self.details: dict[str, str] = {}

    def pushed_partition(self, class_of: tuple[int, ...]) -> tuple[int, ...]:
        """S's class_of of R's partition ``class_of``."""
        return _first_appearance([class_of[x] for x in self.q])

    def answers(self, check: str, cases: Sequence[tuple]) -> list[CheckReport]:
        """S's reports for ``check`` at each (S's case, R's key) of ``cases``."""
        R, S = self.R, self.S
        reps = [_answer(R, (check, key)) for _, key in cases]
        if S is not R:
            for i, rep in enumerate(reps):
                if rep.witness is not None:
                    reps[i] = _CHECKS[check](S, cases[i][0])
                elif "{" in rep.detail:
                    reps[i] = self.pushed(rep)
        return reps

    def pushed(self, rep: CheckReport) -> CheckReport:
        """R's witness-free report as S's: its subset literals moved."""
        detail = rep.detail
        if "{" not in detail or self.S is self.R:
            return rep
        moved = self.details.get(detail)
        if moved is None:
            moved = self.details[detail] = _MASK_LITERAL.sub(
                lambda m: self.literals[m[0]], detail)
        return _report(rep.check, rep.status, None, moved)


def _instance_checks(
    cfg: SweepConfig,
    order: int,
    idx: int,
    S: FiniteSemigroup,
    R: FiniteSemigroup | None = None,
    q: Sequence[int] | None = None,
) -> list[tuple[str, CheckReport]]:
    """All (case, report) pairs for one catalog instance, in a fixed order.

    R is S's class representative and q the relabeling that makes S of
    it, as in _Copy; left out, R is S and q the identity.  The cases,
    their literals and their order are S's own.
    """
    if R is None:
        R, q = S, range(order)
    copy = _Copy(S, R, q)
    answers, pull = copy.answers, copy.pull
    out: list[tuple[str, CheckReport]] = []
    # Each case as (S's case, R's key), beside its literals.
    subsets = list(enumerate(pull))
    literals = list(map(_format_mask, range(len(pull))))

    if _wants(cfg, "lemmas"):
        for case, *reps in zip(literals, *(answers(check, subsets)
                                           for check in ("lemma1", "lemma2", "lemma3"))):
            out += [(case, rep) for rep in reps]

    if _wants(cfg, "cor1"):
        out += zip(literals, answers("corollary1", subsets))

    if _wants(cfg, "1") or _wants(cfg, "2"):
        # S's congruences are R's pushed forward, in S's enumeration
        # (RGS) order.  The theorem families: singletons, then each
        # congruence's classes.
        congruences = sorted((copy.pushed_partition(sigma.class_of), sigma.class_of)
                             for sigma in enumerate_congruences(R))
        families = subsets + congruences
        literals += [Congruence._from_rgs(order, cls).literal() for cls, _ in congruences]

    if _wants(cfg, "1"):
        out += zip(literals, answers("theorem1-forward", families))
        out += zip(literals[len(subsets):], answers("theorem1-converse", congruences))

    if _wants(cfg, "2") or _wants(cfg, "cor2"):
        out.append(("-", answers("permutation-identity", [(None, None)])[0]))
        witness = _identity(R)
        if witness is not None and _wants(cfg, "2"):
            out.append(("-", answers("lemma4", [(None, None)])[0]))
            out += zip(literals, answers("theorem2-forward", families))
            # Each random family is asked of R once, past the memo.
            for masks in _random_families(cfg, order, idx):
                rep = verify_theorem2_forward(R, _sets(order, map(pull.__getitem__, masks)),
                                              witness)
                if rep.witness is None:
                    rep = copy.pushed(rep)
                elif S is not R:
                    rep = verify_theorem2_forward(S, _sets(order, masks), witness)
                out.append((";".join(map(_format_mask, masks)), rep))
            out += zip(literals[len(subsets):], answers("theorem2-converse", congruences))
        if witness is not None and _wants(cfg, "cor2"):
            out += zip(literals, answers("corollary2", subsets))

    return out


def _instance_worker(item: tuple[SweepConfig, int, int, FiniteSemigroup, int]) -> Instance:
    # The item carries S's class representative and the index of the
    # relabeling that makes S of it.
    cfg, order, idx, R, k = item
    S, q = _relabeling(R, k)
    prefix = f"order={order} table={_table_hash(S)} case="
    checks = _instance_checks(cfg, order, idx, S, R, q)
    lines = [f"{prefix}{case} {rep.record()}\n" for case, rep in checks]
    counts = Counter((rep.check, rep.status) for _, rep in checks)
    fails = [line[:-1] for line, (_, rep) in zip(lines, checks) if rep.status == FAIL]
    return "".join(lines), counts, fails


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
    items = [(cfg, order, idx, R, k)
             for order in orders for idx, (_, R, k) in enumerate(_orbits(order))]
    chunks = [items[i:i + _CHUNK] for i in range(0, len(items), _CHUNK)]
    workers = min(cfg.parallelism, _usable_cpus(), len(chunks))
    # Where there is no fork (Windows), the sweep runs in this process.
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        return _forked(chunks, workers)
    return (_instance_worker(item) for item in items)


def _forked(chunks: list[list], workers: int) -> Iterator[Instance]:
    # A free worker claims the next chunk by reading its index from one
    # shared claims pipe, and sends back (index, error, instances) down
    # its own result pipe.  The parent reads whichever result pipe is
    # ready, holds early chunks, and yields strictly in catalog order.
    # It writes an index into the claims pipe only once the chunk
    # 2 * workers places before it has been yielded, so no more than
    # that many chunks are ever claimed and not yet yielded.  Fork, not
    # spawn: the workers inherit the chunks, so nothing is pickled on the
    # way out, and the parent runs no thread that a fork could catch
    # mid-operation.

    # Imported here, as ctx.Pipe imports it, so that a program that
    # only imports sglab does not load it and the subprocess module.
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    window = 2 * workers
    # The parent keeps the claims pipe's read end as well, so a write to
    # it cannot fail, even once every worker is gone.
    claims, handout = os.pipe()
    readers, procs = [], []
    early = {}  # chunk index -> (error, instances), for chunks not yet yielded

    def receive(timeout: float | None) -> None:
        for reader in wait(readers, timeout):
            try:
                i, error, instances = reader.recv()
            except (EOFError, OSError):
                # The claims pipe stays open until the sweep is done, so
                # no worker runs out of work before then: any end of file
                # is a death, whatever the exit code.
                k = readers.index(reader)
                procs[k].join(timeout=5)
                raise WorkerDied(k, procs[k].exitcode) from None
            early[i] = error, instances

    try:
        for k in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            proc = ctx.Process(target=_work, args=(chunks, claims, handout, writer, readers),
                               daemon=True)
            proc.start()
            procs.append(proc)
            # Only the worker may hold the write end, or its death
            # would never reach the reader as end of file.
            writer.close()
        for i in range(min(window, len(chunks))):
            os.write(handout, i.to_bytes(4, "little"))
        for pos in range(len(chunks)):
            # Take in whatever has arrived, so a finished worker is not
            # held in send while this chunk is yielded.
            receive(0)
            while pos not in early:
                receive(None)
            error, instances = early.pop(pos)
            if error is not None:
                raise error
            yield from instances
            if pos + window < len(chunks):
                os.write(handout, (pos + window).to_bytes(4, "little"))
    finally:
        os.close(handout)
        os.close(claims)
        for proc in procs:
            proc.terminate()
            proc.join()
        for reader in readers:
            reader.close()


def _work(chunks: list[list], claims: int, handout: int, writer, readers) -> None:
    # A worker holds only the claims pipe's read end and its own result
    # pipe's write end, so it can block only where a dead parent wakes
    # it: the claims pipe then reads end of file and a send raises
    # BrokenPipeError, and either ends the worker quietly.  Ctrl-C is
    # the parent's to handle.
    os.close(handout)
    for reader in readers:
        reader.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Each 4-byte index is one write, under the pipe's atomic size, so
    # two workers never split one.
    while claim := os.read(claims, 4):
        i = int.from_bytes(claim, "little")
        try:
            message = i, None, [_instance_worker(item) for item in chunks[i]]
        except Exception as e:  # raised again in the parent, in catalog order
            message = i, e, None
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
