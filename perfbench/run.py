#!/usr/bin/env python3
"""sglab benchmark: the order-4 verify sweeps and a mixed library-query stream.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one caller, closed loop, everything serial in this process):

* ``verify-o4``: ``sglab verify --max-order 4 --structured``, the default
  user command; every layer works, and each table is asked every subset
  and every congruence many times.  A request is one whole command.
* ``query-mixed``: a seeded stream of single requests, each parsing a fresh
  ``.sg`` text and answering one question; no work is reused, and only here
  do ``parse_sg``, ``canonical_form`` and orders 5 and 6 run.  verdict_s is
  the time to answer a batch of 1000 requests.
* ``verify-o4-lemmas``: ``--order 4 --theorem lemmas``, which isolates the
  subset layer.  Run it by hand; BENCHMARK.json leaves it out because the
  two workloads above already fill the timed runs' budget.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries per-function counts and self times from
``tracer``, plus the tracing overhead.  Lines before it are a readable
summary and a ``{"meta": ...}`` record of the machine and the inputs.
The program exits 1 without a result when ``src/sglab`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-o4", "query-mixed", "verify-o4-lemmas")
SETUP_SAMPLES = 5
# query-mixed reports verdict_s as the time to answer one batch of requests.
BATCH = 1000
TINY_BATCH = 12
TINY_REQUESTS = 36

# The benchmark seed picks one of these sweep seeds, so every run's output
# can be compared with a stdout digest frozen from the seed commit:
# sglab verify <args> (lines, sha256).  The tiny entries serve the smoke test.
FROZEN_SEEDS = 8
DIGESTS = {
    "--max-order 4 --structured --seed 0": (528448, "f47fbfd63bc620653678978ff0d59c67d9987f1106de0b844e1ecdfc366b614b"),
    "--max-order 4 --structured --seed 1": (528448, "22b4d8d521a5e229bc4c91ad00e4c9edeb576ca897cc8aad441fad7354f43431"),
    "--max-order 4 --structured --seed 2": (528448, "78c22c4dc75db2a57ed67d73798dec2b12f308808690d393330e528eb528b9df"),
    "--max-order 4 --structured --seed 3": (528448, "9cc1c276ede0dfbb35ab755056fca6988c34e6e7dbaeedacebe4e6884b8254f8"),
    "--max-order 4 --structured --seed 4": (528448, "f3b6265c815395369b0376a0127313b03b4d05be2dc5fafc869bfa318377fb13"),
    "--max-order 4 --structured --seed 5": (528448, "63dd188c52ae4a53422a176089cf1be9b1012d80a639645a466c443a2aa4d004"),
    "--max-order 4 --structured --seed 6": (528448, "89aced03c81ef88d72eb55e323d4fe164db187da57d6e128d1da2e7e9b62c08c"),
    "--max-order 4 --structured --seed 7": (528448, "725a1abd2faada078c54ae86fd1fd4e5adfa5f94dd6d7e754f301ae26ca5d20d"),
    "--max-order 2 --structured --seed 0": (504, "0c7c7202c7313534ae001bdc45f5ae6cfdd3f27528d4286b7d3959f0c0ca2402"),
    "--max-order 2 --structured --seed 1": (504, "a51f5cd0eb0fe03ce90ef8b9b74e928863fe1aaabb1533b9709b9a5b416148e5"),
    "--max-order 2 --structured --seed 2": (504, "16d1503b7442cbd566dfb931115af79c02581885f5edcc7bdbdd8e06afcad411"),
    "--max-order 2 --structured --seed 3": (504, "1fb879dd5ee1ff5575e583b5d8e8035ef633658a38247f53a045fc5d22020441"),
    "--max-order 2 --structured --seed 4": (504, "057079285e21e4e9ae3c0dd57f8bf5b8706165d7f42710ccc74c65c49bdef392"),
    "--max-order 2 --structured --seed 5": (504, "65f68dd84c8318eeb230e4437052f5575c2f5afa7c6d9f71bd7c736b74e5ca87"),
    "--max-order 2 --structured --seed 6": (504, "b388f11387b326634e3aabd91261330f73908eef7f37a7378c342aaa48b7bc87"),
    "--max-order 2 --structured --seed 7": (504, "d600bd05e9526508131069c36c29f0535076ad6bbb2cd7e1848c51237e915114"),
}
for _s in range(FROZEN_SEEDS):
    DIGESTS[f"--order 4 --theorem lemmas --structured --seed {_s}"] = (
        167616, "4591835430c59516dac8688dadc869d92404929256d6abb9a6bb73582c27617d")
    DIGESTS[f"--order 2 --theorem lemmas --structured --seed {_s}"] = (
        96, "c526c71c3b6e76c7f9b32eb5e833e208d8a622669860e2bfac261dbe796c7660")

# Traced public functions per layer (module of src/sglab).  "Class.method"
# is traced on its class; enumerate_semigroups is a generator, traced per next.
LAYERS = {
    "catalog": ("enumerate_semigroups", "canonical_form"),
    "core": ("parse_sg", "validate", "FiniteSemigroup.word_tensor"),
    "subsets": ("separator", "idealizer", "is_medial", "is_unitary", "is_reflexive",
                "is_subsemigroup"),
    "congruences": ("enumerate_congruences", "is_congruence", "p_congruence", "quotient",
                    "classify_quotient", "verify_theorem1_forward", "verify_theorem1_converse",
                    "verify_corollary1"),
    "permutative": ("find_permutation_identity", "satisfies_identity", "lemma4_minimal_k",
                    "verify_theorem2_forward", "verify_theorem2_converse", "verify_corollary2"),
    "sweep": ("run_sweep", "check_lemma1", "check_lemma2", "check_lemma3"),
    "reports": ("CheckReport.record",),
    "cli": ("run_command",),
}
GENERATORS = {"catalog.enumerate_semigroups"}


def import_sglab():
    """Import sglab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import sglab
        import sglab.cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import sglab from {SRC}: {e}") from None
    if Path(sglab.__file__).resolve().parent != SRC / "sglab":
        raise SystemExit(f"perfbench: sglab came from {sglab.__file__}, not {SRC}")
    return sglab


class HashSink(io.TextIOBase):
    """Stands in for stdout: hashes, counts lines and counts fail records."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.lines = 0
        self.fails = 0

    def writable(self):
        return True

    def write(self, s):
        self.sha.update(s.encode())
        self.lines += s.count("\n")
        self.fails += s.count(" status=fail ")
        return len(s)


def verify_argv(workload: str, seed: int, tiny: bool) -> list[str]:
    order = "2" if tiny else "4"
    scope = ["--max-order", order] if workload == "verify-o4" else ["--order", order, "--theorem", "lemmas"]
    return ["verify", *scope, "--structured", "--seed", str(seed % FROZEN_SEEDS)]


class Outcome:
    """Latencies and failures of one measured pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few, for the meta record
        self.by_kind: dict[str, int] = {}

    def fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def merge(self, other: "Outcome"):
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:10]
        for key, n in other.by_kind.items():
            self.by_kind[key] = self.by_kind.get(key, 0) + n


def run_verify(cli, argv, seconds: float) -> Outcome:
    """verify calls back to back until ``seconds`` have passed (at least one)."""
    out = Outcome()
    expected = DIGESTS.get(" ".join(argv[1:]))
    start = time.perf_counter()
    while out.attempted == 0 or time.perf_counter() - start < seconds:
        out.attempted += 1
        sink = HashSink()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.run_command(argv)
        except Exception as e:  # a crash is a failed verdict, not a crashed benchmark
            out.fail(f"verify raised {e!r}")
            continue
        out.latencies.append(time.perf_counter() - t0)
        out.by_kind["records"] = sink.lines
        got = (sink.lines, sink.sha.hexdigest())
        if rc != 0 or sink.fails or got != expected:
            out.fail(f"exit {rc}, {sink.fails} fail records, output {got} expected {expected}")
    return out


def run_queries(queries, requests, seconds: float, limit: int | None, check=True):
    """Answer requests one at a time until ``seconds`` pass or ``limit`` are done.

    Returns the outcome and, when ``check`` is off, the answers to check later.
    """
    out = Outcome()
    answers = []
    start = time.perf_counter()
    for req in requests:
        if limit is not None and out.attempted >= limit:
            break
        if limit is None and time.perf_counter() - start >= seconds:
            break
        out.attempted += 1
        key = f"{req.op}/{req.order}"
        out.by_kind[key] = out.by_kind.get(key, 0) + 1
        t0 = time.perf_counter()
        try:
            S, result = queries.answer(req)
        except Exception as e:
            out.fail(f"{key} raised {e!r}")
            continue
        out.latencies.append(time.perf_counter() - t0)
        answers.append((req, queries.plain(req.op, S, result)))
        if check:
            check_answers(queries, answers, out)
            answers.clear()
    return out, answers


def check_answers(queries, answers, out: Outcome):
    for req, (table, value) in answers:
        try:
            ok = queries.check(req, table, value)
        except Exception as e:
            ok = False
            out.fail(f"{req.op}/{req.order} check raised {e!r}")
            continue
        if not ok:
            out.fail(f"wrong answer to {req.op} {req.arg} on {req.table}")


def nearest_rank(sorted_vals, p: float) -> float:
    return sorted_vals[max(1, math.ceil(p / 100 * len(sorted_vals))) - 1]


def tail(sorted_vals):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.99, 99.9, 99.0, 90.0, 50.0):
        if round(len(sorted_vals) * (100 - p) / 100, 6) >= 10:
            return p, nearest_rank(sorted_vals, p)
    return None, None


def end_to_end(out: Outcome, batch: int | None, setup_samples: list[float]):
    """The BENCHMARK.json metrics, and the sample counts and tail latencies.

    The tail stays out of the metrics: the 99th percentile of query-mixed
    (inside the order-6 canon requests) moved by 30-40% between runs on a
    2-vCPU VM whose median moved by 15-20%, more than any bound allows.
    """
    lat = sorted(out.latencies)
    if batch is None:
        verdicts = out.latencies
    else:
        verdicts = [sum(out.latencies[i:i + batch]) for i in range(0, len(out.latencies) - batch + 1, batch)]
    p, tail_value = tail(lat)
    metrics = {
        "verdict_s": (statistics.median(verdicts), "s"),
        "requests_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    samples = {
        "latency": len(lat),
        "verdict": len(verdicts),
        "setup": len(setup_samples),
        "latency_p99_ms": nearest_rank(lat, 99.0) * 1e3,
        "tail_percentile": p,
        "tail_ms": None if tail_value is None else tail_value * 1e3,
    }
    return metrics, samples


@contextlib.contextmanager
def tracing(tracer: Tracer, sglab):
    """Trace every function in LAYERS while the block runs, observing the
    inputs the ratios need; may be entered again to add to the same totals."""
    seen = tracer.seen
    observers = {
        "subsets.separator": lambda a, r: seen["separator"].add((a[0].table, a[1].members)),
        "core.FiniteSemigroup.word_tensor": lambda a, r: seen["word_tensor"].add((a[0].table, a[1])),
        "permutative.satisfies_identity": lambda a, r: seen["satisfies_identity"].add(a[0].table),
        "congruences.enumerate_congruences": lambda a, r: tracer.counts.update(
            {"congruences.enumerate_congruences.returned": len(r)}),
    }
    for layer, names in LAYERS.items():
        module = getattr(sglab, layer)
        for attr in names:
            name = f"{layer}.{attr}"
            if "." in attr:
                cls, meth = attr.split(".")
                tracer.method(getattr(module, cls), meth, name, observe=observers.get(name))
            else:
                tracer.function(module, attr, name, generator=name in GENERATORS,
                                observe=observers.get(name))
    tracer.method(sglab.core.ElementSet, "__post_init__", "core.ElementSet.constructed",
                  count_only=True)
    try:
        yield
    finally:
        tracer.restore()


def trace_queries(queries, sglab, tracer: Tracer, requests, seconds: float, limit: int | None,
                  batch: int):
    """Answer each batch of requests both untraced and traced.

    Interleaving lets drift in machine speed hit both passes alike, and
    alternating which pass goes first cancels the head start the second
    one gets from caches the first one warmed, so the difference is the
    tracer's overhead.  Answers are checked with the tracer removed, so
    checking adds nothing to the per-layer counts.
    """
    untraced, traced = Outcome(), Outcome()
    start = time.perf_counter()
    for i in itertools.count():
        if (traced.attempted >= limit) if limit is not None else (
                time.perf_counter() - start >= seconds):
            break
        chunk = list(itertools.islice(requests, batch))
        for with_tracer in (False, True) if i % 2 == 0 else (True, False):
            with tracing(tracer, sglab) if with_tracer else contextlib.nullcontext():
                got, answers = run_queries(queries, chunk, 0, len(chunk), check=False)
            check_answers(queries, answers, got)
            (traced if with_tracer else untraced).merge(got)
    return untraced, traced


def per_layer(tracer: Tracer, untraced_s: float, traced_s: float):
    metrics = {}
    for layer, names in LAYERS.items():
        for attr in names:
            name = f"{layer}.{attr}"
            if name in GENERATORS:
                metrics[f"{name}.calls"] = (tracer.counts[name + ".calls"], "count")
                metrics[f"{name}.yielded"] = (tracer.counts[name + ".yielded"], "count")
            else:
                metrics[f"{name}.calls"] = (tracer.calls(name), "count")
            metrics[f"{name}.self_s"] = (tracer.self_s(name), "s")
    metrics["core.ElementSet.constructed"] = (tracer.counts["core.ElementSet.constructed"], "count")

    def ratio(a, b):
        return a / b if b else 0.0

    distinct = {key: len(values) for key, values in tracer.seen.items()}
    separators = distinct.get("separator", 0)
    tensors = distinct.get("word_tensor", 0)
    instances = distinct.get("satisfies_identity", 0)
    tested = tracer.calls("congruences.is_congruence", parent="congruences.enumerate_congruences")
    returned = tracer.counts["congruences.enumerate_congruences.returned"]
    metrics.update({
        "subsets.separator.distinct": (separators, "count"),
        "subsets.separator.distinct_ratio": (
            ratio(separators, tracer.calls("subsets.separator")), "ratio"),
        "core.word_tensor.distinct": (tensors, "count"),
        "core.word_tensor.distinct_ratio": (
            ratio(tensors, tracer.calls("core.FiniteSemigroup.word_tensor")), "ratio"),
        "congruences.enumerate_congruences.partitions_tested": (tested, "count"),
        "congruences.enumerate_congruences.returned": (returned, "count"),
        "congruences.enumerate_congruences.yield_ratio": (ratio(returned, tested), "ratio"),
        "permutative.satisfies_identity.instances": (instances, "count"),
        "permutative.satisfies_identity.calls_per_instance": (
            ratio(tracer.calls("permutative.satisfies_identity"), instances), "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_ratio": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
    })
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe_samples(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh interpreters, each importing and generating inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="orders <= 2 and a few dozen requests, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    sglab = import_sglab()
    import queries  # imports sglab, so only after import_sglab

    is_query = args.workload == "query-mixed"
    if is_query:
        pools = queries.build_pools(args.tiny)
    else:
        argv_v = verify_argv(args.workload, args.seed, args.tiny)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    limit = TINY_REQUESTS if args.tiny else None
    batch = (TINY_BATCH if args.tiny else BATCH) if is_query else None

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "revision": git_revision(),
    }
    if not is_query:
        meta["verify_argv"] = argv_v

    if args.trace == 0:
        setup_samples = [setup_s] + setup_probe_samples(args, SETUP_SAMPLES - 1)
        if is_query:
            out, _ = run_queries(queries, queries.stream(args.seed, pools), args.seconds, limit)
        else:
            out = run_verify(sglab.cli, argv_v, args.seconds)
        metrics, samples = end_to_end(out, batch, setup_samples)
        meta["samples"] = samples
    else:
        tracer = Tracer()
        if is_query:
            with tracing(tracer, sglab):
                queries.build_pools(args.tiny)  # set-up traced too, for the catalog layer
            untraced, out = trace_queries(queries, sglab, tracer, queries.stream(args.seed, pools),
                                          args.seconds, limit, batch)
        else:
            # A verify call is one indivisible request: the untraced call
            # first, then the same call traced.
            untraced = run_verify(sglab.cli, argv_v, 0)
            with tracing(tracer, sglab):
                out = run_verify(sglab.cli, argv_v, 0)
        untraced_s, traced_s = sum(untraced.latencies), sum(out.latencies)
        metrics = per_layer(tracer, untraced_s, traced_s)
        out.attempted += untraced.attempted
        out.failed += untraced.failed
        out.failures = (untraced.failures + out.failures)[:10]
        meta["trace_passes_s"] = {"untraced": untraced_s, "traced": traced_s}

    meta["input"] = out.by_kind
    meta["error_rate"] = out.failed / max(out.attempted, 1)
    meta["failures"] = out.failures
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    if args.trace == 0:
        samples = meta["samples"]
        print(f"latency_p99_ms = {samples['latency_p99_ms']} ms (not in BENCHMARK.json)")
        if samples["tail_percentile"] is None:
            print(f"tail: {samples['latency']} requests, too few for ten beyond any percentile")
        else:
            print(f"tail: p{samples['tail_percentile']} = {samples['tail_ms']} ms "
                  f"over {samples['latency']} requests")
    print(f"error_rate = {meta['error_rate']} ({out.failed} of {out.attempted})")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
