"""trop benchmark: seeded workloads, closed loop, checked outputs.

    python3 bench/run.py --workload kernels --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; trop is imported from ./src.
One client runs the workload's ops back to back (a closed loop) for
--seconds, each op a single call into trop, and each op is timed at the
best of its executions (see end_to_end).  The last line of stdout
is a JSON object {correct, attempted, failed, metrics}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A line
starting with "record " before it holds the self-describing run record.
--workload all runs every workload in turn in this one process.

The output check runs outside the timed loop: each op's output is
checked independently (reference formulas, laws, re-verified witnesses
and D bridges), against the D transpose verdicts in bench/expected.json
and against its digests for the seed, when the file has that seed.  An
op fails if it raises, returns an output that fails a check, differs
from its own earlier output, or (cli) exits with the wrong code or
prints a traceback.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_REPEATS = 10
INF = float("inf")
TRACE_ALTERNATIONS = 5
IMPORT_REPEATS = 3
HARNESS_TRIALS = {
    "P1": 300, "P2": 300, "P3": 300, "P4": 200, "P5": 30, "P6": 30, "P7": 30,
    "P8": 30, "P9": 200, "P10": 30, "P11": 40, "P12": 20, "P13": 20, "P14": 100,
    "P15": 200,
}
# P13/P14 default to n <= 5, where a seed can draw a pair rel_D needs
# minutes for; the probe keeps to n <= 4 like the d-mixed workload
HARNESS_DIMS = {"P13": (2, 4), "P14": (2, 4)}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_trop():
    if not (SRC / "trop" / "__init__.py").is_file():
        fail(f"no trop sources under {SRC}; run from the root of a trop checkout")
    sys.path.insert(0, str(SRC))
    import trop

    if Path(trop.__file__).resolve().parent != (SRC / "trop").resolve():
        fail(f"imported trop from {trop.__file__}, not from {SRC}")


def child_import_seconds(module):
    """Time to import a module in a fresh interpreter, measured inside it."""
    code = (
        "import time; t = time.perf_counter(); import %s; "
        "print(repr(time.perf_counter() - t))" % module
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def commit_id():
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "trop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()[:12]


TAIL_LADDER = (99.9, 99.5, 99, 98, 97.5, 95, 90, 75, 50)


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least 10 of n samples beyond
    it, else the lowest rung."""
    for pct in TAIL_LADDER:
        if n - -(-n * pct // 100) >= 10:
            return pct
    return TAIL_LADDER[-1]


class Workload:
    """One workload's seeded ops and everything measured on them."""

    def __init__(self, name, seed, workdir):
        import workloads as wl

        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.wl = wl
        self.runner = wl.CliRunner(str(SRC)) if name == "cli" else None

    def build(self):
        wl = self.wl
        if self.name == "kernels":
            return wl.build_kernels(self.seed)
        if self.name == "d-mixed":
            return wl.build_d_mixed(self.seed)
        if self.name == "d-disconnected":
            return wl.build_d_disconnected(self.seed)
        return wl.build_cli(self.seed, self.workdir, self.runner)

    def setup_once(self):
        """One set-up: import trop in a fresh interpreter (timed inside
        it), then build the seeded inputs.  Returns (ops, seconds)."""
        took = child_import_seconds("trop.cli" if self.name == "cli" else "trop")
        start = perf_counter()
        ops = self.build()
        return ops, took + perf_counter() - start

    def setup(self):
        self.ops, took = self.setup_once()
        n = len(self.ops)
        self.refs = [None] * n
        self.counts = [0] * n
        self.unstable = [0] * n
        self.cursor = 0  # op id of the next op; slot = id mod pool size
        return took

    def loop(self, seconds, best, tracer=None, max_ops=None):
        """Closed loop over the ops until the time or op budget is spent.
        Lowers best[slot] to each op's fastest time; returns the number
        of ops run and their summed latency."""
        ops, refs, counts, unstable = self.ops, self.refs, self.counts, self.unstable
        same = self.wl.same
        n = len(ops)
        busy = 0.0
        deadline = perf_counter() + seconds
        i = start = self.cursor
        stop = None if max_ops is None else i + max_ops
        while True:
            slot = i % n
            op = ops[slot]
            if tracer is not None:
                tracer.begin("op", i)
            t0 = perf_counter()
            try:
                out = op.fn(*op.args)
            except Exception as exc:  # an op that raises is a failed op
                out = exc
            t1 = perf_counter()
            if tracer is not None:
                tracer.record(op.layer, t0, t1, i)
                tracer.end()
            busy += t1 - t0
            if t1 - t0 < best[slot]:
                best[slot] = t1 - t0
            if counts[slot] == 0:
                refs[slot] = out
            elif not same(refs[slot], out):
                unstable[slot] += 1
            counts[slot] += 1
            i += 1
            if t1 >= deadline or i == stop:
                self.cursor = i
                return i - start, busy

    def check(self, expected):
        """Check every executed slot against independent checks, the
        seed-independent D verdicts and this seed's digests; returns
        (attempted, failed, detail)."""
        wl = self.wl
        checker = {"kernels": wl.check_kernel, "cli": wl.check_cli}.get(self.name, wl.check_d)
        verdicts = expected.get("transpose_verdicts")
        digests = expected.get("seeds", {}).get(str(self.seed))
        bad = [False] * len(self.ops)
        groups = {}
        wrong_verdicts = 0
        for slot, (op, out) in enumerate(zip(self.ops, self.refs)):
            groups.setdefault(op.group, []).append(slot)
            if self.counts[slot] == 0:
                continue
            try:
                bad[slot] = isinstance(out, Exception) or not checker(op, out)
            except Exception:  # a check that cannot even run is a failure
                bad[slot] = True
            if verdicts and op.info.get("partner") == "transpose" and not bad[slot]:
                if out.holds != (verdicts[op.info["base"]] == "Y"):
                    bad[slot] = True
                    wrong_verdicts += 1
        golden = {"groups": len(groups), "matched": 0, "mismatched": [], "unreached": 0}
        if verdicts:
            golden["transpose_verdicts_wrong"] = wrong_verdicts
        if digests is None:
            golden["status"] = "no expected digests for this seed"
        else:
            golden["status"] = "checked"
            for group, slots in sorted(groups.items()):
                if any(self.counts[s] == 0 for s in slots):
                    golden["unreached"] += 1
                    continue
                got = digest(wl.canonical(self.refs[s]) for s in slots)
                if got == digests.get(group):
                    golden["matched"] += 1
                else:
                    golden["mismatched"].append(group)
                    for s in slots:
                        bad[s] = True
        attempted = sum(self.counts)
        failed = sum(c if b else u for c, b, u in zip(self.counts, bad, self.unstable))
        failing = sorted({self.ops[s].group for s in range(len(bad)) if bad[s]})
        return attempted, failed, {"golden": golden, "failing_groups": failing,
                                   "unstable_outputs": sum(self.unstable)}

    def properties(self):
        wl = self.wl
        outs = [ref if count else None for ref, count in zip(self.refs, self.counts)]
        if self.name == "kernels":
            return wl.kernel_properties(self.ops, outs)
        if self.name == "cli":
            return wl.cli_properties(self.ops, outs)
        ran = [i for i, out in enumerate(outs) if out is not None]
        ops = [self.ops[i] for i in ran]
        self.pair_props = dict(zip(ran, wl.d_pair_properties(ops)))
        return wl.d_properties(ops, [outs[i] for i in ran], [self.pair_props[i] for i in ran])

    def expected_outputs(self):
        """One pass over the ops: (group digests, transpose verdicts by
        base index), for bench/expected.json."""
        outs = []
        for op in self.ops:
            try:
                outs.append(op.fn(*op.args))
            except Exception as exc:
                outs.append(exc)
        groups, verdicts = {}, {}
        for op, out in zip(self.ops, outs):
            groups.setdefault(op.group, []).append(self.wl.canonical(out))
            if op.info.get("partner") == "transpose":
                verdicts[op.info["base"]] = "Y" if out.holds else "N"
        digests = {group: digest(texts) for group, texts in sorted(groups.items())}
        return digests, "".join(verdicts[i] for i in sorted(verdicts))


# ---------------------------------------------------------------------------
# end-to-end metrics


def end_to_end(work, setup_s, best, executions, busy):
    """The host's speed drifts by up to 2x within seconds (the same fixed
    work took 134-370 ms across a minute on the 2-core reference box),
    so each op in the pool is taken at the best of its executions in the
    run, and rates and percentiles are over those per-op latencies.  The
    pool size is fixed per workload, so the tail percentile is too."""
    lat = sorted(x for x in best if x != INF)
    pct = tail_percentile(len(lat))
    who = resource.RUSAGE_CHILDREN if work.name == "cli" else resource.RUSAGE_SELF
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, pct) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    detail = {
        "pool_ops_run": len(lat),
        "executions": executions,
        "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for x in lat if x > percentile(lat, pct)),
        "raw_ops_per_s": executions / busy,
    }
    return values, detail


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)


def _median_us(tracer, name, scale=1e6):
    durs = tracer.durations(name)
    return statistics.median(durs) * scale if durs else None


def kernel_layers(work, tracer):
    m = {
        "semiring.scalar_op_ns": _median_us(tracer, "semiring.scalar_batch", 1e9)
        / (4 * work.wl.SCALAR_BATCH),
    }
    for name in ("linalg.bracket", "linalg.hilbert", "linalg.mat_mul", "convex.member",
                 "convex.weak_basis", "duality.theta", "duality.theta_prime",
                 "duality.kernel_witness", "greens.leq_R", "greens.rel_h"):
        m[name + "_us"] = _median_us(tracer, name)
    return m


def d_extras(work, tracer, slots):
    """Traced calls around the rel_D pairs the loop ran: fresh weak bases
    of both column spaces, and bridge re-verification of yes verdicts."""
    from trop.convex import col_span, row_span, span_equal

    for slot in slots:
        a, b = work.ops[slot].args
        tracer.begin("extras", slot)
        tracer.call("convex.weak_basis", slot, lambda m: col_span(m).weak_basis(), a)
        tracer.call("convex.weak_basis", slot, lambda m: col_span(m).weak_basis(), b)
        verdict = work.refs[slot]
        if getattr(verdict, "holds", False):
            bridge = verdict.bridge
            tracer.call("convex.span_equal", slot, span_equal, row_span(bridge), row_span(a))
            tracer.call("convex.span_equal", slot, span_equal, col_span(bridge), col_span(b))
        tracer.end()


def d_layers(work, tracer):
    rel_d = {}  # slot -> first traced rel_D duration
    by_verdict = {True: [], False: []}
    by_k = {}
    n = len(work.ops)
    for name, start, end, _, op in tracer.spans:
        if name != "greens.rel_D":
            continue
        slot = op % n
        rel_d.setdefault(slot, end - start)
        verdict = work.refs[slot]
        by_verdict[getattr(verdict, "holds", False)].append(end - start)
        by_k.setdefault(work.pair_props[slot]["k"], []).append(end - start)
    slots = sorted(rel_d)
    d_extras(work, tracer, slots)
    weak = {}
    for name, start, end, _, slot in tracer.spans:
        if name == "convex.weak_basis":
            weak[slot] = weak.get(slot, 0.0) + end - start
    props = [work.pair_props[s] for s in slots]
    m = {}
    if work.name == "d-mixed":
        m["greens.rel_D_yes_ms"] = statistics.median(by_verdict[True]) * 1e3
        m["greens.rel_D_no_ms"] = statistics.median(by_verdict[False]) * 1e3
        for k in range(1, 5):
            m[f"greens.rel_D.k{k}_ms"] = statistics.median(by_k[k]) * 1e3
        m["convex.weak_basis.share_of_rel_D"] = sum(weak.values()) / sum(rel_d.values())
        m["convex.span_equal_us"] = _median_us(tracer, "convex.span_equal")
        m["greens.rel_D.sigma_candidates"] = sum(p["sigma_candidates"] for p in props)
        m["greens.rel_D.disconnected_share"] = sum(p["disconnected"] for p in props) / len(props)
    else:
        m["greens.rel_D.disconnected_ms"] = statistics.median(
            by_verdict[True] + by_verdict[False]
        ) * 1e3
    return m


def cli_layers(work, tracer):
    from trop import formats

    tracer.begin("extras", -1)
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        took = child_import_seconds("trop.cli")
        tracer.record("cli.import", start, start + took, -1)
    for slot, op in enumerate(work.ops):
        tracer.call("cli.main", slot, work.wl.run_inprocess, op.args)
    texts = []
    for op in work.ops:
        for arg in op.args:
            if arg.endswith(".mat") and not os.path.basename(arg).startswith("bad"):
                with open(arg) as fh:
                    texts.append(fh.read())
    for _ in range(20):
        for i, text in enumerate(texts):
            m = tracer.call("formats.parse_matrix", i, formats.parse_matrix, text)
            tracer.call("formats.format_matrix", i, formats.format_matrix, m)
    probe = work.runner(*work.wl.CLI_CONTRACT_PROBE)
    tracer.end()
    return {
        "cli.import_ms": _median_us(tracer, "cli.import", 1e3),
        "cli.main_inproc_ms": _median_us(tracer, "cli.main", 1e3),
        "formats.parse_matrix_us": _median_us(tracer, "formats.parse_matrix"),
        "formats.format_matrix_us": _median_us(tracer, "formats.format_matrix"),
        "cli.exit_contract_violations": int(probe.code != 2 or probe.traceback),
    }


def harness_layers(seed, tracer):
    from trop.harness import default_config, run_property

    m = {}
    for pid, trials in HARNESS_TRIALS.items():
        cfg = default_config(pid, seed=seed, trials=trials, dim_range=HARNESS_DIMS.get(pid))
        start = perf_counter()
        run_property(cfg)
        end = perf_counter()
        tracer.record(f"harness.{pid}", start, end, -1)
        m[f"harness.{pid}.trials_per_s"] = trials / (end - start)
    return m


def layer_metrics(work, tracer):
    if work.name == "kernels":
        return kernel_layers(work, tracer)
    if work.name == "cli":
        return cli_layers(work, tracer)
    work.properties()
    return d_layers(work, tracer)


# ---------------------------------------------------------------------------


def load_expected():
    path = BENCH / "expected.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_workload(name, args, bench_meta, workdir):
    from tracing import Tracer

    work = Workload(name, args.seed, workdir)
    setup_s = work.setup()
    record = {
        "workload": name,
        "why": bench_meta["why"][name],
        "sizes": work.wl.SIZES[name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_clients": 1,
        "ops_in_pool": len(work.ops),
    }
    if not args.trace:
        # set-up repeats between stretches of the run, so the median
        # set-up time sees the same host drift as the ops
        best = [INF] * len(work.ops)
        setups, executions, busy = [setup_s], 0, 0.0
        for rep in range(SETUP_REPEATS):
            if rep:
                setups.append(work.setup_once()[1])
            ran, took = work.loop(args.seconds / SETUP_REPEATS, best)
            executions += ran
            busy += took
        metrics, record["latency"] = end_to_end(
            work, statistics.median(setups), best, executions, busy
        )
        record["setup_s_each"] = setups
        spans = None
    else:
        # untraced and traced stretches alternate, so host drift hits both;
        # overhead compares each op's best time with and without spans
        tracer = Tracer()
        plain, spanned = [INF] * len(work.ops), [INF] * len(work.ops)
        stretch = args.seconds / (2 * TRACE_ALTERNATIONS)
        for _ in range(TRACE_ALTERNATIONS):
            work.loop(stretch, plain)
            work.loop(stretch, [INF] * len(work.ops), tracer=tracer)
        n = len(work.ops)
        for span_name, start, end, _, op in tracer.spans:
            if span_name == "op" and end - start < spanned[op % n]:
                spanned[op % n] = end - start
        both = [s for s in range(n) if plain[s] != INF and spanned[s] != INF]
        plain_s = sum(plain[s] for s in both)
        spanned_s = sum(spanned[s] for s in both)
        metrics = layer_metrics(work, tracer)
        metrics["trace.overhead_share"] = spanned_s / plain_s - 1
        record["trace_overhead"] = {"untraced_s": plain_s, "traced_s": spanned_s,
                                    "ops_compared": len(both)}
        spans = {name: tracer}
        # layers owned by the other workloads, from one short traced pass each
        for other in bench_meta["order"]:
            if other == name:
                continue
            probe = Workload(other, args.seed, workdir)
            probe.setup()
            t = Tracer()
            probe.loop(60, [INF] * len(probe.ops), tracer=t,
                       max_ops=2 if other == "d-disconnected" else len(probe.ops))
            metrics.update(layer_metrics(probe, t))
            spans[other] = t
        t = Tracer()
        metrics.update(harness_layers(args.seed, t))
        spans["harness"] = t
        record["spans"] = {wname: tr.summary() for wname, tr in spans.items()}
    attempted, failed, record["check"] = work.check(load_expected().get(name, {}))
    record["input_properties"] = work.properties()
    if name == "cli":
        probe = work.runner(*work.wl.CLI_CONTRACT_PROBE)
        record["exit_contract_probe"] = {
            "argv": work.wl.CLI_CONTRACT_PROBE, "expected_exit": 2,
            "exit": probe.code, "traceback": probe.traceback,
        }
    if spans is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        for wname, tr in spans.items():
            tr.write(out / f"spans-{name}-{args.seed}-{wname}.jsonl")
    return metrics, attempted, failed, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    meta_path = ROOT / "BENCHMARK.json"
    if not meta_path.is_file():
        fail("BENCHMARK.json not found; run from the root of a trop checkout")
    load_trop()
    sys.path.insert(0, str(BENCH))
    meta = json.loads(meta_path.read_text())
    bench_meta = {
        "why": {w["name"]: w["why"] for w in meta["workloads"]},
        "order": [w["name"] for w in meta["workloads"]],
        "units": {m["name"]: m["unit"] for m in meta["end_to_end"] + meta["per_layer"]},
    }
    names = bench_meta["order"] if args.workload == "all" else [args.workload]
    if any(n not in bench_meta["why"] for n in names):
        fail(f"unknown workload {args.workload!r}; one of {bench_meta['order']} or all")

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results = [run_workload(n, args, bench_meta, str(workdir)) for n in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"commit": commit_id(), "src_sha256": src_digest(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "machine": platform.machine()}
    units = bench_meta["units"]
    combined, attempted, failed = {}, 0, 0
    for metrics, att, fl, record in results:
        record.update(env)
        record["fail_ratio"] = fl / att
        name = record["workload"]
        print(f"workload {name} seed {args.seed}: {att} ops, {fl} failed")
        for metric, value in metrics.items():
            print(f"  {metric:40s} {value!r} {units.get(metric, '')}")
        if not args.trace:
            print(f"  {'fail_ratio':40s} {fl / att!r} ratio")
        print("record " + json.dumps(record, sort_keys=True))
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, value in metrics.items():
            combined[prefix + metric] = {"value": value, "unit": units.get(metric, "")}
        if not args.trace:
            combined[prefix + "ok_ratio"] = {"value": 1 - fl / att, "unit": "ratio"}
        attempted += att
        failed += fl
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))


if __name__ == "__main__":
    main()
