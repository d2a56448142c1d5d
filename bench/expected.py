"""Regenerate bench/expected.json: per workload and seed, a digest of
the canonical text of every op's output, by golden group; and for the D
workloads the transpose verdict of each base matrix, which relabelling
must not change.

    python3 bench/expected.py 0 64          # seeds 0..63, every workload
    python3 bench/expected.py 0 64 kernels  # one workload

Run from the root of a checkout whose outputs are known to be right;
exact arithmetic makes the digests byte-stable across commits that do
not change an output.  Entries of other seeds and workloads are kept;
drop a workload's entry first when its ops change.
"""

import json
import os
import shutil
import sys

import run


def main():
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    meta = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = sys.argv[3:] or [w["name"] for w in meta["workloads"]]
    run.load_trop()
    path = run.BENCH / "expected.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    workdir = run.ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            for seed in range(lo, hi):
                work = run.Workload(name, seed, str(workdir))
                work.ops = work.build()
                digests, verdicts = work.expected_outputs()
                entry = table.setdefault(name, {})
                entry.setdefault("seeds", {})[str(seed)] = digests
                if verdicts:
                    known = entry.setdefault("transpose_verdicts", verdicts)
                    if known != verdicts:
                        sys.exit(f"{name} seed {seed}: transpose verdicts {verdicts} "
                                 f"differ from {known} under relabelling")
                print(name, seed, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per workload and seed
    lines = []
    for name in sorted(table):
        entry = table[name]
        head = {k: v for k, v in entry.items() if k != "seeds"}
        seeds = sorted(entry["seeds"].items(), key=lambda kv: int(kv[0]))
        body = ",\n".join(f"   {json.dumps(s)}: {json.dumps(d, sort_keys=True)}" for s, d in seeds)
        head_text = "".join(f"{json.dumps(k)}: {json.dumps(v)}, " for k, v in sorted(head.items()))
        lines.append(f' {json.dumps(name)}: {{{head_text}"seeds": {{\n{body}\n }}}}')
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
