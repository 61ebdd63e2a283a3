"""Alternating benchmark pairs between two checkouts, summarised in a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload classify --seed 101 --pairs 10 \
        --out BENCH_name.json [--trace] [--what TEXT]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each checkout, one run at a time, in that checkout's own
directory, so each side imports its own `src`.  T is the `run_seconds` of
this repository's BENCHMARK.json, so both sides run as long as the benchmark
does.  The parent runs first on odd pairs and the change first on even
pairs, so a drift of the host's speed does not favour one side.  The last
stdout line of every run (run.py's JSON result) is kept.  For each
end-to-end metric of BENCHMARK.json the summary gives both sides' median and
quartiles, the number of pairs the change won (strictly better in the
metric's direction) and the change of the median as a fraction of the
parent's.  With --trace, TRACE_PASSES traced passes per side
(`--seconds 1 --trace 1`, one pass each, alternating as the pairs do) add
the median and quartiles of every per-layer metric that is nonzero in
some traced run: one traced pass varies as much as the host does, so a
layer figure needs repeats before two sides can be compared.

--workload and --seed may repeat; every (workload, seed) becomes one
comparison, named WORKLOAD_seed_SEED, whose summary records its own command,
host and run order, and the bytecode condition its runs start in
(host_bytecode): run.py imports the package several times in its set-up,
so without .pyc files every import compiles the source again, and setup_s
and peak_rss_mb then grow with the size of the source.  When --out exists,
its other keys, comparisons and runs are kept; a comparison run again
replaces its summary and runs.  A run that exits nonzero or prints no JSON
stops the driver.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_PASSES = 5


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """run.py's JSON result line for one run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}")
    return json.loads(lines[-1])


def host_bytecode(sides) -> dict:
    """The bytecode condition of the runs: PYTHONDONTWRITEBYTECODE as the
    runs inherit it (None when unset), and, for each side of sides (a dict
    of checkout paths), whether its src/delpezzo/__pycache__ exists."""
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "pycache": {side: (path / "src" / "delpezzo" / "__pycache__").is_dir()
                        for side, path in sides.items()}}


def side_order(pair: int):
    """The run order of pair number pair (from 1): parent first on odd pairs."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def quartiles(values, digits=4):
    """Median and quartiles (statistics.quantiles, exclusive method),
    rounded to digits."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": round(med, digits), "q1": round(q1, digits), "q3": round(q3, digits),
            "n": len(values)}


def summarise(pairs, metrics):
    """The summary of one comparison: pairs is a list of (parent, change)
    result lines, metrics the end_to_end entries of BENCHMARK.json."""
    out = {"pairs": len(pairs)}
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "median_change_frac": round((c_med - p_med) / p_med, 4) if p_med else 0.0,
        }
    out["correct"] = all(r["correct"] for pair in pairs for r in pair)
    out["failed"] = {"parent": sum(p["failed"] for p, _ in pairs),
                     "change": sum(c["failed"] for _, c in pairs)}
    return out


def summarise_traced(pairs):
    """The median and quartiles, per side, of every metric of the traced
    result lines in pairs, a list of (parent, change), that is nonzero in
    at least one of them."""
    names = sorted({k for pair in pairs for r in pair for k, v in r["metrics"].items()
                    if v["value"]})
    return {side: {k: quartiles([pair[i]["metrics"][k]["value"] for pair in pairs], 6)
                   for k in names}
            for i, side in enumerate(("parent", "change"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    choices=("classify", "verify", "decompose"))
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", action="store_true",
                    help=f"add {TRACE_PASSES} traced passes per side")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--what", default=None, help="what the change is, for the file")
    args = ap.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    bench = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "", "summary": {}, "runs": []}
    if args.what is not None:
        bench["what"] = args.what
    about = {
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                    "--trace 0 (traced runs: --seconds 1 --trace 1), each side in its own "
                    "checkout, one run at a time"),
        "host": (f"{platform.system()} {platform.machine()}, Python {platform.python_version()}; "
                 "times in reference seconds (perfbench/speed.py), traced runs in wall seconds"),
        "order": (f"{args.pairs} alternating pairs, parent first on odd pairs and change first "
                  "on even pairs" + (f"; then {TRACE_PASSES} traced passes per side, "
                                     "alternating the same way" if args.trace else "")),
    }
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workload:
        for seed in args.seed:
            name = f"{workload}_seed_{seed}"
            bench["runs"] = [r for r in bench["runs"] if r["comparison"] != name]
            bytecode = host_bytecode(sides)
            pairs = []
            for pair in range(1, args.pairs + 1):
                got = {}
                for side in side_order(pair):
                    got[side] = run_once(sides[side], workload, seed, seconds, 0)
                    bench["runs"].append({"comparison": name, "pair": pair, "side": side,
                                          "workload": workload, "seed": seed, "trace": 0,
                                          "last_line": got[side]})
                pairs.append((got["parent"], got["change"]))
                print(f"{name} pair {pair}: pass_s parent "
                      f"{got['parent']['metrics']['pass_s']['value']:.4f} change "
                      f"{got['change']['metrics']['pass_s']['value']:.4f}", flush=True)
            bench["summary"][name] = {**about, "host_bytecode": bytecode,
                                      **summarise(pairs, metrics)}
            if args.trace:
                traced_pairs = []
                for pair in range(1, TRACE_PASSES + 1):
                    got = {side: run_once(sides[side], workload, seed, 1, 1)
                           for side in side_order(pair)}
                    traced_pairs.append((got["parent"], got["change"]))
                traced = bench["summary"].setdefault("traced_wall_s_and_counts", {})
                traced[name] = summarise_traced(traced_pairs)
            args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
