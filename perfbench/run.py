"""Benchmark harness for delpezzo: one workload per run, one process, one caller.

    python3 perfbench/run.py --workload {classify,verify,decompose} \
        --seed N --seconds S --trace {0,1}

The harness is a closed loop with a single caller: each call into the
library starts when the previous one has returned.  Inputs come from the
seed and the pinned catalog (inputs.py); the library receives only the
generated matrices.  After set-up the run measures whole passes over the
workload's inputs for about --seconds (at least one pass, and no pass that
would end more than half a pass past the limit), checks every output
(checks.py) and prints the metrics named in BENCHMARK.json as one JSON
object on the last line of stdout.  Times are reference seconds: wall time
rescaled by a speed probe sampled during the run (speed.py), so that the
host's speed phases do not show as regressions.  With --trace 1 it instead
makes one pass with the span recorder installed (tracer.py) and prints the
per-layer metrics in wall time, with an estimate of the time the recorder
added.

Workloads (why each one was chosen is in BENCHMARK.json):
  classify   one operation is a cold `dpz classify n --format json` for
             n = 2..8 through cli.main, after classify_involutions.cache_clear()
  verify     check_reducible(g, n, height_bound=2) on K-stabilizer and
             O(M_n) conjugates of the catalog representatives, n = 3..8
  decompose  decompose(g, n, height_bound=10) on the representatives and
             two K-stabilizer and two O(M_n) conjugates of each

A record of each run (environment, input digest, latencies, wall times,
probe timings, failed operations) goes to perfbench/out/, with the spans
of a traced run.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

T_START = time.perf_counter()   # set-up of this process starts here
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("classify", "verify", "decompose")
CLASSIFY_NS = tuple(range(2, 9))
VERIFY_BOUND = 2           # the fixed bound of acceptance criterion 8(ii)
DECOMPOSE_BOUND = 10       # the library default, passed explicitly
# set-up runs this often and its median is reported; the first run is cold,
# the others re-import delpezzo with its dependencies already loaded
SETUP_REPEATS = 5


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


class Bench:
    """One workload: set-up, timed passes, output checks."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.ops: list = []

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        """Fresh import of delpezzo, its root tables for n = 2..8, the inputs."""
        import inputs

        for name in [m for m in sys.modules if m == "delpezzo" or m.startswith("delpezzo.")]:
            del sys.modules[name]
        importlib.import_module("delpezzo")
        self.cli = importlib.import_module("delpezzo.cli")
        self.irr = importlib.import_module("delpezzo.irreducibility")
        self.lat = importlib.import_module("delpezzo.lattice")
        # held before any tracing replaces the module attribute
        self.classify_involutions = importlib.import_module(
            "delpezzo.involutions").classify_involutions
        for n in CLASSIFY_NS:
            importlib.import_module("delpezzo.weyl").enumerate_roots(n)
            importlib.import_module("delpezzo.permgroup").root_action_context(n)
        if self.workload == "classify":
            self.ops = [["classify", str(n), "--format", "json"] for n in CLASSIFY_NS]
        elif self.workload == "verify":
            self.ops = inputs.verify_stream(self.seed)
        else:
            self.ops = inputs.decompose_stream(self.seed)

    def input_digest(self) -> str:
        import inputs

        if self.workload == "classify":
            return inputs.digest(self.ops)
        return inputs.digest([[op.n, op.label, op.kind, op.matrix] for op in self.ops])

    # -- one pass ----------------------------------------------------------
    def run_pass(self, rec=None):
        """((start, end) clock stamps of each call, output of each call)."""
        clock = time.perf_counter
        stamps, outs = [], []
        if self.workload == "classify":
            self.classify_involutions.cache_clear()
            for i, argv in enumerate(self.ops):
                if rec is not None:
                    rec.op = i
                buf = io.StringIO()
                t0 = clock()
                try:
                    with contextlib.redirect_stdout(buf):
                        rc = self.cli.main(argv)
                except Exception as exc:  # a raising call is a failed operation
                    rc = f"raised {exc!r}"
                stamps.append((t0, clock()))
                outs.append((rc, buf.getvalue()))
            return stamps, outs
        lattice = self.lat.del_pezzo_lattice
        Isometry = self.lat.Isometry
        for i, op in enumerate(self.ops):
            if rec is not None:
                rec.op = i
            t0 = clock()
            try:
                g = Isometry(lattice(op.n), op.matrix)
                if self.workload == "verify":
                    res = self.irr.check_reducible(g, op.n, height_bound=VERIFY_BOUND)
                else:
                    res = self.irr.decompose(g, op.n, height_bound=DECOMPOSE_BOUND)
            except Exception as exc:  # a raising call is a failed operation
                res = f"raised {exc!r}"
            stamps.append((t0, clock()))
            outs.append(res if isinstance(res, str) else res.to_json())
        return stamps, outs

    # -- checks ------------------------------------------------------------
    def check(self, outs):
        """(failed operations of one pass, correctness errors, notes)."""
        import checks
        import inputs

        failed, errors, notes = 0, [], []
        if self.workload == "classify":
            for argv, (rc, stdout) in zip(self.ops, outs):
                n = int(argv[1])
                if rc != 0:
                    notes.append(f"dpz {' '.join(argv)}: exit {rc}")
                    continue
                errors += checks.classify_output(n, stdout)
                reps = {c.label: c.representative for c in self.classify_involutions(n)}
                for row in json.loads(stdout)["classes"]:
                    if row["verdict"] == checks.UNKNOWN:
                        notes.append(f"n={n} {row['label']}: Unknown")
                    errors += checks.certificate(
                        {"status": row["verdict"], "certificate": row["certificate"]},
                        reps[row["label"]], inputs.PINNED_VERDICT.get((n, row["label"])),
                        f"n={n} {row['label']}")
            # the whole cold pass is one operation
            return int(bool(notes)), errors, notes
        Isometry, lattice = self.lat.Isometry, self.lat.del_pezzo_lattice
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            where = f"op {i} (n={op.n} {op.label} {op.kind})"
            expected = inputs.PINNED_VERDICT[(op.n, op.label)]
            if isinstance(out, str):
                failed += 1
                notes.append(f"{where}: {out}")
            elif self.workload == "verify":
                if out["status"] == checks.UNKNOWN:
                    failed += 1
                    notes.append(f"{where}: Unknown")
                errors += checks.certificate(out, Isometry(lattice(op.n), op.matrix),
                                             expected, where)
            else:
                errors += checks.decomposition(op.n, op.matrix, out, expected, where)
                short = checks.split_shortfall(op.n, op.label, out)
                if out["leaf"]["verdict"] == checks.UNKNOWN:
                    failed += 1
                    notes.append(f"{where}: leaf Unknown")
                elif short and op.kind == "rep":
                    errors.append(f"{where}: {short}")
                elif short:
                    # the known conjugation defect: a failed operation, like Unknown
                    failed += 1
                    notes.append(f"{where}: {short}")
                split, leaf_rank = inputs.PINNED_SPLIT[op.n, op.label]
                if len(out["leaf"]["basis"]) < leaf_rank:
                    notes.append(f"{where}: leaf of rank {len(out['leaf']['basis'])}, "
                                 f"smaller than pinned {leaf_rank}")
                elif op.kind == "rep" and checks.split_counts(out) != split:
                    notes.append(f"{where}: split {checks.split_counts(out)}, pinned {split}")
        return failed, errors, notes


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "networkx": metadata.version("networkx"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "DPZ_HEIGHT_BOUND": os.environ.get("DPZ_HEIGHT_BOUND"),
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "delpezzo" / "__init__.py").is_file():
        print(f"run.py: no delpezzo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("DPZ_HEIGHT_BOUND", None)
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed)
    clock = time.perf_counter
    # an untraced run converts every timed interval to reference seconds
    # (speed.py); a traced run reports plain wall time and no probe runs
    # inside its spans
    sampler = None if args.trace else speed.Sampler()
    if sampler is not None:
        sampler.start()
    rec = None
    try:
        setup_stamps = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            bench.setup()
            setup_stamps.append((t0, clock()))
        if Path(sys.modules["delpezzo"].__file__).parent != SRC / "delpezzo":
            print(f"run.py: imported delpezzo from {sys.modules['delpezzo'].__file__}",
                  file=sys.stderr)
            return 2
        if args.trace:
            import tracer

            rec = tracer.Recorder()
            rec.install()
        passes, stamps, outputs, pass_errors = [], [], None, []
        t_begin = clock()
        # a traced run makes one pass
        while not passes or (rec is None and clock() - t_begin
                             + (clock() - t_begin) / len(passes) / 2 < args.seconds):
            t0 = clock()
            op_stamps, outs = bench.run_pass(rec)
            passes.append((t0, clock()))
            stamps.append(op_stamps)
            if outputs is None:
                outputs = outs
            elif outs != outputs:
                pass_errors.append("outputs differ between passes")
    finally:
        if rec is not None:
            rec.uninstall()
        if sampler is not None:
            sampler.stop()

    def wall(t0, t1):
        return t1 - t0

    ref = wall if sampler is None else sampler.reference_s
    failed, errors, notes = bench.check(outputs)
    errors += pass_errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_pass = 1 if args.workload == "classify" else len(bench.ops)
    attempted = per_pass * len(passes)
    n_failed = failed * len(passes)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if rec is not None:
        pass_s = wall(*passes[0])
        overhead_s = rec.overhead_s()
        metrics = rec.summary()
        metrics.update({
            "trace.pass_s": pass_s,
            "trace.overhead_frac": overhead_s / (pass_s - overhead_s),
            "trace.spans": len(rec.spans),
        })
        rec.write(stem.with_suffix(".spans.tsv"))
        wanted = spec["per_layer"]
    else:
        pass_s = [ref(*p) for p in passes]
        # on classify one operation is the whole cold pass over n = 2..8
        per_op = pass_s if args.workload == "classify" else [
            ref(*st) for op_stamps in stamps for st in op_stamps]
        metrics = {
            "setup_s": statistics.median(ref(*st) for st in setup_stamps),
            "pass_s": statistics.median(pass_s),
            "op_ms_p50": 1000 * statistics.median(per_op),
            "op_ms_p90": 1000 * _percentile(per_op, 90),
            "ops_per_s": attempted / sum(pass_s),
            "decided_frac": (attempted - n_failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]

    names = sorted(m["name"] for m in wanted)
    if names != sorted(metrics):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(names))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "inputs": len(bench.ops), "input_digest": bench.input_digest(),
        # wall-clock seconds; metrics and latency_ms are reference time (speed.py)
        "setup_runs_wall_s": [wall(*st) for st in setup_stamps],
        "start_to_first_op_wall_s": t_begin - T_START,
        "passes_wall_s": [wall(*p) for p in passes],
        "latency_ms": [[round(1000 * ref(*st), 3) for st in op_stamps]
                       for op_stamps in stamps],
        "probe_quartiles_s": None if sampler is None else sampler.probe_quartiles(),
        "failed_per_pass": failed, "errors": errors, "notes": notes,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed} inputs={len(bench.ops)} "
          f"digest={record['input_digest']} passes={len(passes)} "
          f"wall_s={sum(record['passes_wall_s']):.2f} "
          f"failed={failed}/{per_pass} per pass, errors={len(errors)} "
          f"peak_rss_mb={record['peak_rss_mb']:.1f}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for line in (errors + notes)[:20]:
        print(f"# {line}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
