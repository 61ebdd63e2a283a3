"""One table of output digests: the byte-identity check of the whole CLI and library.

    python3 tools/digests.py

Each entry is the first 16 hex digits of the sha256 of
json.dumps(outs, sort_keys=True), for outs:

  classify_n<N>_<bound>  the stdout of `dpz classify N --format json`, as one
                         string, for N = 1..8 at the default height bound and
                         at DPZ_HEIGHT_BOUND = 1..5; the class table is
                         cleared before each bound, so each runs cold, as a
                         fresh process does;
  verify_seed<S>_bound<B>  check_reducible(g, n, height_bound=B).to_json() on
                         every operation of perfbench/inputs.py's
                         verify_stream(S), for S = 101..103 and B = 1, 2, 10;
  decompose_seed<S>      decompose(g, n).to_json() on every operation of
                         decompose_stream(S), for S = 101..110, 17 and 211;
  negated_verify_seed101_bound<B>, negated_decompose_seed101
                         check_reducible(-g, n, height_bound=B).to_json(),
                         B = 2, 10, on every operation of verify_stream(101),
                         and decompose(-g, n).to_json() on every operation of
                         decompose_stream(101): -g has g_00 < 0, so no basis
                         of it fixes K and every indefinite side takes a box
                         anchor (criteria._find_anchor);
  e_reflections          for the reflections in E_1 and E_n of M_n, n = 2..8,
                         in that order, one list each of check_reducible at
                         bounds 1, 2 and 10 and decompose, to_json(): their
                         chamber conjugates and normal forms move K, so they
                         take box anchors too;
  normal_form_verify_seed<S>, normal_form_decompose_seed<S>
                         (s, I, h) of weyl.normal_form(g) on every operation
                         of verify_stream(S), S = 101..103, and of
                         decompose_stream(S), S = 101..110.  The tool also
                         prints how many draws the normal forms made beyond
                         the first of each input (its redraw count).

The verify and decompose streams make no box search; the negated and
e_reflections entries make 1783 and build 1135 anchored glue frames.

verify_seed101_bound2 and decompose_seed17 are the two digests that
tests/test_golden.py::test_stream_digests pins.

check_reducible keeps a record of route outcomes per class of K-fixing
involutions, which the stream fills in its own order.  So the tool also
replays each verify stream S in the same process, twice, from an empty
record each time: reversed at bound 2, the outputs put back in stream
order, and forward with each input at bounds 10, 1, 2 and 10 in turn.  It
compares each replay's outputs at a bound with verify_seed<S>_bound<B> and
names every one that differs.
perfbench/inputs.py is read, not changed, and the package is imported from
this checkout's src.

The tool prints the table and compares it with tools/digests.json: it exits
1 naming every entry that differs from the file, or is missing from it or
from the table, or whose replay differs, and 0 when all agree.
When the file does not exist it is written from the table.  A change that
moves an output rewrites the affected entries of the file (delete it and
run the tool once) and lists them.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_name("digests.json")
sys.path.insert(0, str(ROOT / "src"))

from delpezzo import cli, irreducibility, weyl  # noqa: E402
from delpezzo.involutions import classify_involutions  # noqa: E402
from delpezzo.irreducibility import check_reducible, decompose  # noqa: E402
from delpezzo.lattice import Isometry, del_pezzo_lattice  # noqa: E402
from delpezzo.weyl import reflection  # noqa: E402

CLASSIFY_BOUNDS = (None, 1, 2, 3, 4, 5)
VERIFY_SEEDS, VERIFY_BOUNDS = (101, 102, 103), (1, 2, 10)
REVERSED_BOUND, INTERLEAVED_BOUNDS = 2, (10, 1, 2, 10)
DECOMPOSE_SEEDS = tuple(range(101, 111)) + (17, 211)
NEGATED_SEED, NEGATED_BOUNDS = 101, (2, 10)
REFLECTION_BOUNDS = (1, 2, 10)
NORMAL_FORM_SEEDS = {"verify": VERIFY_SEEDS, "decompose": tuple(range(101, 111))}


def digest(outs) -> str:
    return hashlib.sha256(json.dumps(outs, sort_keys=True).encode()).hexdigest()[:16]


def bench_inputs():
    """perfbench/inputs.py as a module: the benchmark's input streams."""
    spec = importlib.util.spec_from_file_location("_bench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def classify_stdout(n: int, bound) -> str:
    """The stdout of `dpz classify n --format json`, with DPZ_HEIGHT_BOUND
    set to bound, or unset for None."""
    saved = os.environ.pop("DPZ_HEIGHT_BOUND", None)
    if bound is not None:
        os.environ["DPZ_HEIGHT_BOUND"] = str(bound)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["classify", str(n), "--format", "json"])
    finally:
        os.environ.pop("DPZ_HEIGHT_BOUND", None)
        if saved is not None:
            os.environ["DPZ_HEIGHT_BOUND"] = saved
    if code != cli.EXIT_OK:
        raise SystemExit(f"digests: dpz classify {n} exited {code} at bound {bound}")
    return out.getvalue()


def compute():
    """(the digest table, in the order of the module docstring, and the
    normal forms' redraw count)."""
    table = {}
    for bound in CLASSIFY_BOUNDS:
        classify_involutions.cache_clear()
        for n in range(1, 9):
            name = "default" if bound is None else f"bound{bound}"
            table[f"classify_n{n}_{name}"] = digest(classify_stdout(n, bound))
    inputs = bench_inputs()
    for seed in VERIFY_SEEDS:
        ops = verify_ops(inputs, seed)
        for bound in VERIFY_BOUNDS:
            table[f"verify_seed{seed}_bound{bound}"] = digest(
                [check_reducible(g, n, height_bound=bound).to_json() for g, n in ops])
    for seed in DECOMPOSE_SEEDS:
        table[f"decompose_seed{seed}"] = digest(
            [decompose(Isometry(del_pezzo_lattice(op.n), op.matrix), op.n).to_json()
             for op in inputs.decompose_stream(seed)])
    ops = verify_ops(inputs, NEGATED_SEED)
    for bound in NEGATED_BOUNDS:
        table[f"negated_verify_seed{NEGATED_SEED}_bound{bound}"] = digest(
            [check_reducible(g.negated(), n, height_bound=bound).to_json() for g, n in ops])
    table[f"negated_decompose_seed{NEGATED_SEED}"] = digest(
        [decompose(Isometry(del_pezzo_lattice(op.n), op.matrix).negated(), op.n).to_json()
         for op in inputs.decompose_stream(NEGATED_SEED)])
    table["e_reflections"] = digest(
        [[check_reducible(r, n, height_bound=bound).to_json() for bound in REFLECTION_BOUNDS]
         + [decompose(r, n).to_json()] for n in range(2, 9) for r in e_reflections(n)])
    redraws = 0
    for stream, seeds in NORMAL_FORM_SEEDS.items():
        for seed in seeds:
            ops = getattr(inputs, f"{stream}_stream")(seed)
            table[f"normal_form_{stream}_seed{seed}"], extra = normal_forms(
                [Isometry(del_pezzo_lattice(op.n), op.matrix) for op in ops])
            redraws += extra
    return table, redraws


def normal_forms(gs):
    """(digest of (s, I, h) of weyl.normal_form(g) over gs, the draws made
    beyond one per g), the draws counted by wrapping weyl._draws."""
    draws, drawn = weyl._draws, 0

    def counted(size):
        nonlocal drawn
        for u in draws(size):
            drawn += 1
            yield u

    weyl._draws = counted
    try:
        forms = [weyl.normal_form(g)[:3] for g in gs]
    finally:
        weyl._draws = draws
    return digest(forms), drawn - len(gs)


def e_reflections(n: int):
    """The reflections in E_1 and E_n of M_n."""
    lat = del_pezzo_lattice(n)
    return [reflection(lat.vector(tuple(int(j == i) for j in range(n + 1)))) for i in (1, n)]


def verify_ops(inputs, seed: int):
    """(g, n) for every operation of verify_stream(seed)."""
    return [(Isometry(del_pezzo_lattice(op.n), op.matrix), op.n)
            for op in inputs.verify_stream(seed)]


def reversed_differences(table: dict):
    """(name, replay) for every verify_seed<S>_bound<B> whose digest over a
    replay of the stream, from an empty class record, is not the table's:
    the reversed stream at REVERSED_BOUND, put back in stream order, and
    the stream with each input at INTERLEAVED_BOUNDS in turn, one digest
    per position."""
    inputs = bench_inputs()
    differs = []
    for seed in VERIFY_SEEDS:
        ops = verify_ops(inputs, seed)
        irreducibility._clear_class_record()
        outs = [check_reducible(g, n, height_bound=REVERSED_BOUND).to_json()
                for g, n in reversed(ops)]
        name = f"verify_seed{seed}_bound{REVERSED_BOUND}"
        if digest(outs[::-1]) != table[name]:
            differs.append((name, "over the reversed stream"))
        irreducibility._clear_class_record()
        streams = [[] for _ in INTERLEAVED_BOUNDS]
        for g, n in ops:
            for stream, bound in zip(streams, INTERLEAVED_BOUNDS):
                stream.append(check_reducible(g, n, height_bound=bound).to_json())
        for i, (stream, bound) in enumerate(zip(streams, INTERLEAVED_BOUNDS)):
            name = f"verify_seed{seed}_bound{bound}"
            if digest(stream) != table[name]:
                differs.append((name, f"interleaved, at position {i + 1} of {len(streams)}"))
    return differs


def main() -> int:
    if len(sys.argv) > 1:
        raise SystemExit("usage: python3 tools/digests.py (it takes no option)")
    got, redraws = compute()
    reordered = reversed_differences(got)
    for name, replay in reordered:
        print(f"{name:30s} DIFFERS {replay}")
    recorded = json.loads(TABLE.read_text()) if TABLE.exists() else None
    differs = []
    for name, value in got.items():
        was = None if recorded is None else recorded.get(name)
        note = "" if recorded is None or was == value else f"  DIFFERS (recorded {was})"
        if note:
            differs.append(name)
        print(f"{name:30s} {value}{note}")
    print(f"normal forms: {redraws} redraws")
    if recorded is None:
        TABLE.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {len(got)} entries to {TABLE.relative_to(ROOT)}")
        return int(bool(reordered))
    for name in sorted(set(recorded) - set(got)):
        print(f"{name:30s} {'-' * 16}  DIFFERS (recorded {recorded[name]}, not computed)")
        differs.append(name)
    if differs:
        print(f"{len(differs)} of {len(got)} entries differ: {' '.join(differs)}")
    if differs or reordered:
        return 1
    bounds = ", ".join(map(str, INTERLEAVED_BOUNDS))
    print(f"all {len(got)} entries match {TABLE.relative_to(ROOT)}, and each verify "
          f"stream reversed at bound {REVERSED_BOUND} and interleaved at bounds {bounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
