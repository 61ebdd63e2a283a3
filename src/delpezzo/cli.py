"""Command line interface: classification tables and matrix checks.

Exit codes: 0 success, 2 input error, 3 undecided verdict.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional

from .errors import InputError, UnsupportedError, all_json_ints, is_json_int
from . import criteria
from . import exactlinalg as xl
from .lattice import Isometry, blowup_quadric_lattice, del_pezzo_lattice
from . import involutions as inv
from . import irreducibility as irr
from . import models
from .weyl import enumerate_roots, weyl_order

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDECIDED = 3


def _emit(payload, fmt: str, text_lines: List[str], csv_rows=None, csv_header=None):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if csv_header:
            writer.writerow(csv_header)
        for row in csv_rows or []:
            writer.writerow(row)
        sys.stdout.write(out.getvalue())
    else:
        for line in text_lines:
            print(line)


def _realizing_name(cls, status: str) -> Optional[str]:
    """The named model in the class of an irreducible representative: the
    one whose class triple is the class's."""
    if status != irr.IRREDUCIBLE:
        return None
    n = cls.n
    named = []
    if n in (5, 7):
        dj = models.de_jonquieres(n)
        named.append((f"DeJonquieres({dj.degree})", dj.isometry))
    if n == 7:
        named.append(("Geiser", models.geiser().isometry))
    if n == 8:
        named.append(("Bertini", models.bertini().isometry))
    triple = cls.invariant.class_triple()
    for label, g in named:
        # the models fix K and square to 1, so their triples need no check
        if inv._class_triple(g, n)[1] == triple:
            return label
    return None


def _carter_label(cls) -> str:
    suffix = cls.label[len(f"m{cls.carter_exponent}"):]
    tag = f"(A1)^{cls.carter_exponent}"
    return tag + (f" {suffix}" if suffix else "")


def cmd_classify(args) -> int:
    n = args.n
    if not 1 <= n <= 8:
        raise InputError("classification requires 1 <= n <= 8")
    bound = criteria.resolve_height_bound(None)
    rows = []
    for cls in inv.classify_involutions(n):
        # the representative fixes K: its class keeps the eigen data
        # check_reducible would build, with the invariant flags' route results
        verdict = irr._verdict(cls._eigen_data, n, bound)
        name = _realizing_name(cls, verdict.status)
        cert = verdict.certificate
        rows.append({
            "n": n,
            "label": cls.label,
            "carter": _carter_label(cls),
            "invariant": cls.invariant.to_json(),
            "verdict": verdict.status,
            "name": name,
            "certificate": cert.to_json() if cert else None,
            "class_size": cls.class_size,
        })
    text = [f"n={n}: {len(rows)} involution classes"]
    csv_rows = []
    for r in rows:
        zg = r["invariant"]["zg"]
        cert_kind = r["certificate"]["kind"] if r["certificate"] else "-"
        text.append(
            f"  {r['label']:<4} {r['carter']:<10} zg={tuple(zg)} "
            f"{r['verdict']:<11} {r['name'] or '-':<16} {cert_kind}"
        )
        csv_rows.append([n, r["label"], r["carter"], *zg, r["verdict"],
                         r["name"] or "-", cert_kind])
    _emit({"n": n, "classes": rows}, args.format, text, csv_rows,
          ["n", "label", "carter", "zg_t", "zg_c", "zg_r", "verdict", "name",
           "certificate_kind"])
    return EXIT_OK


def cmd_roots(args) -> int:
    count = len(enumerate_roots(args.n))
    _emit({"n": args.n, "roots": count}, args.format, [str(count)],
          [[args.n, count]], ["n", "roots"])
    return EXIT_OK


def cmd_order(args) -> int:
    order = weyl_order(args.n)
    _emit({"n": args.n, "order": order}, args.format, [str(order)],
          [[args.n, order]], ["n", "order"])
    return EXIT_OK


def _named_model(name: str, n: Optional[int]) -> models.NamedInvolution:
    name = name.lower()
    if name == "geiser":
        return models.geiser()
    if name == "bertini":
        return models.bertini()
    if name == "dejonquieres":
        if n is None:
            raise InputError("--n is required for the dejonquieres model")
        return models.de_jonquieres(n)
    raise InputError(f"unknown model name: {name}")


def cmd_model(args) -> int:
    model = _named_model(args.name, args.n)
    text = [f"{model.name} (n={model.n}, basis={model.basis})"]
    for row in model.isometry.matrix:
        text.append("  " + " ".join(f"{x:3d}" for x in row))
    _emit(model.to_json(), args.format, text,
          [list(r) for r in model.isometry.matrix])
    return EXIT_OK


def _load_matrix(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read matrix file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"matrix file is not valid JSON: {exc}")
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError('matrix file must be a JSON object with a "matrix" key')
    raw = data["matrix"]
    basis = data.get("basis", "HE")
    if basis not in ("HE", "quadric"):
        raise InputError('basis must be "HE" or "quadric"')
    if not isinstance(raw, list) or not all(
            isinstance(row, list) and all_json_ints(row) for row in raw):
        raise InputError("matrix must be a list of rows of integers")
    matrix = tuple(tuple(row) for row in raw)
    rank = len(matrix)
    if rank < 2 or any(len(r) != rank for r in matrix):
        raise InputError("matrix must be square of rank at least 2")
    n = rank - 1
    if "n" in data and not (is_json_int(data["n"]) and data["n"] == n):
        raise InputError(f'"n" must equal the matrix rank minus 1 ({n})')
    if basis == "quadric":
        g_q = Isometry(blowup_quadric_lattice(n), matrix)
        change = models.quadric_basis_change(n)
        return change.conjugate(g_q), n, basis
    return Isometry(del_pezzo_lattice(n), matrix), n, basis


def _to_basis(coords, n: int, basis: str):
    if basis == "HE":
        return list(coords)
    return xl.mat_vec(models.quadric_basis_change(n).inverse, coords)


def cmd_check(args) -> int:
    g, n, basis = _load_matrix(args.matrix_file)
    verdict = irr.check_reducible(g, n)
    payload = verdict.to_json()
    if payload["certificate"] and basis == "quadric":
        payload["certificate"]["witnesses"] = [
            _to_basis(w, n, basis) for w in payload["certificate"]["witnesses"]
        ]
    payload["basis"] = basis
    text = [f"verdict: {verdict.status}"]
    if verdict.certificate:
        text.append(f"certificate: {verdict.certificate.kind}")
        for w in payload["certificate"]["witnesses"]:
            text.append(f"  witness: {w}")
        text.append(f"narrative: {verdict.certificate.narrative}")
    _emit(payload, args.format, text)
    return EXIT_UNDECIDED if verdict.status == irr.UNKNOWN else EXIT_OK


def cmd_decompose(args) -> int:
    g, n, basis = _load_matrix(args.matrix_file)
    tree = irr.decompose(g, n)
    payload = tree.to_json()
    if basis == "quadric":
        for step in payload["steps"]:
            step["basis"] = [_to_basis(b, n, basis) for b in step["basis"]]
        payload["leaf"]["basis"] = [
            _to_basis(b, n, basis) for b in payload["leaf"]["basis"]
        ]
    payload["basis"] = basis
    text = [f"{len(payload['steps'])} split(s); leaf: "
            f"{payload['leaf']['lattice_type']} rank {len(payload['leaf']['basis'])} "
            f"({payload['leaf']['verdict']})"]
    for step in payload["steps"]:
        text.append(f"  {step['action']}: {step['basis']}")
    _emit(payload, args.format, text)
    return EXIT_UNDECIDED if payload["leaf"]["verdict"] == irr.UNKNOWN else EXIT_OK


def cmd_defect(args) -> int:
    if args.name:
        model = _named_model(args.name, args.n)
        g = model.isometry
    elif args.matrix_file:
        g, _n, _basis = _load_matrix(args.matrix_file)
    else:
        raise InputError("provide a matrix file or --name")
    if args.twist:
        g = irr.negation_twist(g)
    value = models.defect_sum(g)
    _emit({"defect_sum": value}, args.format, [str(value)],
          [[value]], ["defect_sum"])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dpz",
        description="Exact lattice computations for involutions of "
                    "blowup intersection forms.",
        epilog="Environment: DPZ_HEIGHT_BOUND overrides the search height "
               "bound for indefinite lattices (default 10); it must be a "
               "positive integer, and any other value makes classify, check "
               "and decompose exit with code 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json", "csv"],
                       default="text", help="output format")

    p = sub.add_parser("classify", help="involution class table for index n")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("roots", help="number of roots for index n")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("order", help="order of the group the simple reflections generate "
                                     "for index n: the K-stabilizer for n >= 3; for n = 2 it "
                                     "also holds the reflection in H-E1-E2, which moves K")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("model", help="named involution model as a matrix")
    p.add_argument("--name", required=True,
                   choices=["geiser", "bertini", "dejonquieres"])
    p.add_argument("--n", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("check", help="reducibility certificate for a matrix file")
    p.add_argument("matrix_file")
    add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="orthogonal splitting of a matrix file")
    p.add_argument("matrix_file")
    add_format(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("defect", help="signature defect sum")
    p.add_argument("matrix_file", nargs="?")
    p.add_argument("--name", choices=["geiser", "bertini", "dejonquieres"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--twist", action="store_true",
                   help="apply the negation twist before computing")
    add_format(p)
    p.set_defaults(func=cmd_defect)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    # one parser per process: parse_args leaves it unchanged, and building it
    # costs more than a small command
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, UnsupportedError) as exc:
        print(f"dpz: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
