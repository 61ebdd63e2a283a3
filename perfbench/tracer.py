"""Span recorder that wraps public functions of delpezzo by attribute replacement.

Each wrapped call records one span: (function, start, end, parent span,
operation id, info).  A generator records one span per next() call.  The
very hot LatticeVector.dot only counts its calls: it reads no clock, so its
time stays inside its caller's self time.  Spans stay in memory until the
run writes them out; self time and counters are derived from them.
"""
from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple

# (layer, module, attribute, kind); a dotted attribute names a class member
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("exactlinalg", "delpezzo.exactlinalg", "kernel", "span"),
    ("exactlinalg", "delpezzo.exactlinalg", "det", "span"),
    ("exactlinalg", "delpezzo.exactlinalg", "sylvester_signature", "span"),
    ("exactlinalg", "delpezzo.exactlinalg", "f2_solvable", "span"),
    ("exactlinalg", "delpezzo.exactlinalg", "inverse", "span"),
    ("enumeration", "delpezzo.enumeration", "definite_vectors", "span"),
    ("enumeration", "delpezzo.enumeration", "anchored_norm_slices", "generator"),
    ("lattice", "delpezzo.lattice", "Isometry.__post_init__", "span"),
    ("lattice", "delpezzo.lattice", "fixed_and_antifixed", "span"),
    ("lattice", "delpezzo.lattice", "LatticeVector.dot", "counter"),
    ("criteria", "delpezzo.criteria", "eigen_data", "span"),
    ("criteria", "delpezzo.criteria", "route_a", "span"),
    ("criteria", "delpezzo.criteria", "route_b", "span"),
    ("criteria", "delpezzo.criteria", "route_c", "span"),
    ("criteria", "delpezzo.criteria", "route_d", "span"),
    ("criteria", "delpezzo.criteria", "route_e", "span"),
    ("involutions", "delpezzo.involutions", "classify_involutions", "span"),
    ("involutions", "delpezzo.involutions", "invariant_of", "span"),
    ("involutions", "delpezzo.involutions", "minus_root_key", "span"),
    ("involutions", "delpezzo.involutions", "are_conjugate", "span"),
    ("irreducibility", "delpezzo.irreducibility", "check_reducible", "span"),
    ("irreducibility", "delpezzo.irreducibility", "decompose", "span"),
    ("cli", "delpezzo.cli", "main", "span"),
)

ROUTE_OUTCOMES = ("witness", "closed", "open")


def metric_name(layer: str, attr: str) -> str:
    """Isometry.__post_init__ is reported as the Isometry constructor."""
    return f"{layer}.{attr.replace('.__post_init__', '')}"


def _info(attr: str, result):
    """What a span records about its result: route status or vector count."""
    if attr.startswith("route_"):
        return result.status
    if attr == "definite_vectors":
        return len(result)
    return None


class Recorder:
    """Spans and counters of the TARGETS functions while installed."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names: List[str] = [metric_name(layer, attr) for layer, _, attr, _ in TARGETS]
        # span: [function id, start, end, parent index or -1, op id, info]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.created = [0] * len(TARGETS)     # generator objects made
        self.counted = [0] * len(TARGETS)     # calls of counter kind
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, fid: int) -> int:
        idx = len(self.spans)
        self.spans.append([fid, self.clock(), 0.0, self.stack[-1] if self.stack else -1,
                           self.op, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, info) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        span[5] = info
        self.stack.pop()

    def _wrap(self, fid: int, attr: str, kind: str, fn):
        rec = self
        if kind == "counter":
            counted = self.counted

            def counter(*args, **kwargs):
                counted[fid] += 1
                return fn(*args, **kwargs)
            return counter

        if kind == "generator":
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                rec.created[fid] += 1

                def slabs():
                    while True:
                        idx = rec._open(fid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            rec._close(idx, None)
                            return
                        except BaseException:
                            rec._close(idx, None)
                            raise
                        rec._close(idx, len(item[1]))
                        yield item
                return slabs()
            return generator

        def span(*args, **kwargs):
            idx = rec._open(fid)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                rec._close(idx, _info(attr, out) if out is not None else None)
        return span

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Replace every reference to each target inside the delpezzo package."""
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "delpezzo" or name.startswith("delpezzo."))]
        for fid, (_layer, modname, attr, kind) in enumerate(TARGETS):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[member]
                self._undo.append((cls, member, orig))
                setattr(cls, member, self._wrap(fid, attr, kind, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(fid, attr, kind, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Per-function calls, total_s and self_s, plus the layer counters."""
        n = len(TARGETS)
        calls = [0] * n
        total = [0.0] * n
        self_time = [0.0] * n
        info_sum = [0] * n
        slabs = [0] * n
        outcomes = [dict.fromkeys(ROUTE_OUTCOMES, 0) for _ in range(n)]
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _op, _info_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (fid, start, end, parent, _op, info) in enumerate(self.spans):
            dur = end - start
            calls[fid] += 1
            self_time[fid] += dur - child[idx]
            # recursive calls are inside their outermost span already
            p = parent
            while p >= 0 and self.spans[p][0] != fid:
                p = self.spans[p][3]
            if p < 0:
                total[fid] += dur
            if isinstance(info, str):
                outcomes[fid][info] += 1
            elif isinstance(info, int):
                info_sum[fid] += info
                slabs[fid] += 1
        out: Dict[str, float] = {}
        for fid, (layer, _mod, attr, kind) in enumerate(TARGETS):
            name = self.names[fid]
            if kind == "counter":
                out[f"{name}.calls"] = self.counted[fid]
                continue
            out[f"{name}.calls"] = self.created[fid] if kind == "generator" else calls[fid]
            out[f"{name}.total_s"] = total[fid]
            out[f"{name}.self_s"] = self_time[fid]
            if kind == "generator":
                out[f"{name}.slabs"] = slabs[fid]
                out[f"{name}.vectors"] = info_sum[fid]
            elif attr == "definite_vectors":
                out[f"{name}.vectors"] = info_sum[fid]
            elif attr.startswith("route_"):
                for outcome in ROUTE_OUTCOMES:
                    out[f"{name}.{outcome}"] = outcomes[fid][outcome]
        return out

    def overhead_s(self, calls: int = 20000) -> float:
        """Estimated seconds the wrappers added to what was recorded.

        The cost of one span and of one counted call is measured on a no-op
        function (best of five rounds) and multiplied by the spans and
        counted calls recorded.
        """
        def noop(*_args):
            return None

        def per_call(kind: str) -> float:
            probe = Recorder()
            wrapped = probe._wrap(0, "probe", kind, noop)
            best = float("inf")
            for _ in range(5):
                probe.spans.clear()
                t0 = self.clock()
                for _ in range(calls):
                    wrapped()
                t1 = self.clock()
                for _ in range(calls):
                    noop()
                best = min(best, 2 * t1 - t0 - self.clock())
            return max(best, 0.0) / calls

        counted = sum(self.counted)
        return len(self.spans) * per_call("span") + counted * per_call("counter")

    def write(self, path) -> None:
        """One tab-separated line per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\tinfo\n")
            for idx, (fid, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(f"{idx}\t{self.names[fid]}\t{start - t0:.9f}\t{end - t0:.9f}"
                         f"\t{parent}\t{op}\t{'' if info is None else info}\n")
