"""Per-layer spans recorded from outside the program.

A layer is one module under ``src/npicheck``.  ``Tracer.install`` wraps
every public function of every layer, plus ``BraidTarget.compare``, by
rebinding each name in every npicheck module (and class) that holds the
function, so calls made through ``from .x import f`` references are seen
too.  Each wrapper keeps a stack of open spans; a span's self time is its
duration minus the time of the spans it opened.  Spans (name, start, end,
parent span, operation id) are kept in flat arrays and written out by
``Tracer.write``; the hot leaves in ``AGGREGATED`` only add to their
function's count and times.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "textio", "words", "homology", "orders", "minima",
    "logs", "cover", "complexes", "report", "cli",
)
# O(1) helpers run per letter or per edge key: a wrapper would cost more
# than their body and smear its own cost over the calling layer.
SKIPPED = {"words.letter_gen", "cover.edge_key"}
# Hot leaves: counted and timed, but without a span record each.
AGGREGATED = {
    "complexes.canonical_graph", "complexes.canonical_complex",
    "complexes.is_folded", "complexes.is_connected", "complexes.link_injective",
    "words.freely_reduce", "words.inverse_word", "words.exponent_sum",
    "words.is_freely_reduced", "words.rotate_word", "words.is_proper_power",
    "cover.lifted_boundary", "cover.min_edge", "cover.relator_span",
    "orders.evaluate_word",
}
METHODS = (("orders", "BraidTarget", "compare"),)


def _layer_modules() -> dict[str, object]:
    return {layer: sys.modules[f"npicheck.{layer}"] for layer in LAYERS}


def _owners():
    """Every npicheck module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if name != "npicheck" and not name.startswith("npicheck."):
            continue
        yield mod
        for obj in list(vars(mod).values()):
            if inspect.isclass(obj) and obj.__module__ == name:
                yield obj


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.originals: list = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.layer_self_s = [0.0] * len(LAYERS)
        self.counters: Counter = Counter()
        self.distinct_graphs = 0
        self._graphs: set = set()
        self.op = -1
        # Span records, one row per recorded call.
        self.s_fid = array.array("i")
        self.s_op = array.array("i")
        self.s_parent = array.array("i")
        self.s_start = array.array("d")
        self.s_end = array.array("d")
        self._open = [[0.0]]  # child-time accumulators of the open spans
        self._records = [-1]  # record index of the innermost recorded span

    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers stay installed."""
        for values in (self.calls, self.self_s, self.total_s, self.layer_self_s):
            values[:] = [0] * len(values)
        self.counters.clear()
        self.distinct_graphs = 0
        self._graphs.clear()
        for column in (self.s_fid, self.s_op, self.s_parent, self.s_start, self.s_end):
            del column[:]

    # -- installation -------------------------------------------------
    def install(self) -> None:
        mods = _layer_modules()
        targets = []
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                qual = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and qual not in SKIPPED):
                    targets.append((layer, qual, obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            targets.append((layer, f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        wrappers = {}
        for layer, qual, fn in targets:
            fid = len(self.names)
            self.names.append(qual)
            self.layer_of.append(LAYERS.index(layer))
            self.originals.append(fn)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            wrappers[id(fn)] = (fn, self._wrap(fn, fid, qual))
        bindings = []
        for owner in _owners():
            for key, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    bindings.append((owner, key, hit[1]))
        for owner, key, wrapper in bindings:
            setattr(owner, key, wrapper)

    def _observer(self, qual: str):
        c = self.counters
        if qual in ("textio.parse_presentation", "textio.parse_log"):
            def obs(args, kwargs, result):
                c["textio.bytes"] += len(args[0] if args else kwargs["text"])
        elif qual == "homology.find_weight_homomorphisms":
            def obs(args, kwargs, result):
                c["homology.weight_candidates"] += len(result)
        elif qual == "orders.handle_reduce":
            def obs(args, kwargs, result):
                c["orders.handle_reduce.letters_in"] += len(args[0])
        elif qual == "minima.weak_concatenability":
            def obs(args, kwargs, result):
                c["minima.concat.max_k"] = max(c["minima.concat.max_k"], len(args[0]))
        elif qual == "minima.check_presentation":
            def obs(args, kwargs, result):
                c["minima.check.concatenable"] += result.status == "concatenable"
        elif qual == "cover.verify_weak_slim_certificate":
            def obs(args, kwargs, result):
                window = args[4] if len(args) > 4 else kwargs["window"]
                c["cover.cells"] += len(window.cells)
        elif qual == "complexes.npi_scan":
            def obs(args, kwargs, result):
                c["complexes.candidates"] += len(result)
        elif qual == "complexes.canonical_graph":
            graphs = self._graphs

            def obs(args, kwargs, result):
                graphs.add(result)
        elif qual == "report.report_json":
            def obs(args, kwargs, result):
                c["report.json_bytes"] += len(result)
        else:
            return None
        return obs

    def _wrap(self, fn, fid: int, qual: str):
        perf = time.perf_counter
        open_spans = self._open
        records = self._records
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        layer_self = self.layer_self_s
        layer = self.layer_of[fid]
        observe = self._observer(qual)
        record = qual not in AGGREGATED
        s_fid, s_op, s_parent = self.s_fid, self.s_op, self.s_parent
        s_start, s_end = self.s_start, self.s_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            open_spans.append(frame)
            if record:
                idx = len(s_fid)
                s_fid.append(fid)
                s_op.append(tracer.op)
                s_parent.append(records[-1])
                s_start.append(0.0)
                s_end.append(0.0)
                records.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                open_spans.pop()
                dur = t1 - t0
                own = dur - frame[0]
                open_spans[-1][0] += dur
                calls[fid] += 1
                self_s[fid] += own
                total_s[fid] += dur
                layer_self[layer] += own
                if record:
                    s_start[idx] = t0
                    s_end[idx] = t1
                    records.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- operations -----------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        self.distinct_graphs += len(self._graphs)
        self._graphs.clear()

    # -- self-checks ----------------------------------------------------
    def unbound_references(self) -> list[str]:
        """Names in npicheck namespaces that still hold an unwrapped original."""
        originals = {id(fn): qual for fn, qual in zip(self.originals, self.names)}
        missed = []
        for owner in _owners():
            for key, value in vars(owner).items():
                qual = originals.get(id(value))
                if qual is not None:
                    missed.append(f"{qual} still bound as {owner.__name__}.{key}")
        return missed

    def missed_calls(self, thunk) -> list[str]:
        """Run ``thunk`` under a profiler that counts calls into the original
        code objects; every such call must also have passed a wrapper."""
        by_code = {fn.__code__: fid for fid, fn in enumerate(self.originals)}
        seen: Counter = Counter()

        def profile(frame, event, arg):
            if event == "call":
                fid = by_code.get(frame.f_code)
                if fid is not None:
                    seen[fid] += 1

        before = list(self.calls)
        sys.setprofile(profile)
        try:
            thunk()
        finally:
            sys.setprofile(None)
        return [
            f"{self.names[fid]}: {n} calls, {self.calls[fid] - before[fid]} through the wrapper"
            for fid, n in sorted(seen.items())
            if n != self.calls[fid] - before[fid]
        ]

    # -- results --------------------------------------------------------
    def totals(self) -> dict:
        """Everything the per-layer metrics need, summable across processes."""
        return {
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "layer_self_s": dict(zip(LAYERS, self.layer_self_s)),
            "counters": dict(self.counters),
            "distinct_graphs": self.distinct_graphs,
            "spans": len(self.s_fid),
        }

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the function names and their
        counts and times (aggregated leaves included), then one row per span."""
        header = {
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "columns": ["fn", "op", "parent", "start", "end"],
        }
        with open(path, "w") as fh:
            json.dump(header, fh)
            fh.write("\n")
            for row in zip(self.s_fid, self.s_op, self.s_parent, self.s_start, self.s_end):
                fh.write(json.dumps(row))
                fh.write("\n")


def merge_totals(parts: list[dict]) -> dict:
    """Sum the totals of several traced processes (same function order)."""
    out = json.loads(json.dumps(parts[0]))
    for part in parts[1:]:
        for key in ("calls", "self_s", "total_s"):
            out[key] = [a + b for a, b in zip(out[key], part[key])]
        for layer, v in part["layer_self_s"].items():
            out["layer_self_s"][layer] += v
        for key, v in part["counters"].items():
            if key == "minima.concat.max_k":
                out["counters"][key] = max(out["counters"].get(key, 0), v)
            else:
                out["counters"][key] = out["counters"].get(key, 0) + v
        out["distinct_graphs"] += part["distinct_graphs"]
        out["spans"] += part["spans"]
    return out
