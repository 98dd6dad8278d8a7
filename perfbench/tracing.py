"""Spans around divcalc's public functions, recorded from outside the
package.

Tracer.install rebinds each traced function, in every divcalc module that
holds a reference to it, to a wrapper that records one span per call:
name, start, end and the span that was open when the call began. Calls
between divcalc modules go through those module-level names, so nested
calls become child spans. Spans are kept in one flat integer array and
written out when the run ends; self time is a span's duration minus the
durations of its children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# module -> public functions whose calls are recorded
TRACED = {
    "lattice": ("pair", "hodge_filter", "vectors_of_norm", "isotropic_search",
                "determinant"),
    "surfaces": ("phi", "get_surface", "mod4_condition"),
    "enumeration": ("enumerate_bogreider", "verify_case"),
    "divexpr": ("resolve", "render"),
    "criteria": ("check_main_theorem", "check_cliff_criterion", "check_bel",
                 "check_degree_corollaries", "corank_low_genus",
                 "tetragonal_corank", "b2_rule_enriques", "gonality",
                 "clifford_of_series", "cliff_upper_bound"),
    "cli": ("main",),
}

STAGES = ("nonzero", "sign", "L2_nonneg", "ML_ge_L2", "ML_le_k",
          "degD_nonneg", "mod4", "cs2", "hodge")

# span fields, in the order they sit in the flat array
NAME, START, END, PARENT = range(4)
FIELDS = 4


def _vectors_note(res):
    return {"vectors": len(res)}


def _phi_note(res):
    return {"witnesses": int(res.certified)}


def _enumeration_note(res):
    note = {"candidates": res.visited, "survivors": len(res.survivors)}
    for stage, n in res.rejected.items():
        note[f"rejected.{stage}"] = n
    return note


# work counts read off a traced function's return value
NOTES = {
    "lattice.vectors_of_norm": _vectors_note,
    "surfaces.phi": _phi_note,
    "enumeration.enumerate_bogreider": _enumeration_note,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.notes = []  # (span index, {count name: value})
        self._stack = []

    def reset(self):
        self.spans = array("q")
        self.notes = []

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans) // FIELDS
            spans.extend((nid, clock(), 0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                spans[idx * FIELDS + END] = clock()
                stack.pop()
            if note is not None:
                tracer.notes.append((idx, note(res)))
            return res

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Rebind every traced function wherever divcalc bound it; returns
        a function that puts the originals back."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "divcalc" or n.startswith("divcalc."))]
        undo = []
        for short, funcs in TRACED.items():
            home = sys.modules[f"divcalc.{short}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, orig))

        def uninstall():
            for mod, attr, orig in undo:
                setattr(mod, attr, orig)

        return uninstall


def self_times(spans):
    """Per span: its duration minus the durations of its direct children.

    Children of one span never overlap (one thread, nested calls), so the
    part of the parent's interval they cover is the sum of their durations.
    """
    n = len(spans) // FIELDS
    own = [spans[i * FIELDS + END] - spans[i * FIELDS + START] for i in range(n)]
    out = list(own)
    for i in range(n):
        p = spans[i * FIELDS + PARENT]
        if p >= 0:
            out[p] -= own[i]
    return out


def _ancestor_named(spans, idx, nid):
    p = spans[idx * FIELDS + PARENT]
    while p >= 0:
        if spans[p * FIELDS + NAME] == nid:
            return True
        p = spans[p * FIELDS + PARENT]
    return False


def layer_metrics(names, spans, notes):
    """The per-layer figures of one traced pass, as {metric: value}."""
    selfs = self_times(spans)
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for i, s in enumerate(selfs):
        nid = spans[i * FIELDS + NAME]
        calls[nid] += 1
        self_ns[nid] += s
    by_name = {name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(names)}

    counts = {}
    phi_vectors = 0
    phi_id = names.index("surfaces.phi") if "surfaces.phi" in names else -1
    for idx, note in notes:
        for key, val in note.items():
            counts[key] = counts.get(key, 0) + val
        if "vectors" in note and _ancestor_named(spans, idx, phi_id):
            phi_vectors += note["vectors"]

    out = {}
    for short, funcs in TRACED.items():
        if short == "criteria":
            out["criteria.calls"] = sum(by_name[f"criteria.{f}"][0] for f in funcs)
            out["criteria.self_s"] = sum(by_name[f"criteria.{f}"][1] for f in funcs)
            continue
        for fname in funcs:
            name = f"{short}.{fname}"
            out[f"{name}.calls"], out[f"{name}.self_s"] = by_name[name]
    out["lattice.vectors_of_norm.vectors"] = counts.get("vectors", 0)
    out["surfaces.phi.useful_ratio"] = _ratio(counts.get("witnesses", 0), phi_vectors)
    cands = counts.get("candidates", 0)
    out["enumeration.candidates"] = cands
    out["enumeration.survivors"] = counts.get("survivors", 0)
    out["enumeration.useful_ratio"] = _ratio(counts.get("survivors", 0), cands)
    for stage in STAGES:
        out[f"enumeration.rejected.{stage}"] = counts.get(f"rejected.{stage}", 0)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def write_spans(path, names, spans):
    """A JSON header line, then the spans as native-endian int64 quadruples
    (name index, start ns, end ns, parent span index or -1)."""
    header = {"names": names, "fields": ["name", "start_ns", "end_ns", "parent"],
              "count": len(spans) // FIELDS, "itemsize": spans.itemsize,
              "byteorder": sys.byteorder}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        spans.tofile(fh)
