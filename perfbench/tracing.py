"""Spans around the public functions of multiboson, recorded from outside.

A from-import copies the function reference into the importing module
(``twomode.oracle_eigs`` is a separate binding of ``jacobi.oracle_eigs``),
and the package attribute ``multiboson.jacobi`` is the function
``onemode.jacobi``, not the module.  So each wrapper is installed by
identity: every ``multiboson`` namespace whose attribute *is* the original
function gets the wrapper.  Methods are patched once, on their class.

Spans are kept in memory as (layer, parent span, start, end, op) tuples and
aggregated after the traced pass; nothing inside the program changes.
"""

import functools
import importlib
import json
import os
import sys
from time import perf_counter

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def load_layers() -> dict:
    with open(LAYERS_FILE) as fh:
        return json.load(fh)


# one value counter per layer, computed from the call's result
COUNTERS = {
    "jacobi.oracle_eigs": ("eigs_computed", len),
    "jacobi.oracle_eigh": ("dim_sum", lambda out: len(out[0])),
    "jacobi.JacobiOperator.diag_array": ("coeffs_built", len),
    "jacobi.JacobiOperator.offdiag_array": ("coeffs_built", len),
    # the top ``count`` eigenvalues of each of three nested truncations
    "twomode.hc_truncation_check": ("eigs_returned", lambda out: 3 * out.top_full.size),
    "twomode.canonical_matrix": ("bytes", lambda out: out.nbytes),
    "twomode.build_h_matrix": ("bytes", lambda out: out.nbytes),
    "evolution.preset": ("bytes", lambda out: out.matrix.nbytes),
}


def _namespaces():
    return [(name, mod) for name, mod in list(sys.modules.items())
            if name == "multiboson" or name.startswith("multiboson.")]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, layer_names):
        self.names = list(layer_names)
        self.spans = []       # (layer index, parent span id, start, end, op id)
        self.values = {}      # span id -> counter value
        self.op = -1
        self._stack = []
        self._restore = []

    def _wrap(self, idx, fn):
        counter = COUNTERS.get(self.names[idx], (None, None))[1]
        spans, values, stack = self.spans, self.values, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (idx, parent, t0, t1, self.op)
            if counter is not None:
                values[sid] = counter(out)
            return out

        return wrapper

    def __enter__(self):
        namespaces = [mod for _, mod in _namespaces()]
        for idx, name in enumerate(self.names):
            mod_name, *path = name.split(".")
            owner = importlib.import_module("multiboson." + mod_name)
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(idx, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(idx, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patch(ns, key, orig, wrapper)
        return self

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    def unwrapped_bindings(self) -> list[str]:
        """Names in multiboson namespaces still bound to an original function
        while the wrappers are installed (must be empty)."""
        originals = {id(orig) for _, _, orig in self._restore}
        missed = []
        for name, mod in _namespaces():
            for key, val in vars(mod).items():
                if id(val) in originals:
                    missed.append(f"{name}.{key}")
        return missed

    def aggregate(self, rounds: int) -> dict:
        """Per-layer calls, self and inclusive seconds, and counters, per round."""
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        child = [0.0] * len(self.spans)
        for idx, parent, t0, t1, _ in self.spans:
            calls[idx] += 1
            incl[idx] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = [0.0] * n
        for sid, (idx, _, t0, t1, _) in enumerate(self.spans):
            self_s[idx] += (t1 - t0) - child[sid]
        value = {}
        nested = {}   # (ancestor layer, layer) -> [calls, counter sum]
        for sid, (idx, parent, *_rest) in enumerate(self.spans):
            v = self.values.get(sid, 0)
            if sid in self.values:
                key = (self.names[idx], COUNTERS[self.names[idx]][0])
                value[key] = value.get(key, 0) + v
            seen = set()
            while parent >= 0:
                anc = self.spans[parent][0]
                if anc not in seen:
                    seen.add(anc)
                    acc = nested.setdefault((anc, idx), [0, 0])
                    acc[0] += 1
                    acc[1] += v
                parent = self.spans[parent][1]
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i] / rounds, "count/round")
            out[f"{name}.self_s"] = (self_s[i] / rounds, "s/round")
            out[f"{name}.incl_s"] = (incl[i] / rounds, "s/round")
        idx = {name: i for i, name in enumerate(self.names)}

        def nest(outer, inner):
            return nested.get((idx[outer], idx[inner]), [0, 0])

        out["jacobi.oracle_eigs.eigs_computed"] = (
            value.get(("jacobi.oracle_eigs", "eigs_computed"), 0) / rounds, "count/round")
        out["jacobi.oracle_eigh.dim_sum"] = (
            value.get(("jacobi.oracle_eigh", "dim_sum"), 0) / rounds, "count/round")
        out["jacobi.JacobiOperator.coeffs_built"] = (
            (value.get(("jacobi.JacobiOperator.diag_array", "coeffs_built"), 0)
             + value.get(("jacobi.JacobiOperator.offdiag_array", "coeffs_built"), 0))
            / rounds, "count/round")
        for name in ("twomode.canonical_matrix", "twomode.build_h_matrix",
                     "evolution.preset"):
            out[f"{name}.bytes"] = (value.get((name, "bytes"), 0) / rounds, "B/round")
        returned = value.get(("twomode.hc_truncation_check", "eigs_returned"), 0)
        computed = nest("twomode.hc_truncation_check", "jacobi.oracle_eigs")[1]
        out["twomode.hc_truncation_check.useful_frac"] = (_ratio(returned, computed), "frac")
        n_evolve = calls[idx["onemode.evolve"]]
        out["onemode.evolve.atom_eigvec_per_call"] = (
            _ratio(nest("onemode.evolve", "jacobi.atom_eigenvector")[0], n_evolve), "count")
        out["onemode.evolve.eigh_per_call"] = (
            _ratio(nest("onemode.evolve", "jacobi.oracle_eigh")[0], n_evolve), "count")
        out["orthopoly.gram_check.poly_table_per_gram"] = (
            _ratio(nest("orthopoly.gram_check", "orthopoly.poly_table")[0],
                   calls[idx["orthopoly.gram_check"]]), "count")
        return out

    def write_spans(self, path: str) -> None:
        """Spans as CSV: op, span, parent, layer, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("op,span,parent,layer,start,end\n")
            for sid, (idx, parent, t0, t1, op) in enumerate(self.spans):
                fh.write(f"{op},{sid},{parent},{self.names[idx]},{t0!r},{t1!r}\n")


def _ratio(num, den) -> float:
    """num / den, and 0 when the layer was never called (den == 0)."""
    return num / den if den else 0.0
