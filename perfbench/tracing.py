"""Spans and counts around the package's public functions, installed from
the benchmark's side.

Every target names a function by its home module.  ``Tracer.install``
finds the function there and replaces it, in every loaded
``gamma_monodromy`` module that holds the same object, by a wrapper that
records a span: name, start, end, parent span and request id.  Matching
by identity covers every namespace a function is looked up from (for
example ``periods.fundamental_solution`` and its import into
``monodromy``), so the wrappers keep working when code moves.  A target
that no longer exists is reported as absent and the run goes on.

Spans live in flat arrays while the repetition runs; they are summarised
and written out after the timed phase.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "gamma_monodromy"
LAYERS = ("numerics", "cohomology", "quantum", "periods", "monodromy",
          "mirror")

# (home module, function, span name)
TARGETS = (
    ("numerics", "ode_continue", "numerics.ode_continue"),
    ("numerics", "eig_unit_minus", "numerics.eig_unit_minus"),
    ("numerics", "polygamma", "numerics.polygamma"),
    ("numerics", "recip_gamma_jet", "numerics.recip_gamma_jet"),
    ("cohomology", "psi_map", "cohomology.psi_map"),
    ("quantum", "sseries_proj", "quantum.sseries"),
    ("quantum", "sseries_twisted", "quantum.sseries"),
    ("periods", "fundamental_solution", "periods.fundamental_solution"),
    ("periods", "master_period", "periods.master_period"),
    ("monodromy", "monodromy_matrix", "monodromy.monodromy_matrix"),
    ("monodromy", "reflection_vector", "monodromy.reflection_vector"),
    ("monodromy", "big_circle_matrix", "monodromy.big_circle_matrix"),
    ("monodromy", "twisted_reflection_check",
     "monodromy.twisted_reflection_check"),
    ("mirror", "phi_mb_batch", "mirror.phi_mb_batch"),
    ("mirror", "phi_residue_series", "mirror.phi_residue_series"),
    ("mirror", "oscillatory_j", "mirror.oscillatory_j"),
    ("mirror", "zero_region_scan", "mirror.zero_region_scan"),
    ("mirror", "local_exponent_fit", "mirror.local_exponent_fit"),
    ("mirror", "inversion_consistency", "mirror.inversion_consistency"),
    ("mirror", "laplace_spot_check", "mirror.laplace_spot_check"),
    # a factory: the right-hand side closure it returns is spanned as
    # numerics.rhs, one span per evaluation
    ("periods", "connection_rhs", "numerics.rhs"),
)
RHS_FACTORY = "connection_rhs"
MB_BATCH = "phi_mb_batch"
SSERIES = "quantum.sseries"


def union_length(starts, ends) -> float:
    """Total length covered by the union of the intervals [start, end]."""
    s = np.asarray(starts, dtype=float)
    e = np.asarray(ends, dtype=float)
    if s.size == 0:
        return 0.0
    order = np.argsort(s, kind="stable")
    s, e = s[order], e[order]
    reach = np.maximum.accumulate(e)
    prev = np.concatenate(([-math.inf], reach[:-1]))
    return float(np.sum(np.maximum(0.0, e - np.maximum(s, prev))))


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children.

    parents[i] is the index of span i's parent, or -1.  Children are
    clipped to their parent's interval and may overlap one another.
    """
    s = np.asarray(starts, dtype=float)
    e = np.asarray(ends, dtype=float)
    p = np.asarray(parents, dtype=np.int64)
    out = e - s
    order = np.lexsort((s, p))
    order = order[p[order] >= 0]
    sl, el, pl = s.tolist(), e.tolist(), p.tolist()
    covered = [0.0] * len(sl)
    current, hi, reach = -1, 0.0, 0.0
    for i in order.tolist():
        par = pl[i]
        if par != current:
            current, reach, hi = par, sl[par], el[par]
        a = max(sl[i], reach)
        b = min(el[i], hi)
        if b > a:
            covered[par] += b - a
            reach = b
    return out - np.asarray(covered)


class Tracer:
    """Span recorder for one repetition; one instance per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.req = array("q")
        self.error = array("b")
        self.stack: list[int] = []
        self.request = -1
        self.mb_nodes = 0
        self.mb_T_max = 0.0
        self.absent: list[str] = []
        self._caches: list = []
        self._cache_base = [0, 0]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spanned(self, fn, name: str):
        """fn wrapped so that each call records one span called name."""
        nid = self._name_id(name)
        t0, t1, parent, names, req, error = (self.t0, self.t1, self.parent,
                                             self.name, self.req, self.error)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(t0)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            req.append(tracer.request)
            error.append(0)
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[sid] = 1
                raise
            finally:
                t1[sid] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def _rhs_factory(self, factory):
        def make_rhs(*args, **kwargs):
            return self.spanned(factory(*args, **kwargs), "numerics.rhs")
        return functools.wraps(factory)(make_rhs)

    def _mb_counter(self, fn, nodes_per_panel: int):
        """Count contour nodes from the MBConfig passed to the batch."""
        def counted(*args, **kwargs):
            cfg = kwargs.get("cfg", args[4] if len(args) > 4 else None)
            T = getattr(cfg, "T", None)
            step = getattr(cfg, "quadrature_step", None)
            if T is not None and step:
                self.mb_nodes += nodes_per_panel * max(
                    1, math.ceil(2.0 * T / step))
                self.mb_T_max = max(self.mb_T_max, float(T))
            return fn(*args, **kwargs)
        return functools.wraps(fn)(counted)

    def install(self) -> None:
        mods = {name.split(".", 1)[1]: mod for name, mod in
                list(sys.modules.items())
                if name.startswith(PACKAGE + ".") and mod is not None}
        for home, func, span_name in TARGETS:
            orig = getattr(mods.get(home), func, None)
            if orig is None:
                self.absent.append("%s.%s" % (home, func))
                continue
            if func == RHS_FACTORY:
                wrapped = self._rhs_factory(orig)
            else:
                inner = orig
                if func == MB_BATCH:
                    inner = self._mb_counter(
                        orig, getattr(mods[home], "_GL_NODES", 32))
                wrapped = self.spanned(inner, span_name)
            if span_name == SSERIES and hasattr(orig, "cache_info"):
                self._caches.append(orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        self._cache_base = self._cache_counts()

    def _cache_counts(self) -> list[int]:
        hits = sum(c.cache_info().hits for c in self._caches)
        misses = sum(c.cache_info().misses for c in self._caches)
        return [hits, misses]

    def summary(self) -> dict:
        """Per span name: calls, time inside (s) and self time (s); per
        layer: exceptions that left the layer; plus the extra counters."""
        start = np.frombuffer(self.t0, dtype=float)
        end = np.frombuffer(self.t1, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        selfs = self_times(start, end, parent)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=selfs, minlength=k)
        per_name = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            per_name[label] = {"calls": int(calls[nid]),
                               "s": union_length(start[mask], end[mask]),
                               "self_s": float(self_s[nid])}
        layer_of = [label.split(".")[0] for label in self.names]
        errors = {layer: 0 for layer in LAYERS}
        for i in np.flatnonzero(np.frombuffer(self.error, dtype=np.int8)):
            layer = layer_of[name[i]]
            if parent[i] < 0 or layer_of[name[parent[i]]] != layer:
                errors[layer] += 1
        hits, misses = (a - b for a, b in zip(self._cache_counts(),
                                              self._cache_base))
        return {"spans": per_name, "errors": errors,
                "mb_nodes": self.mb_nodes, "mb_T_max": self.mb_T_max,
                "sseries_hits": hits, "sseries_misses": misses,
                "absent": self.absent, "span_count": len(self.t0)}

    def dump(self, path: str) -> None:
        """Write every span as flat arrays (.npz)."""
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.t0, dtype=float),
                 end=np.frombuffer(self.t1, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 request=np.frombuffer(self.req, dtype=np.int64),
                 error=np.frombuffer(self.error, dtype=np.int8))
