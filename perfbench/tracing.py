"""Span tracing for the traced run, installed from outside the library.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper in
every grascat module namespace and class dict where the original object is
found, i.e. wherever a caller looks the name up (``roots.compatibility_degree``
as well as ``combinat.compatibility_degree``; ``Poly.__mul__`` and
``Poly.__rmul__``).  ``uninstall`` puts the originals back; the two may
alternate, and totals, spans and cache hit counts accumulate over the
installed stretches.  The library source is not touched.

Each wrapper opens a span with its parent and the index of the op it belongs
to, and adds its self time (span time minus the time of its traced children)
to per-function totals.  Spans are kept in memory, up to ``SPAN_CAP``, and
written out once the run ends.
"""
from __future__ import annotations

import functools
import time

SPAN_CAP = 20000

# (metric prefix, module, attribute path)
TRACED = (
    ("roots.noncrossing_decompose", "roots", "noncrossing_decompose"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.det", "linalg", "det"),
    ("linalg.solve_columns", "linalg", "solve_columns"),
    ("linalg.inverse", "linalg", "inverse"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("combinat.enumerate_maximal_noncrossing", "combinat", "enumerate_maximal_noncrossing"),
    ("combinat.compatibility_degree", "combinat", "compatibility_degree"),
    ("polynomial.u_variable", "polynomial", "u_variable"),
    ("polynomial.tau", "polynomial", "tau"),
    ("polynomial.FactoredRatio.eval", "polynomial", "FactoredRatio.eval"),
    ("polynomial.Poly.eval", "polynomial", "Poly.eval"),
    ("polynomial.Poly.mul", "polynomial", "Poly.__mul__"),
    ("polynomial.divide_exact", "polynomial", "divide_exact"),
    ("polynomial.binary_identity_check", "polynomial", "binary_identity_check"),
    ("polynomial.binary_identities_random_all", "polynomial", "binary_identities_random_all"),
    ("polytope.cone_rays", "polytope", "cone_rays"),
    ("polytope.in_convex_hull", "polytope", "in_convex_hull"),
    ("polytope.face_lattice_f_vector", "polytope", "face_lattice_f_vector"),
    ("polytope.tau_newton_facets", "polytope", "tau_newton_facets"),
    ("polytope.hull_of_points", "polytope", "hull_of_points"),
    ("polytope.polytope_from_inequalities", "polytope", "polytope_from_inequalities"),
    ("kinematics.kin_basis", "kinematics", "kin_basis"),
    ("kinematics.KinBasis.point_from_eta", "kinematics", "KinBasis.point_from_eta"),
    ("kinematics.eta_hat_shift", "kinematics", "eta_hat_shift"),
    ("kinematics.nc_amplitude", "kinematics", "nc_amplitude"),
    ("cli.main", "cli", "main"),
)

# work counts read off a traced function's result
COUNTERS = {
    "combinat.enumerate_maximal_noncrossing": ("combinat.cliques", len),
    "polytope.cone_rays": ("polytope.cone_rays.rays_out", len),
    # faces of the lattice; the f-vector also counts the empty face
    "polytope.face_lattice_f_vector": ("polytope.face_lattice_f_vector.faces",
                                       lambda fv: sum(fv) - 1),
}

# lru caches whose hit ratio the traced run reports
CACHES = (
    ("roots.fan", "roots", "_fan"),
    ("combinat.noncrossing_graph", "combinat", "_noncrossing_graph"),
    ("kinematics.eta_functional", "kinematics", "eta_functional"),
)


def _resolve(lib, module, path):
    owner = lib[module]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.self_s = {name: 0.0 for name, _m, _p in TRACED}
        self.calls = dict.fromkeys(self.self_s, 0)
        self.edges = {}  # (parent name, child name) -> calls
        self.counts = dict.fromkeys((c for c, _f in COUNTERS.values()), 0)
        self.spans = []  # [span id, parent id, op index, name, start s, end s]
        self.dropped = 0
        self.op_index = None
        self._stack = []  # open frames: [span id, name, child seconds]
        self._next_id = 0
        self._patches = []  # (namespace, attribute, original, wrapper)
        self._caches = {}
        self._cache_start = {}
        self._cache_use = {}  # name -> (hits, misses) while installed

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span called ``name`` under the innermost open span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self._next_id
        self._next_id += 1
        frame = [sid, name, 0.0]
        record = None
        if len(self.spans) < SPAN_CAP:
            record = [sid, parent[0] if parent else None, self.op_index, name, 0.0, 0.0]
            self.spans.append(record)
        else:
            self.dropped += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed = end - start
            if name in self.calls:
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[2]
            if parent is not None:
                parent[2] += elapsed
                edge = (parent[1], name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
            if record is not None:
                record[4], record[5] = start, end
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts[counter[0]] += counter[1](result)
        return result

    def run_op(self, index, label, fn, *args):
        """One op as the root span; its spans share the op index."""
        self.op_index = index
        try:
            return self.call("op." + label, fn, *args)
        finally:
            self.op_index = None

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, name, original):
        call = self.call

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return call(name, original, *args, **kwargs)
        return traced

    def install(self):
        """Put every wrapper in place; the first call also finds the places."""
        if not self._patches:
            self._caches = {name: _resolve(self.lib, m, p) for name, m, p in CACHES}
            namespaces = []
            for module in self.lib.values():
                namespaces.append(module)
                namespaces.extend(v for v in vars(module).values()
                                  if isinstance(v, type) and v.__module__ == module.__name__)
            for name, module, path in TRACED:
                original = _resolve(self.lib, module, path)
                wrapper = self._wrapper(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original, wrapper))
        for ns, attr, _original, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        self._cache_start = {name: c.cache_info() for name, c in self._caches.items()}

    def uninstall(self):
        for ns, attr, original, _wrapper in reversed(self._patches):
            setattr(ns, attr, original)
        for name, cache in self._caches.items():
            now, start = cache.cache_info(), self._cache_start[name]
            hits, misses = self._cache_use.get(name, (0, 0))
            self._cache_use[name] = (hits + now.hits - start.hits,
                                     misses + now.misses - start.misses)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        decomposes = self.calls["roots.noncrossing_decompose"]
        solves = self.edges.get(("roots.noncrossing_decompose", "linalg.solve_columns"), 0)
        out["roots.solves_per_decompose"] = (solves / decomposes if decomposes else 0.0,
                                             "solves/op")
        for name, _m, _p in CACHES:
            hits, misses = self._cache_use.get(name, (0, 0))
            # no lookups in this run reads as 0
            out[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "1")
        return out

    def dump(self):
        return {"spans_kept": len(self.spans), "spans_dropped": self.dropped,
                "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                "spans": self.spans}
