"""Outside-in tracing of twobridge's layers.

``Tracer.install`` replaces the public functions listed in LAYERS with
wrappers on every twobridge module attribute that refers to them, so calls
made inside the package are traced too; nothing under ``src/`` changes.
Each call records a span (name, parent span, request, start, end); spans of
one request share the request's index and stay in memory until the run
ends.  A span's self time is its duration minus the durations of its child
spans: the program is single-threaded, so children never overlap.

Spans are kept in flat arrays rather than one Python object each: a traced
hot_slopes run records about 60 000 spans, which take about 40 bytes each
this way and give the garbage collector nothing to scan.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter

LAYERS = {
    "slopes": ("farey_chain",),
    "markoff": ("trace_polynomial", "polynomial_roots", "select_geometric_root"),
    "mcshane": ("census_scan", "boundary_edge_sets", "finite_edge_sums",
                "interval_series", "cusp_shape"),
    "kernels": ("explore",),  # the active backend's explore
    "cusp_layout": ("layout_cusp", "check_simply_folded"),
    "plat": ("longitude_json", "linking_number_formula", "linking_number_diagram"),
    "endinvariants": ("bowditch_L", "gap_intervals"),
    # argument parsing, JSON and SVG output of the subcommands
    "cli": ("main",),
}
TRACED = tuple("%s.%s" % (m, f) for m, fs in LAYERS.items() for f in fs)
REQUEST = "request"
SELECT = "markoff.select_geometric_root"
EDGE_SUM_TOL = 1e-8  # select_geometric_root's edge-sum filter
SCAN_NODES = "kernels.explore.scan_nodes"  # census scans run with eps = inf
SUM_NODES = "kernels.explore.sum_nodes"

NO_SPAN = -1  # parent of a top-level span, request of a span outside any request


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name table; spans store indices into it
        self.name_of = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.request_index = NO_SPAN
        self.errors = Counter()
        self.counts = Counter()
        self._select_evs = None  # evaluations scanned by the current select, by id
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id):
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else NO_SPAN)
        self.request.append(self.request_index)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(self.clock())
        return sid

    def _close(self, sid):
        self.end[sid] = self.clock()
        self.stack.pop()

    def wrap(self, name, fn):
        enter = getattr(self, "_enter_" + name.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + name.replace(".", "_"), None)
        name_id = self._name_id(name)
        # the body of _open and _close, inlined with bound methods: the kernel
        # is called about 55 000 times in a traced hot_slopes run
        clock, stack, ends = self.clock, self.stack, self.end
        push_name, push_parent = self.name_of.append, self.parent.append
        push_request, push_start, push_end = (self.request.append, self.start.append,
                                              self.end.append)

        def traced(*args, **kwargs):
            token = enter(args, kwargs) if enter else None
            sid = len(ends)
            push_name(name_id)
            push_parent(stack[-1] if stack else NO_SPAN)
            push_request(self.request_index)
            push_end(0.0)
            stack.append(sid)
            push_start(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
                if leave:
                    leave(token, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def begin_request(self, index):
        self.request_index = index
        return self._open(self._name_id(REQUEST))

    def end_request(self, sid):
        self._close(sid)
        self.request_index = NO_SPAN

    # -- counters at the layer boundaries -----------------------------------

    def _enter_markoff_select_geometric_root(self, args, kwargs):
        self._select_evs = {}

    def _leave_markoff_select_geometric_root(self, token, args, kwargs, result):
        self.counts["markoff.select.candidates"] += len(self._select_evs)
        self._select_evs = None

    def _enter_mcshane_census_scan(self, args, kwargs):
        if self._select_evs is not None:
            # holding the evaluation keeps its id from being reused by the next one
            self._select_evs[id(args[0])] = args[0]
            self.counts["census_scan_in_select"] += 1

    def _leave_mcshane_finite_edge_sums(self, token, args, kwargs, result):
        if self._select_evs is not None and result is not None \
                and kwargs.get("check") is False:
            s1, s2 = result
            if abs(s1 + s2 + 1) <= EDGE_SUM_TOL:
                self.counts["markoff.select.survivors"] += 1

    def _enter_kernels_explore(self, args, kwargs):
        return args[0].nodes

    def _leave_kernels_explore(self, nodes_before, args, kwargs, result):
        eps = args[9] if len(args) > 9 else kwargs["eps_share"]
        self.counts[SCAN_NODES if eps == math.inf else SUM_NODES] += args[0].nodes - nodes_before

    def _leave_mcshane_interval_series(self, token, args, kwargs, result):
        if result is not None:
            self.counts["mcshane.interval_series.nodes"] += result.nodes

    def _leave_mcshane_cusp_shape(self, token, args, kwargs, result):
        if result is not None and result.tail_bound_1 + result.tail_bound_2 > result.eps:
            self.counts["mcshane.tail_over_eps"] += 1

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS wherever a twobridge module refers
        to it.  Import all of twobridge (e.g. ``twobridge.cli``) first."""
        from twobridge import kernels
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "twobridge" or name.startswith("twobridge.")]
        for modname, fnames in LAYERS.items():
            owner = (kernels.active_kernel if modname == "kernels"
                     else sys.modules["twobridge." + modname])
            for fname in fnames:
                original = getattr(owner, fname)
                traced = self.wrap("%s.%s" % (modname, fname), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> array:
        """Per-span self time, in span order."""
        own = array("d", (e - b for b, e in zip(self.start, self.end)))
        for sid, parent in enumerate(self.parent):
            if parent != NO_SPAN:
                own[parent] -= self.end[sid] - self.start[sid]
        return own

    def metrics(self) -> dict:
        calls, busy = Counter(), Counter()
        for name_id, own in zip(self.name_of, self.self_times()):
            calls[self.names[name_id]] += 1
            busy[self.names[name_id]] += own
        out = {}
        for name in TRACED:
            out[name + ".calls"] = calls[name]
            out[name + ".busy_s"] = busy[name]
            out[name + ".errors"] = self.errors[name]
        candidates = self.counts["markoff.select.candidates"]
        survivors = self.counts["markoff.select.survivors"]
        out["markoff.select.candidates"] = candidates
        out["markoff.select.survivors"] = survivors
        out["markoff.select.useful_ratio"] = survivors / candidates if candidates else 0.0
        out["mcshane.census_scan.calls_per_select"] = (
            self.counts["census_scan_in_select"] / calls[SELECT] if calls[SELECT] else 0.0)
        for key in (SCAN_NODES, SUM_NODES, "mcshane.interval_series.nodes",
                    "mcshane.tail_over_eps"):
            out[key] = self.counts[key]
        request_s = sum(e - b for n, b, e in zip(self.name_of, self.start, self.end)
                        if self.names[n] == REQUEST)
        out["trace.request_s"] = request_s
        out["trace.unattributed_s"] = busy[REQUEST]
        out["trace.layer_share"] = 1.0 - busy[REQUEST] / request_s if request_s else 0.0
        out["trace.spans"] = len(self.start)
        return out

    def span_records(self):
        """Spans as [id, parent, request, name, start, end] rows; parent and
        request are NO_SPAN where there is none."""
        for i in range(len(self.start)):
            yield [i, self.parent[i], self.request[i], self.names[self.name_of[i]],
                   self.start[i], self.end[i]]
