"""Span tracer that wraps the package's public functions at layer boundaries.

The tracer lives entirely in the benchmark: ``Tracer.install`` replaces
every public module-level function of each layer module with a wrapper
that records a span, and rebinds the name in every ``guesswork`` module
that imported it directly (``compression.sort_desc``,
``cipher.materialize``, ``exponents.perron_root``, ...).  Objective
callbacks handed to ``optimize.minimize_scan_golden`` are wrapped too,
and their spans are named after, and attributed to, the calling layer.

A span is (name, start, end, parent, invocation), kept in compact arrays
in memory and written out by ``save`` when the run ends.  A span's self
time is its duration minus the durations of its direct children.  The
CLI runs with one thread, so spans nest strictly and a stack gives the
parent.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

LAYER_MODULES = ("sources", "guessing", "cipher", "compression", "exponents",
                 "optimize", "verify")
LAYERS = LAYER_MODULES + ("cli",)

# sources.load_model and model_from_dict are model loading, which belongs to
# the cli layer; a Markov model without ``init`` still records its
# sources.stationary span underneath.
_CLI_OWNED = {"sources": {"load_model", "model_from_dict"}}

DUAL_SPANS = ("exponents.model_exponent_dual", "exponents.iid_exponent_dual",
              "exponents.markov_exponent")

# (metric, unit, the end-to-end metric and workload it should move)
_FINITE = "finite_n wall_s"
_CURVE = "single_letter wall_s"
_CERT = "certify wall_s"
VERIFY_CHECKS = (
    "tilted_identity", "renyi_variational", "decomposition", "three_regime",
    "group_xor_closed_form", "attack_ceiling", "attack_floor",
    "guessing_compression_gap", "relaxed_integer_sandwich", "finite_n_convergence",
    "markov_dual", "length_order_duality", "interleave_factor",
)
PER_LAYER = (
    [("sources.materialize.calls", "count", f"{_FINITE}, finite_n peak_rss_mb"),
     ("sources.materialize.self_s", "s", f"{_FINITE}, finite_n peak_rss_mb"),
     ("sources.materialize.strings", "count", f"{_FINITE}, finite_n peak_rss_mb"),
     ("sources.materialize.bytes_computed", "bytes", f"{_FINITE}, finite_n peak_rss_mb"),
     ("sources.materialize.reuse_ratio", "ratio", f"{_FINITE}, finite_n peak_rss_mb"),
     ("sources.sort_desc.calls", "count", _FINITE),
     ("sources.sort_desc.self_s", "s", _FINITE)]
    + [(f"sources.{fn}.{m}", u, f"{_CURVE}, {_CERT} slightly; not {_FINITE}")
       for fn in ("perron_root", "stationary") for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"compression.{fn}.{m}", u, f"{_FINITE} (large N); small share of {_CERT}")
       for fn in ("relaxed_optimum", "lower_bound_finite", "upper_bound_finite",
                  "integer_bruteforce")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("cipher.group_xor_moment_closed.calls", "count", _FINITE),
       ("cipher.group_xor_moment_closed.self_s", "s", _FINITE),
       ("cipher.group_xor_moment_closed.messages", "count", _FINITE),
       ("cipher.guessing_exponent_achieved.calls", "count", _FINITE),
       ("cipher.guessing_exponent_achieved.self_s", "s", _FINITE),
       ("cipher.brute_force_best_cipher.calls", "count", _CERT),
       ("cipher.brute_force_best_cipher.self_s", "s", _CERT),
       ("cipher.brute_force_best_cipher.tables", "count", _CERT),
       ("cipher.attack_moment.calls", "count", _CERT),
       ("cipher.attack_moment.self_s", "s", _CERT)]
    + [(f"exponents.{fn}.{m}", u, _CURVE + (f", {_CERT}" if fn == "iid_exponent_dual" else ""))
       for fn in ("model_exponent_dual", "iid_exponent_dual", "build_curve", "thresholds",
                  "markov_exponent_grid")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("exponents.dual_useful_ratio", "ratio", _CURVE),
       ("optimize.minimize_scan_golden.calls", "count", f"{_CURVE}, {_FINITE}"),
       ("optimize.minimize_scan_golden.self_s", "s", f"{_CURVE}, {_FINITE}"),
       ("optimize.objective_evals", "count", f"{_CURVE}, {_FINITE}"),
       ("guessing.calls", "count", _CERT),
       ("guessing.self_s", "s", _CERT)]
    + [(f"verify.{check}.wall_s", "s", _CERT) for check in VERIFY_CHECKS]
    + [("cli.invocations", "count", "wall_s of every workload"),
       ("cli.rows", "count", "wall_s of every workload"),
       ("cli.output_bytes", "bytes", "wall_s of every workload"),
       ("cli.self_s", "s", "wall_s of every workload"),
       ("cli.cpu_s", "s", "diagnostic only: use of a second core, never gated")]
    + [(f"{layer}.self_s", "s", "wall_s of the workloads that use the layer")
       for layer in ("sources", "cipher", "compression", "exponents", "optimize", "verify")]
    + [("trace.overhead_frac", "ratio", "none: traced wall_s / untraced wall_s - 1")]
)


def _law_key(model, n: int) -> tuple:
    """Identity of the n-letter law of ``model``: its kind, parameters and n."""
    parts = [type(model).__name__, n]
    for value in vars(model).values():
        for item in (value if isinstance(value, tuple) else (value,)):
            arr = getattr(item, "probs", item)
            parts.append(np.asarray(arr).tobytes() if isinstance(arr, np.ndarray) else repr(arr))
    return tuple(parts)


class _CheckSpan:
    """Span wrapper for a verify check that keeps the check's ``__code__``.

    ``verify.run_all`` inspects ``check.__code__`` to decide whether to pass
    the seed, so the wrapper must present the original signature.
    """

    def __init__(self, wrapper, original):
        self._wrapper = wrapper
        self.__code__ = original.__code__

    def __call__(self, *args, **kwargs):
        return self._wrapper(*args, **kwargs)


class Tracer:
    """In-memory span recorder plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.invocation = array("i")
        self._stack: list = []
        self._invocation = -1
        self.counts = {"sources.materialize.strings": 0,
                       "cipher.group_xor_moment_closed.messages": 0,
                       "cipher.brute_force_best_cipher.tables": 0,
                       "exponents.curve_rows": 0}
        self.laws: set = set()
        self._restore: list = []

    # -- span recording -------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        nid = self._name(name)
        stack = self._stack
        starts, ends = self.start, self.end
        add_name, add_parent = self.name_id.append, self.parent.append
        add_invocation, add_start, add_end = self.invocation.append, starts.append, ends.append

        def wrapper(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_invocation(self._invocation)
            add_end(0)
            stack.append(idx)
            add_start(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def invoke(self, fn, *args):
        """Run one CLI invocation as a root span ``cli.main``."""
        self._invocation += 1
        return self.span("cli.main", fn)(*args)

    # -- counted boundaries ---------------------------------------------

    def _counted(self, name: str, fn):
        inner = self.span(name, fn)
        counts = self.counts

        if name == "sources.materialize":
            def wrapper(model, n, *args, **kwargs):
                out = inner(model, n, *args, **kwargs)
                counts["sources.materialize.strings"] += model.alphabet_size ** n
                self.laws.add(_law_key(model, n))
                return out
        elif name == "cipher.group_xor_moment_closed":
            def wrapper(p, k, *args, **kwargs):
                m = 2 ** k
                counts["cipher.group_xor_moment_closed.messages"] += -(-p.size // m) * m
                return inner(p, k, *args, **kwargs)
        elif name == "cipher.brute_force_best_cipher":
            def wrapper(*args, **kwargs):
                out = inner(*args, **kwargs)
                counts["cipher.brute_force_best_cipher.tables"] += out.tables_searched
                return out
        elif name == "exponents.build_curve":
            def wrapper(model, rho, rates, *args, **kwargs):
                counts["exponents.curve_rows"] += len(rates)
                return inner(model, rho, rates, *args, **kwargs)
        elif name == "optimize.minimize_scan_golden":
            def wrapper(f, *args, **kwargs):
                caller = self.names[self.name_id[self._stack[-1]]] if self._stack else "cli"
                return inner(self.span(f"{caller}.objective", f), *args, **kwargs)
        else:
            return inner
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every layer's public functions and rebind every reference."""
        modules = {name: importlib.import_module(f"guesswork.{name}")
                   for name in LAYER_MODULES + ("cli",)}
        modules["__init__"] = importlib.import_module("guesswork")
        replaced = {}
        for layer in LAYER_MODULES:
            module = modules[layer]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or attr in _CLI_OWNED.get(layer, ())):
                    continue
                if layer == "verify" and attr.startswith("check_"):
                    name = f"verify.{attr[len('check_'):]}"
                else:
                    name = f"{layer}.{attr}"
                replaced[id(fn)] = (fn, self._counted(name, fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        verify = modules["verify"]
        self._restore.append((verify, "ALL_CHECKS", verify.ALL_CHECKS))
        verify.ALL_CHECKS = tuple(_CheckSpan(replaced[id(c)][1], c) for c in verify.ALL_CHECKS)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32),
        }

    def save(self, path):
        """Write every span to ``path`` (.npz) with the span-name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-name calls, self and inclusive time (ns), plus the counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        n_names = len(self.names)
        per_name = {
            "calls": np.bincount(a["name_id"], minlength=n_names),
            "self_ns": np.zeros(n_names, dtype=np.int64),
            "total_ns": np.zeros(n_names, dtype=np.int64),
        }
        np.add.at(per_name["self_ns"], a["name_id"], self_ns)
        np.add.at(per_name["total_ns"], a["name_id"], dur)
        return {
            "names": list(self.names),
            "calls": per_name["calls"].tolist(),
            "self_ns": per_name["self_ns"].tolist(),
            "total_ns": per_name["total_ns"].tolist(),
            "min_self_ns": int(self_ns.min()) if self_ns.size else 0,
            "curve_dual_calls": self._curve_dual_calls(a),
            "distinct_laws": len(self.laws),
            "counts": dict(self.counts),
        }

    def _curve_dual_calls(self, a: dict) -> int:
        """Outermost dual evaluations made inside a build_curve span."""
        curve_id = self._ids.get("exponents.build_curve")
        dual_ids = {self._ids[n] for n in DUAL_SPANS if n in self._ids}
        if curve_id is None or not dual_ids:
            return 0
        names = a["name_id"].tolist()
        parents = a["parent"].tolist()
        in_curve = [False] * len(names)
        in_dual = [False] * len(names)
        calls = 0
        for i, (nid, par) in enumerate(zip(names, parents)):
            outer_curve = par >= 0 and in_curve[par]
            outer_dual = par >= 0 and in_dual[par]
            in_curve[i] = outer_curve or nid == curve_id
            in_dual[i] = outer_dual or nid in dual_ids
            if nid in dual_ids and outer_curve and not outer_dual:
                calls += 1
        return calls


def layer_metrics(summary: dict, untraced_wall: float, traced: dict, rows: int) -> dict:
    """Every ``PER_LAYER`` metric from a trace summary and the traced pass.

    Ratios whose base is zero (a layer the workload never calls) read 0.
    """
    calls = dict(zip(summary["names"], summary["calls"]))
    self_s = {n: ns / 1e9 for n, ns in zip(summary["names"], summary["self_ns"])}
    total_s = {n: ns / 1e9 for n, ns in zip(summary["names"], summary["total_ns"])}
    counts = summary["counts"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for name in summary["names"]:
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_s[name]
        layer_calls[layer] += calls[name]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, _, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if metric in counts:
            out[metric] = counts[metric]
        elif field == "calls" and head in LAYERS:
            out[metric] = layer_calls[head]
        elif field == "self_s" and head in LAYERS:
            out[metric] = layer_self[head]
        elif field == "calls":
            out[metric] = calls.get(head, 0)
        elif field == "self_s":
            # a function's objective callbacks run its own code inside the optimizer
            out[metric] = self_s.get(head, 0.0) + self_s.get(f"{head}.objective", 0.0)
        elif field == "wall_s":
            out[metric] = total_s.get(head, 0.0)
    materialize_calls = calls.get("sources.materialize", 0)
    out["sources.materialize.bytes_computed"] = 8 * counts["sources.materialize.strings"]
    out["sources.materialize.reuse_ratio"] = ratio(summary["distinct_laws"], materialize_calls)
    out["exponents.dual_useful_ratio"] = ratio(counts["exponents.curve_rows"],
                                               summary["curve_dual_calls"])
    out["optimize.objective_evals"] = sum(c for n, c in calls.items() if n.endswith(".objective"))
    out["cli.invocations"] = calls.get("cli.main", 0)
    out["cli.rows"] = rows
    out["cli.output_bytes"] = traced["output_bytes"]
    out["cli.cpu_s"] = traced["cpu_s"]
    out["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
    return out


def self_time_gap(summary: dict, traced: dict) -> float:
    """Traced wall time minus the sum of every layer's self time (cli included), in s."""
    return traced["wall_s"] - sum(summary["self_ns"]) / 1e9
