"""Spans around the package's functions, recorded from outside the package.

``Tracer.install`` wraps every public function of the seven package
modules, the private ``ttest._marginal_likelihood_h1``, and the report
serializers, then rebinds each wrapper under every name that refers to the
original in any package module (``cli`` imports ``jzs_bayes_factor`` by
name, ``indices`` imports ``hpd_interval``, and so on), so calls made
inside the package are seen as well. Nothing under ``src/`` is changed.

A span is ``[name, parent, start, end, extra, error]``. Spans of one
operation are aggregated into ``Counters`` when the operation ends; the
spans themselves are kept in memory up to a budget and written out after
the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "report", "replicate", "ttest", "quadrature", "posterior", "indices")

# private functions that mark a layer boundary worth a span: one call is
# one marginal-likelihood quadrature (``ttest.bf.passes``)
PRIVATE = {"ttest": ("_marginal_likelihood_h1",)}
METHODS = (("report", "IndexReport", "to_json"), ("replicate", "ReplicationReport", "to_json"))

# time covered by spans of these names, not counting nested repeats
COVERED = {
    "cli.read_csv_ms": ("cli.read_two_group_csv",),
    "ttest.posterior_grid_ms": ("ttest.posterior_density_grid",),
    "ttest.bf_ms": ("ttest.jzs_bayes_factor", "ttest.bf_quadrature_error",
                    "ttest._marginal_likelihood_h1"),
    "ttest.nct_ms": ("ttest.noncentral_t_pdf",),
    "quadrature.gk_ms": ("quadrature.adaptive_gauss_kronrod",),
    "quadrature.gl_ms": ("quadrature.batched_log_integral",),
    "posterior.hpd_ms": ("posterior.hpd_interval",),
    "indices.fbst_ms": ("indices.fbst_evalue",),
    "indices.pd_ms": ("indices.probability_of_direction",),
    "indices.p_map_ms": ("indices.map_p_value",),
    "report.to_json_ms": ("report.IndexReport.to_json", "replicate.ReplicationReport.to_json"),
    "replicate.calibrate_ms": ("replicate.calibrate_reference_t",),
}
# span duration minus the time its child spans cover
SELF = {
    "report.run_all_indices_self_ms": ("report.run_all_indices",),
    "indices.rope_self_ms": ("indices.rope_decision", "indices.rope_mass"),
}
CALLS = {
    "ttest.nct.calls": "ttest.noncentral_t_pdf",
    "ttest.bf.passes": "ttest._marginal_likelihood_h1",
    "quadrature.gk.panels": "quadrature.gk_panel",
    "quadrature.gl.rounds": "quadrature.gauss_legendre_nodes",
    "posterior.hpd.calls": "posterior.hpd_interval",
    "posterior.map.calls": "posterior.map_estimate",
    "posterior.quantile.calls": "posterior.grid_quantile",
}
ERROR_LAYERS = ("ttest", "indices", "posterior", "report")
# spans kept in memory and written out per traced run
KEEP_SPANS = 20_000

_NONE: frozenset = frozenset()
_IN_GRID = "_in_posterior_grid"
_IN_CAL = "_in_calibration"
_MEMBER_OF: dict[str, frozenset] = {}
for _group, _names in {**COVERED, _IN_GRID: ("ttest.posterior_density_grid",),
                       _IN_CAL: ("replicate.calibrate_reference_t",)}.items():
    for _name in _names:
        _MEMBER_OF[_name] = _MEMBER_OF.get(_name, _NONE) | {_group}
_CALL_METRIC = {name: metric for metric, name in CALLS.items()}
_SELF_METRIC = {name: metric for metric, names in SELF.items() for name in names}


def _count_points(args, kwargs, result) -> float:
    import numpy as np
    x = args[0] if args else kwargs["x"]
    ncp = args[2] if len(args) > 2 else kwargs["ncp"]
    return float(np.broadcast(np.asarray(x), np.asarray(ncp)).size)


# extra number stored on a span, from its arguments and result
EXTRA = {
    "ttest.noncentral_t_pdf": _count_points,
    "quadrature.gauss_legendre_nodes": lambda a, k, r: float(a[0] if a else k["n"]),
    "cli.read_two_group_csv": lambda a, k, r: float(r.group1.size + r.group2.size),
    "ttest.posterior_density_grid": lambda a, k, r: float(r.points.size),
    "cli.main": lambda a, k, r: float(r),
}


class Counters:
    """Sums over traced operations; mergeable across processes."""

    def __init__(self, data: dict | None = None):
        self.sums: defaultdict[str, float] = defaultdict(float, (data or {}).get("sums", {}))
        self.maxima: defaultdict[str, float] = defaultdict(float, (data or {}).get("maxima", {}))

    def merge(self, other: "Counters") -> None:
        for key, value in other.sums.items():
            self.sums[key] += value
        for key, value in other.maxima.items():
            self.maxima[key] = max(self.maxima[key], value)

    def to_dict(self) -> dict:
        return {"sums": dict(self.sums), "maxima": dict(self.maxima)}

    def add_op(self, spans: list) -> None:
        s = self.sums
        s["ops"] += 1
        child = [0.0] * len(spans)
        # ancestor_groups[i]: the COVERED groups and markers that have a span
        # among the ancestors of span i
        ancestor_groups: list[frozenset] = []
        for i, (name, parent, start, end, extra, error) in enumerate(spans):
            duration = end - start
            if parent < 0:
                above = _NONE
                parent_layer = None
            else:
                child[parent] += duration
                parent_name = spans[parent][0]
                above = ancestor_groups[parent] | _MEMBER_OF.get(parent_name, _NONE)
                parent_layer = parent_name.split(".", 1)[0]
            ancestor_groups.append(above)
            for group in _MEMBER_OF.get(name, _NONE):
                if group not in above and group in COVERED:
                    s[group] += 1e3 * duration
            metric = _CALL_METRIC.get(name)
            if metric is not None:
                s[metric] += 1
            if name == "ttest.noncentral_t_pdf" and extra is not None:
                s["nct_points"] += extra
                if _IN_GRID in above:
                    s["grid_nct_points"] += extra
            elif name == "ttest.posterior_density_grid" and extra is not None:
                s["grid_kept_points"] += extra
            elif name == "quadrature.gauss_legendre_nodes" and extra is not None:
                self.maxima["quadrature.gl.max_nodes"] = max(
                    self.maxima["quadrature.gl.max_nodes"], extra)
            elif name == "cli.read_two_group_csv" and extra is not None:
                s["cli.read_csv_rows"] += extra
            elif name == "replicate.calibrate_reference_t":
                s["calibrations"] += 1
            elif name == "ttest.jzs_bayes_factor" and _IN_CAL in above:
                s["calibration_bf_evals"] += 1
            elif name == "cli.main" and parent < 0 and (error is not None or extra != 0):
                s["cli.errors"] += 1
            if error is not None:
                layer = name.split(".", 1)[0]
                if layer in ERROR_LAYERS and parent_layer != layer:
                    s[f"{layer}.errors"] += 1
        for i, span in enumerate(spans):
            metric = _SELF_METRIC.get(span[0])
            if metric is not None:
                s[metric] += 1e3 * (span[3] - span[2] - child[i])

    def layer_metrics(self) -> dict[str, float]:
        s = self.sums
        ops = max(s["ops"], 1.0)
        out = {name: s[name] / ops for name in (*COVERED, *SELF, *CALLS)}
        out["cli.read_csv_rows"] = s["cli.read_csv_rows"] / ops
        out["ttest.nct.points"] = s["nct_points"] / ops
        out["ttest.nct.ns_per_point"] = (1e6 * s["ttest.nct_ms"] / s["nct_points"]
                                         if s["nct_points"] else 0.0)
        out["ttest.grid.useful_point_share"] = (s["grid_kept_points"] / s["grid_nct_points"]
                                                if s["grid_nct_points"] else 0.0)
        out["quadrature.gl.max_nodes"] = self.maxima["quadrature.gl.max_nodes"]
        out["replicate.bf_evals_per_calibration"] = (
            s["calibration_bf_evals"] / s["calibrations"] if s["calibrations"] else 0.0)
        for layer in ("cli", *ERROR_LAYERS):
            out[f"{layer}.errors"] = s[f"{layer}.errors"] / ops
        del out["ttest.nct_ms"]
        return out


class Tracer:
    """Installs the wrappers and collects spans per operation."""

    def __init__(self):
        self.counters = Counters()
        self.kept: list[list] = []
        self._op = 0
        self._spans: list[list] = []
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self._spans = []
        self._stack = []

    def end_op(self) -> None:
        self.counters.add_op(self._spans)
        if len(self.kept) < KEEP_SPANS:
            self.kept.extend([self._op, *sp] for sp in self._spans)
        self._op += 1

    def _wrap(self, name: str, fn):
        extra_of = EXTRA.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._spans, tracer._stack
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            if name == "quadrature.adaptive_gauss_kronrod":
                args = (tracer._wrap("quadrature.gk_panel", args[0]), *args[1:])
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if extra_of is not None:
                rec[4] = extra_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("bayesindices")
        modules = {layer: importlib.import_module(f"bayesindices.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if (public and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and callable(obj) and not isinstance(obj, type):
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}",
                                            getattr(cls, method)))


def write_spans(path: Path, spans: list) -> None:
    """One JSON line per span: op, name, parent, start, end, extra, error."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "x", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
