"""Span tracing of tfim_rfs from outside the library.

``install`` replaces the public functions of every layer by timing wrappers,
at each module attribute through which a caller looks them up (the defining
module, the package namespace and every module that imported the name).  A
span is [name, start, end, parent index, run id, detail].  ``layer_metrics``
turns one repetition's spans into the per-layer counts and self times.
Nothing here imports tfim_rfs itself.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (defining module, function, layer)
TARGETS = {
    "elliptic.k": ("tfim_rfs.elliptic", "elliptic_k", "elliptic"),
    "elliptic.e": ("tfim_rfs.elliptic", "elliptic_e", "elliptic"),
    "exact.finite": ("tfim_rfs.exact", "correlators_finite", "exact.finite"),
    "exact.thermo": ("tfim_rfs.exact", "correlators_thermo", "exact.thermo"),
    "rdm.build": ("tfim_rfs.rdm", "build_rdm", "rdm.build"),
    "rfs.closed_form": ("tfim_rfs.rfs", "rfs_closed_form", "rfs.closed_form"),
    "rfs.oracle": ("tfim_rfs.rfs", "rfs_oracle", "rfs.oracle"),
    "rfs.susceptibility": ("tfim_rfs.rfs", "susceptibility", "rfs.susceptibility"),
    "rfs.susceptibility_thermo": ("tfim_rfs.rfs", "susceptibility_thermo", "rfs.susceptibility_thermo"),
    "scaling.find_peak": ("tfim_rfs.scaling", "find_peak", "scaling.find_peak"),
    "scaling.fit_finite_size": ("tfim_rfs.scaling", "fit_finite_size", "scaling.fit"),
    "scaling.fit_thermo": ("tfim_rfs.scaling", "fit_thermo", "scaling.fit"),
    "scaling.fit_sq_log_model": ("tfim_rfs.scaling", "fit_sq_log_model", "scaling.fit"),
    "scaling.data_collapse": ("tfim_rfs.scaling", "data_collapse", "scaling.collapse"),
    "scaling.collapse_quality": ("tfim_rfs.scaling", "collapse_quality", "scaling.collapse"),
    "scaling.best_collapse_exponent": ("tfim_rfs.scaling", "best_collapse_exponent", "scaling.collapse"),
    "cli.main": ("tfim_rfs.cli", "main", "cli"),
}

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS.values()))


def _finite_detail(spec, *args, **kwargs):
    return [spec.n_sites, spec.lam]


# Arguments kept on the span where a layer metric needs them.
_DETAIL = {"exact.finite": _finite_detail}


class Tracer:
    """In-memory span recorder; ``spans`` grows in call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, run_id = self.spans, self._stack, time.perf_counter, self.run_id
        detail = _DETAIL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, run_id,
                          detail(*args, **kwargs) if detail else None])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target at every tfim_rfs module attribute bound to it.

    A target whose function no longer exists is skipped and records no
    spans, which run.py reports as a missing layer.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "tfim_rfs" or name.startswith("tfim_rfs."))]
    for span_name, (module_name, attr, _) in TARGETS.items():
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times of one repetition.

    Self time is a span's duration minus that of its direct children.  A
    layer's ``calls`` counts its spans whose parent lies in another layer,
    so a fit calling a fit helper is one call.  Ratios with an empty base
    read 0.
    """
    layer_of = {name: layer for name, (_, _, layer) in TARGETS.items()}
    count = {name: 0 for name in TARGETS}
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_time[parent] += span[2] - span[1]
    finite_parents = set()
    finite_inputs = set()
    modes = 0
    peak_evals = 0
    for index, (name, start, end, parent, _, detail) in enumerate(spans):
        layer = layer_of[name]
        count[name] += 1
        self_s[layer] += (end - start) - child_time[index]
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent_name is None or layer_of[parent_name] != layer:
            calls[layer] += 1
        if name == "exact.finite":
            modes += detail[0]
            finite_inputs.add(tuple(detail))
            if parent >= 0:
                finite_parents.add(parent)
        elif name == "rfs.susceptibility" and parent_name == "scaling.find_peak":
            peak_evals += 1

    def ratio(num, den):
        return num / den if den else 0.0

    sus_misses = sum(1 for p in finite_parents if spans[p][0] == "rfs.susceptibility")
    return {
        "exact.finite.calls": calls["exact.finite"],
        "exact.finite.modes": modes,
        "exact.finite.self_s": self_s["exact.finite"],
        "exact.finite.ns_per_mode": ratio(self_s["exact.finite"] * 1e9, modes),
        "exact.finite.distinct_ratio": ratio(len(finite_inputs), calls["exact.finite"]),
        "rfs.oracle.calls": calls["rfs.oracle"],
        "rfs.oracle.self_s": self_s["rfs.oracle"],
        "rfs.oracle.finite_calls_per_point": ratio(calls["exact.finite"], calls["rfs.oracle"]),
        "rfs.susceptibility.calls": calls["rfs.susceptibility"],
        "rfs.memo_hit_ratio": ratio(calls["rfs.susceptibility"] - sus_misses,
                                    calls["rfs.susceptibility"]),
        "scaling.find_peak.calls": calls["scaling.find_peak"],
        "scaling.find_peak.self_s": self_s["scaling.find_peak"],
        "scaling.find_peak.evals_per_peak": ratio(peak_evals, calls["scaling.find_peak"]),
        "scaling.collapse.self_s": self_s["scaling.collapse"],
        "scaling.collapse.quality_evals": count["scaling.collapse_quality"],
        "elliptic.calls": calls["elliptic"],
        "elliptic.self_s": self_s["elliptic"],
        "exact.thermo.calls": calls["exact.thermo"],
        "exact.thermo.self_s": self_s["exact.thermo"],
        "rdm.build.calls": calls["rdm.build"],
        "rdm.build.self_s": self_s["rdm.build"],
        "rfs.closed_form.calls": calls["rfs.closed_form"],
        "rfs.closed_form.self_s": self_s["rfs.closed_form"],
        "rfs.closed_form.us_per_call": ratio(self_s["rfs.closed_form"] * 1e6,
                                             calls["rfs.closed_form"]),
        "scaling.fit.calls": calls["scaling.fit"],
        "scaling.fit.self_s": self_s["scaling.fit"],
        "cli.self_s": self_s["cli"],
    }


def layer_calls(spans) -> dict[str, int]:
    """Number of spans per layer, to tell a layer that was never reached."""
    layer_of = {name: layer for name, (_, _, layer) in TARGETS.items()}
    out = {layer: 0 for layer in LAYERS}
    for span in spans:
        out[layer_of[span[0]]] += 1
    return out
