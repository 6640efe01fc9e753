"""In-memory spans and the wrappers that record them at l2mech's module seams.

A traced pass patches the public functions of each l2mech module where
the *calling* module binds them (``l2mech.lossbounds.cap_fraction`` is
the name ``check_approx_dp``'s helpers look up, not
``l2mech.capgeom.cap_fraction``), so the library itself is untouched.
Each call becomes a span (id, parent id, name, start, end) kept in a
list until the run ends; counts are recorded at the same boundary.

Kernel iteration counts come from calling the public ``*_result``
variant on the same arguments after the kernel's span has closed.  That
second call runs inside its own ``trace.iteration_probe`` span so that
the self time of the enclosing layer does not absorb it.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

PROBE = "trace.iteration_probe"


class Tracer:
    """Records nested spans and per-layer counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 1

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, t0, t1))

    def record_max(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], int(value))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; one caller runs at a time, so children never overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for span_id, _, name, t0, t1 in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - child_time[span_id]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        by_id = {s[0]: s for s in self.spans}
        total = 0
        for _, parent, span_name, _, _ in self.spans:
            if span_name != name:
                continue
            while parent:
                parent_span = by_id[parent]
                if parent_span[2] == ancestor:
                    total += 1
                    break
                parent = parent_span[1]
        return total

    def write_jsonl(self, path, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "pass": pass_index,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": t0,
                            "end": t1,
                        }
                    )
                    + "\n"
                )


def _elements(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


class Instrumentation:
    """Installs span wrappers on the l2mech modules and removes them again.

    Use as a context manager around exactly the calls to be traced; the
    original functions are restored on exit even if a call raised.
    """

    def __init__(self, lib, tracer: Tracer):
        self.lib = lib
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, module, attr: str, name: str, after=None):
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            try:
                result = tracer.call(name, original, args, kwargs)
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def _probe(self, name: str, fn, *args) -> None:
        res = self.tracer.call(PROBE, fn, args, {})
        self.tracer.record_max(f"{name}.max_iters", res.iterations)

    def __enter__(self):
        self.missing = []
        lib, tr = self.lib, self.tracer
        specfun = lib.specfun

        def lower_gamma(args, _):
            tr.counts["specfun.reg_lower_gamma.elements"] += _elements(*args[:2])
            self._probe(
                "specfun.reg_lower_gamma", specfun.reg_lower_gamma_result, *args[:2]
            )

        def inc_beta(args, _):
            tr.counts["specfun.reg_inc_beta.elements"] += _elements(*args[:3])
            self._probe("specfun.reg_inc_beta", specfun.reg_inc_beta_result, *args[:3])

        def cap(args, _):
            tr.counts["capgeom.cap_fraction.elements"] += _elements(*args[1:3])

        def certified(args, report):
            tr.counts["lossbounds.check_approx_dp.certified"] += bool(report.satisfies_dp)

        def drawn(args, out):
            out = np.asarray(out)
            tr.counts["sampler.sample_l2.draws"] += out.shape[0] if out.ndim == 2 else 1
            tr.counts["sampler.sample_l2.bytes_out_computed"] += out.nbytes

        def verified(args, est):
            tr.counts["mcverify.empirical_lhs.draws"] += 2 * int(est.n)

        for module in (lib.lossbounds, lib.capgeom):
            self._wrap(module, "reg_lower_gamma", "specfun.reg_lower_gamma", lower_gamma)
        self._wrap(lib.lossbounds, "reg_upper_gamma", "specfun.reg_upper_gamma")
        self._wrap(lib.lossbounds, "inv_reg_upper_gamma", "specfun.inv_reg_upper_gamma")
        self._wrap(lib.capgeom, "reg_inc_beta", "specfun.reg_inc_beta", inc_beta)
        self._wrap(lib.lossbounds, "cap_fraction", "capgeom.cap_fraction", cap)
        self._wrap(lib.lossbounds, "term1_upper_bound", "lossbounds.term1_upper_bound")
        self._wrap(lib.lossbounds, "term2_lower_bound", "lossbounds.term2_lower_bound")
        self._wrap(lib.calibrate, "check_approx_dp", "lossbounds.check_approx_dp", certified)
        for module in (lib.calibrate, lib.errormodel):
            self._wrap(module, "calibrate_l2", "calibrate.calibrate_l2")
        self._wrap(lib.errormodel, "calibrate_gaussian", "calibrate.calibrate_gaussian")
        self._wrap(lib.errormodel, "comparison_table", "errormodel.comparison_table")
        for module in (lib.sampler, lib.mcverify):
            self._wrap(module, "sample_l2", "sampler.sample_l2", drawn)
        self._wrap(lib.sampler, "sample_l2_parallel", "sampler.sample_l2_parallel")
        self._wrap(lib.mcverify, "empirical_lhs", "mcverify.empirical_lhs", verified)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False
