"""In-memory span tracing around nvmix's public functions.

The benchmark never edits nvmix.  It replaces, for the length of a traced
pass, the names each nvmix module bound at import time with wrappers that
record a span (name, start, end, parent) and an optional unit count (u
values for a quantile call, points for an integrand batch, ...).  A
layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span names whose quantile children count as the adaptive density's
# peak/bracket search.
SEARCH_SPANS = ("density.peak", "density.region_bounds")


def _rows(x) -> int:
    return int(np.atleast_2d(x).shape[0])


class Tracer:
    """Records nested spans; ``spans[i] = [name, start, end, parent, units]``
    with ``parent = -1`` for a root."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, units: int) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, units]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A root span (one benchmark pass) around the ``with`` body."""
        rec = self._open(name, 0)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, units=None, wrap_arg: tuple | None = None):
        """Span-recording wrapper of ``fn``.

        ``units(args, kwargs)`` gives the span's unit count.  ``wrap_arg =
        (position, span_name, units)`` also wraps a callable argument (an
        estimator's integrand) so each of its calls is a child span.
        """
        def traced(*args, **kwargs):
            if wrap_arg is not None:
                pos, inner_name, inner_units = wrap_arg
                args = list(args)
                args[pos] = self.wrap(inner_name, args[pos], inner_units)
            rec = self._open(name, units(args, kwargs) if units else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unpatch`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, nv) -> None:
    """Wrap nvmix's layers under the names their callers bound at import.

    ``nv`` is the namespace of freshly imported nvmix modules.
    """
    size_of_u = lambda a, k: int(np.size(a[1]))  # quantile(spec, u, nu), g(self, u)
    for mod in (nv.density, nv.distribution, nv.sampling, nv.mixtures):
        tracer.patch(mod, "quantile", "mixtures.quantile", units=size_of_u)
    tracer.patch(nv.model, "cholesky", "linalg.cholesky")
    tracer.patch(nv.density, "mahalanobis_sq", "linalg.mahalanobis_sq",
                 units=lambda a, k: _rows(a[0]))
    tracer.patch(nv.distribution, "reorder", "distribution.reorder")
    tracer.patch(nv.distribution.BoxIntegrand, "__call__", "distribution.integrand",
                 units=size_of_u)
    tracer.patch(nv.distribution, "rqmc_estimate", "rqmc",
                 wrap_arg=(0, "rqmc.integrand", lambda a, k: _rows(a[0])))
    tracer.patch(nv.density, "rqmc_log_estimate", "density.mid_rqmc",
                 wrap_arg=(0, "density.mid_rqmc.integrand", lambda a, k: _rows(a[0])))
    tracer.patch(nv.density, "peak", "density.peak")
    tracer.patch(nv.density, "region_bounds", "density.region_bounds")
    tracer.patch(nv.density, "log_integral_batch", "density.log_integral_batch",
                 units=lambda a, k: len(a[0]))
    tracer.patch(nv.density, "log_density_batch", "density.log_density_batch",
                 units=lambda a, k: _rows(a[0]))
    tracer.patch(nv.distribution, "prob", "distribution.prob")
    tracer.patch(nv.distribution, "prob_singular", "distribution.prob_singular")
    tracer.patch(nv.sampling, "rnvmix", "sampling.rnvmix", units=lambda a, k: int(a[0]))


def aggregate(spans: list[list], lo: int = 0, hi: int | None = None) -> dict:
    """Per-name totals over the whole span trees ``spans[lo:hi]``: calls,
    units, inclusive and self seconds, and the calls of each name per
    parent name."""
    hi = len(spans) if hi is None else hi
    child_s = np.zeros(hi - lo)
    for rec in spans[lo:hi]:
        if rec[3] >= 0:
            child_s[rec[3] - lo] += rec[2] - rec[1]
    out = defaultdict(lambda: {"calls": 0, "units": 0, "total_s": 0.0,
                               "self_s": 0.0, "by_parent": defaultdict(int)})
    for i, (name, start, end, parent, units) in enumerate(spans[lo:hi]):
        agg = out[name]
        agg["calls"] += 1
        agg["units"] += units
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_s[i]
        agg["by_parent"][spans[parent][0] if parent >= 0 else ""] += 1
    return out
