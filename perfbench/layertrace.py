"""Out-of-program tracer: spans and counts at jetcontact's layer boundaries.

The tracer wraps functions and methods at the library's layer boundaries
from outside; nothing under ``src/`` changes.  A wrapped callable is replaced on its
defining module or class and on every ``jetcontact`` module that bound it
with ``from .x import y``, so calls through those names are traced too.

Each call records a span ``[name, start, end, parent, job]``, kept in memory
and written out by :meth:`Tracer.dump`.  A span's self time is its duration
minus the time covered by its child spans; the work is single-threaded, so
children never overlap and that is the sum of their durations.  Counts
recorded at the same boundaries are deterministic for a given job, because
they depend only on the jet shapes ``(dim, holo order, anti order, rank)``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from math import comb

_NAME, _START, _END, _PARENT, _JOB = range(5)


def _mul_counts(args) -> dict:
    """Shape key and computed flops of a truncated jet product: one complex
    rank x rank matrix product (8 r^3 real flops) per pair of coefficient
    positions whose multi-indices add up to at most the truncation order."""
    a, b = args[0], args[1]
    dim, rank = a.dim, a.rank
    p, q = min(a.holo_order, b.holo_order), min(a.anti_order, b.anti_order)
    pairs = comb(p + 2 * dim, 2 * dim) * comb(q + 2 * dim, 2 * dim)
    return {f"jetcore.mul[d{dim},p{p},q{q},r{rank}]": 1,
            "jetcore.mul.flops": 8 * rank**3 * pairs}


def _inv_counts(args) -> dict:
    a = args[0]
    return {f"jetcore.inv[d{a.dim},p{a.holo_order},q{a.anti_order},r{a.rank}]": 1,
            "jetcore.inv.memo_hits": int(a._inv_cache is not None)}


def _gram_jet_counts(args) -> dict:
    spec, holo, anti = args[0], args[2], args[3]
    return {f"kernelexpr.gram_jet[d{spec.dimension},p{holo},q{anti},r{spec.rank}]": 1}


def _system_counts(args) -> dict:
    """Bytes of the stacked Sylvester system: 2k blocks (the pairs and their
    adjoints) of size s^2 x s^2, complex128."""
    k, size = len(args[0]), len(args[0][0])
    return {"simeq.system_bytes.max": 16 * 2 * k * size**4}


# (module, attribute or Class.method, span name, parent span names it is
# limited to or None, counter hook or None).  A call limited to some parents
# opens no span elsewhere, so its time stays with the caller.  Hook counts
# add up per job, except that a key ending in ".max" keeps the largest value.
TARGETS = [
    ("cli", "main", "cli.main", None, None),
    ("cli", "load_config", "cli.load_config", None, None),
    ("cli", "run", "cli.run", None, None),
    ("cli", "_emit", "cli.emit", None, None),
    ("kernelexpr", "parse_kernel", "kernelexpr.parse", None, None),
    ("kernelexpr", "BundleSpec.gram_jet", "kernelexpr.gram_jet", None, _gram_jet_counts),
    ("kernelexpr", "BundleSpec.validate", "kernelexpr.validate", None, None),
    ("jetcore", "HermJet.__mul__", "jetcore.mul", None, _mul_counts),
    ("jetcore", "HermJet.inv", "jetcore.inv", None, _inv_counts),
    ("jetcore", "HermJet.exp", "jetcore.series", None, None),
    ("jetcore", "HermJet.log", "jetcore.series", None, None),
    ("jetcore", "HermJet.power", "jetcore.series", None, None),
    ("jetcore", "HermJet.holo_part", "jetcore.holo", None, None),
    ("jetcore", "HoloJet.__mul__", "jetcore.holo", None, None),
    ("jetcore", "HoloJet.inv", "jetcore.holo", None, None),
    ("jetcore", "HoloJet.as_herm", "jetcore.holo", None, None),
    ("jetcore", "HoloJet.adjoint_as_herm", "jetcore.holo", None, None),
    ("geometry", "connection", "geometry.curvature", None, None),
    ("geometry", "curvature", "geometry.curvature", None, None),
    ("geometry", "Q_jet", "geometry.curvature", None, None),
    ("geometry", "map_adjoint_jet", "geometry.curvature", None, None),
    ("geometry", "cov_deriv", "geometry.cov_deriv", None, None),
    ("geometry", "L_tensor", "geometry.recursions", None, None),
    ("geometry", "K1j_recursion", "geometry.recursions", None, None),
    ("geometry", "Q_value", "geometry.recursions", None, None),
    ("geometry", "Q_recursion", "geometry.recursions", None, None),
    ("geometry", "normalize_frame", "geometry.normalize_frame", None, None),
    ("pascal", "pascal_expand", "pascal", None, None),
    ("pascal", "pascal_from_column", "pascal", None, None),
    ("pascal", "multi_lambda_from_jet", "pascal", None, None),
    ("pascal", "multi_pascal_generator", "pascal", None, None),
    ("contact", "check_problem", "contact.check", None, None),
    ("contact", "_alongz_at", "contact.point", None, None),
    ("contact", "_pointwise_at", "contact.point", None, None),
    # the analytic route runs inline in _alongz_at; these are its calls
    ("contact", "extend_A_sequence", "contact.analytic", {"contact.point"}, None),
    ("contact", "holomorphy_conditions", "contact.analytic", {"contact.point"}, None),
    ("contact", "jet_gram", "contact.analytic", {"contact.point"}, None),
    ("contact", "geometric_conditions", "contact.geometric", {"contact.point"}, None),
    ("contact", "pointwise_rank1_decide", "contact.spot_check", {"contact.point"}, None),
    ("contact", "pointwise_verify", "contact.spot_check", {"contact.point"}, None),
    ("contact", "_full_candidate_from_slice", "contact.spot_check", {"contact.point"}, None),
    ("contact", "pointwise_normalized_decide", "contact.decide", None, None),
    ("rkhs", "quotient_model", "rkhs.quotient_model", None, None),
    ("rkhs", "direct_equiv_check", "rkhs.direct_equiv_check", None, None),
    ("rkhs", "unitary_equiv_check", "rkhs.unitary_equiv_check", None, None),
    ("simeq", "unitary_intertwiner", "simeq.unitary_intertwiner", None, _system_counts),
]


class Tracer:
    """Spans and counts for the calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}  # job -> Counter
        self.job = None
        self._stack: list = []
        self._saved: list = []  # (owner, attribute, original) to restore

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {k: v for k, v in sys.modules.items()
                   if k == "jetcontact" or k.startswith("jetcontact.")}
        for mod_name, attr, name, only_under, hook in TARGETS:
            owner = modules[f"jetcontact.{mod_name}"]
            *cls, leaf = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[leaf]
            wrapper = self._wrap(original, name, only_under, hook)
            self._bind(owner, leaf, original, wrapper)
            if not cls:
                # rebind `from .x import y` copies in the other modules
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._bind(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _bind(self, owner, key, original, wrapper) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name, only_under, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if only_under is not None and (parent < 0 or spans[parent][_NAME] not in only_under):
                return fn(*args, **kwargs)
            if hook is not None:
                counts = self.counts.setdefault(self.job, Counter())
                for key, value in hook(args).items():
                    if key.endswith(".max"):
                        counts[key] = max(counts[key], value)
                    else:
                        counts[key] += value
            span = [name, clock(), None, parent, self.job]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------------

    def per_job(self) -> dict:
        """job -> {span name: (calls, self seconds)}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        out: dict = {}
        for k, span in enumerate(self.spans):
            layer = out.setdefault(span[_JOB], {}).setdefault(span[_NAME], [0, 0.0])
            layer[0] += 1
            layer[1] += span[_END] - span[_START] - child_time[k]
        return out

    def dump(self, path: str) -> None:
        """Write every span, as [name, start, end, parent, job], and the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "job"],
                       "spans": self.spans,
                       "counts": {str(job): dict(sorted(c.items()))
                                  for job, c in self.counts.items()}}, fh)
