"""Spans recorded around calls into pklap's layers, from outside the package.

The benchmark never edits `src/`.  Instead it replaces module-level names
(and a few class attributes) with wrappers while a traced pass runs and puts
the originals back afterwards.  Because the package binds names with
`from .operators import residual_values`, a wrapper is installed in every
pklap module that holds the original object, or calls from that module are
missed.

Each wrapped call becomes a span (name, start, end, parent) appended to flat
arrays kept in memory; `save` writes them out when the run ends.  A span's
self time is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import sys
import time
import warnings
from array import array
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "pklap"

# (span name, module, attribute) for module-level functions.  The wrapper
# goes into every pklap module whose attribute of that name is the same
# object as the original.
FUNCTION_SEAMS = (
    ("residual_values", "operators", "residual_values"),
    ("action", "functional", "action"),
    ("gradient_fd", "functional", "gradient_fd"),
    ("hessian_fd", "functional", "hessian_fd"),
    ("morse_summary", "functional", "morse_summary"),
    ("newton", "solvers", "_newton_iterate"),
    ("deflation", "solvers", "_deflation_terms"),
    ("dedupe", "solvers", "_same_solution"),
    ("mountain_pass", "solvers", "mountain_pass"),
    ("find_multiple", "solvers", "find_multiple"),
    ("xi_constant", "analysis", "xi_constant"),
    ("thresholds", "analysis", "thresholds"),
    ("check_growth", "analysis", "check_growth"),
    ("check_bounds", "analysis", "check_bounds"),
    ("check_b2_b3", "analysis", "check_b2_b3"),
    ("anticoercivity_probe", "analysis", "anticoercivity_probe"),
    ("lambda_star_estimate", "analysis", "lambda_star_estimate"),
    ("sampled_c", "cli", "_sampled_c_reports"),
    ("load_config", "cli", "load_config"),
    ("write", "cli", "_atomic_write"),
)

# (span name, module, class, attribute) for methods.
METHOD_SEAMS = (
    ("nonlinearity_f", "core", "Nonlinearity", "f"),
    ("nonlinearity_F_at", "core", "Nonlinearity", "F_at"),
    ("jacobian", "solvers", "_System", "jacobian"),
)

# Counted without a span: constructions are too frequent and too cheap for
# a span each, and their time belongs to the caller.
COUNT_SEAMS = (("periodic_sequence", "core", "PeriodicSequence", "__post_init__"),)


class Tracer:
    """In-memory span store plus the seam installer for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.known_sizes: list[int] = []
        self.extra_starts_max = 0
        self.asym_warnings = 0
        self.dedupe_true = 0
        self.newton_converged = 0
        self.records_added = 0
        self.bytes_written = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    # -- observers for counts that need the arguments or the result ---------

    def _observe_deflation(self, args, kwargs, out):
        known = args[1] if len(args) > 1 else kwargs["known"]
        self.known_sizes.append(len(known))

    def _observe_dedupe(self, args, kwargs, out):
        if out:
            self.dedupe_true += 1

    def _observe_newton(self, args, kwargs, out):
        if out[2]:
            self.newton_converged += 1

    def _observe_find_multiple(self, args, kwargs, out):
        extra = kwargs.get("extra_starts", args[3] if len(args) > 3 else ())
        self.extra_starts_max = max(self.extra_starts_max, len(extra))
        self.records_added += len(out.records)

    def _observe_write(self, args, kwargs, out):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.bytes_written += len(text.encode("utf-8"))

    def _hessian_with_warnings(self, fn):
        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn(*args, **kwargs)
            self.asym_warnings += sum(
                1 for w in caught if "asymmetry" in str(w.message)
            )
            return out

        return counted

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    @staticmethod
    def _module(short: str):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def install(self) -> None:
        observers = {
            "deflation": self._observe_deflation,
            "dedupe": self._observe_dedupe,
            "newton": self._observe_newton,
            "find_multiple": self._observe_find_multiple,
            "write": self._observe_write,
        }
        modules = self._modules()
        for span, short, attr in FUNCTION_SEAMS:
            home = self._module(short)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.missing.add(span)
                continue
            target = original
            if span == "hessian_fd":
                target = self._hessian_with_warnings(original)
            wrapper = self._wrap(span, target, observers.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for span, short, cls_name, attr in METHOD_SEAMS:
            cls = getattr(self._module(short), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.add(span)
                continue
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))
        for span, short, cls_name, attr in COUNT_SEAMS:
            cls = getattr(self._module(short), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.add(span)
                continue
            counts = self.counts

            def counted(obj, _original=original, _span=span):
                counts[_span] += 1
                return _original(obj)

            self._undo.append((cls, attr, original))
            setattr(cls, attr, counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> tuple[Counter, defaultdict, Counter]:
        """Calls and self seconds per span name, and child counts.

        `children[(parent, child)]` counts spans of `child` whose direct
        parent span is `parent`.
        """
        n = len(self.span_start)
        names = [self.names[i] for i in self.span_name]
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        self_time = defaultdict(float)
        children = Counter()
        for i in range(n):
            self_time[names[i]] += durations[i]
            p = self.span_parent[i]
            if p >= 0:
                self_time[names[p]] -= durations[i]
                children[(names[p], names[i])] += 1
        return Counter(names), self_time, children

    def save(self, path: str) -> None:
        """Write the raw spans as a compressed npz (name table included)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
