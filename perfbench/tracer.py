"""In-memory span tracer for the optocool layer modules.

`Tracer.install` wraps the public functions and public methods of every
layer module (``optocool.<layer>``) and rebinds each name that other
optocool modules imported from it, e.g. ``optocool.cli.closed_loop_variance``
and the package-level ``optocool.closed_loop_variance``. `uninstall` puts
every original back.

A band integral calls the resonator model thousands of times, so a traced
job opens millions of spans. Each span is folded into an aggregate keyed
by (tag, parent span name, span name) when it closes; the aggregates, not
the raw spans, stay in memory. The tag is set by the workload around each
op, so spans of one kind of op share an identifier.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("config", "resonator", "cooling", "cascade", "feedback", "readout",
          "simulate", "psd", "spectrum", "cli")

ROOT_PARENT = ""


class Tracer:
    """Span aggregates, error counts and probe counters of one traced job.

    spans    : (tag, parent name, name) -> [calls, total s, self s]
    errors   : (layer, exception type name) -> count, each exception once
    counters : free-form totals filled by probes, see `probes`
    probes   : span name -> callable(counters, args, kwargs, result, dur),
               called after the span returns normally
    """

    def __init__(self, probes=None):
        self.tag = "setup"
        self.spans = {}
        self.errors = {}
        self.counters = {}
        self.probes = dict(probes or {})
        self._stack = []
        self._seen_errors = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _record_error(self, layer, exc):
        if any(seen is exc for seen in self._seen_errors):
            return
        self._seen_errors.append(exc)
        key = (layer, type(exc).__name__)
        self.errors[key] = self.errors.get(key, 0) + 1

    def _wrap(self, name, layer, fn):
        probe = self.probes.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._record_error(layer, exc)
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    parent_name = parent[0]
                else:
                    parent_name = ROOT_PARENT
                key = (self.tag, parent_name, name)
                agg = spans.get(key)
                if agg is None:
                    spans[key] = [1, dur, dur - frame[1]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
            if probe is not None:
                probe(self.counters, args, kwargs, result, dur)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"optocool.{layer}")
            for attr, obj in list(vars(mod).items()):
                own = getattr(obj, "__module__", None) == mod.__name__
                if attr.startswith("_") or not own:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
                elif inspect.isclass(obj):
                    for meth, member in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(member):
                            continue
                        self._patch(obj, meth, self._wrap(
                            f"{layer}.{obj.__name__}.{meth}", layer, member))
        for modname, mod in list(sys.modules.items()):
            if modname != "optocool" and not modname.startswith("optocool."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- queries ---------------------------------------------------------

    def calls(self, name):
        return sum(agg[0] for (_, _, n), agg in self.spans.items() if n == name)

    def inclusive_s(self, names):
        """Total time of spans named in ``names``, nested repeats counted once."""
        names = {names} if isinstance(names, str) else set(names)
        return sum(agg[1] for (_, p, n), agg in self.spans.items()
                   if n in names and p not in names)

    def self_s(self, layer, tag=None):
        """Self time of one layer, of every tag or of one."""
        return sum(agg[2] for (t, _, n), agg in self.spans.items()
                   if n.startswith(layer + ".") and (tag is None or t == tag))

    def error_count(self, layer, exc_name):
        return self.errors.get((layer, exc_name), 0)

    def table(self, limit=25):
        """Span names by self time, largest first: (name, calls, total s, self s)."""
        by_name = {}
        for (_, _, n), (calls, total, own) in self.spans.items():
            row = by_name.setdefault(n, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        rows = sorted(by_name.items(), key=lambda kv: -kv[1][2])[:limit]
        return [(n, c, tot, own) for n, (c, tot, own) in rows]
