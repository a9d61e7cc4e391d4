"""Span tracer for the traced run, installed from outside the package.

It replaces the module attributes (and public methods) of each layer's
public functions with wrappers.  Modules call each other as `linalg.rref`,
`polyhedra.intersect_halfspaces` and so on, so the wrappers also see calls
between layers.  Each wrapper records a span: function, parent span, start,
end, and whether it raised.  Spans stay in memory (flat arrays) until the
run ends.  The scalar layer gets counters only: one span per ExtScalar
operation would be millions per pass.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("linalg", "presymlin", "lattice", "polyhedra", "models", "morse",
          "sampler", "reporting", "cli")
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "scale")
RAISED, NESTED = 1, 2


class Tracer:
    """Install with `install()`, run the workload, then `uninstall()`."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.fid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack = [-1]
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------------

    def _new_fid(self, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(name.split(".", 1)[0])
        self._active.append(0)
        return len(self.names) - 1

    def _span(self, fid: int, fn, after=None):
        fid_a, par_a, start_a, end_a, flag_a = (
            self.fid, self.parent, self.start, self.end, self.flags)
        stack, active, clock = self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fid_a)
            fid_a.append(fid)
            par_a.append(stack[-1])
            flag_a.append(NESTED if active[fid] else 0)
            end_a.append(0.0)
            active[fid] += 1
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flag_a[idx] |= RAISED
                raise
            finally:
                end_a[idx] = clock()
                stack.pop()
                active[fid] -= 1
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- per-function hooks for the count metrics -------------------------------------

    def _after_dd(self, args, kwargs, result):
        _, dim, rows = args
        lines, rays = result
        self.maxima["polyhedra.max_dim"] = max(self.maxima["polyhedra.max_dim"], dim)
        self.maxima["polyhedra.max_constraints"] = max(
            self.maxima["polyhedra.max_constraints"], len(rows))
        self.counts["polyhedra.dd_generators_out"] += len(lines) + len(rays)
        return result

    def _after_emit(self, args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.counts["reporting.bytes_out"] += Path(path).stat().st_size
        return result

    def _after_distance(self, fid):
        def after(args, kwargs, result):
            return self._span(fid, result)
        return after

    # -- install / uninstall -----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every reference inside the package at the wrapper, so names
        imported with `from .x import f` are traced too."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "momentlab" or mod_name.startswith("momentlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        from momentlab import scalars

        for op in SCALAR_OPS:
            self._set(scalars.ExtScalar, op,
                      self._counter("scalars.ops", scalars.ExtScalar.__dict__[op]))
        self._set(scalars.ExtScalar, "sign",
                  self._counter("scalars.sign_calls", scalars.ExtScalar.__dict__["sign"]))
        self._set(scalars, "_divide", self._counter("scalars.irrational_divisions", scalars._divide))

        hooks = {
            "polyhedra.cone_double_description": self._after_dd,
            "reporting.emit_report": self._after_emit,
            "reporting.emit_csv": self._after_emit,
            "reporting.emit_svg": self._after_emit,
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"momentlab.{layer}")
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    full = f"{layer}.{name}"
                    fid = self._new_fid(full)
                    after = hooks.get(full)
                    if full == "sampler.distance_to_image":
                        after = self._after_distance(fid)
                    self._replace(obj, self._span(fid, obj, after))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_methods(layer, obj)

    def _install_methods(self, layer: str, cls) -> None:
        for name, attr in sorted(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._span(
                    self._new_fid(f"{layer}.{cls.__name__}.{name}"), attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._span(self._new_fid(f"{layer}.{cls.__name__}.{name}"), attr)
            else:
                continue
            self._set(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, inclusive seconds (outermost spans only) and
        self seconds, plus per-layer self seconds and escaped errors."""
        n = len(self.fid)
        names, layer_of = self.names, self.layer_of
        fid, parent, start, end, flags = self.fid, self.parent, self.start, self.end, self.flags
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls, incl = Counter(), Counter()
        layer_self, layer_errors = Counter(), Counter()
        for i in range(n):
            name = names[fid[i]]
            layer = layer_of[fid[i]]
            dur = end[i] - start[i]
            calls[name] += 1
            if not flags[i] & NESTED:
                incl[name] += dur
            layer_self[layer] += dur - covered[i]
            p = parent[i]
            # an error counts once, where it leaves the layer
            if flags[i] & RAISED and (p < 0 or layer_of[fid[p]] != layer):
                layer_errors[layer] += 1
        return {"calls": calls, "incl": incl, "layer_self": layer_self,
                "layer_errors": layer_errors, "counts": self.counts,
                "maxima": self.maxima, "spans": n}

    def write_spans(self, path: Path) -> None:
        """Spans as JSON lines: a name table, then [fid, parent, start, end, flags]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.fid)):
                fh.write(f"[{self.fid[i]},{self.parent[i]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.flags[i]}]\n")


def layer_metrics(s: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, from a tracer summary."""
    calls, incl, counts, maxima = s["calls"], s["incl"], s["counts"], s["maxima"]
    self_s, errors = s["layer_self"], s["layer_errors"]
    out = {
        "scalars.ops": (counts["scalars.ops"], "count"),
        "scalars.irrational_divisions": (counts["scalars.irrational_divisions"], "count"),
        "scalars.sign_calls": (counts["scalars.sign_calls"], "count"),
        "linalg.rref_calls": (calls["linalg.rref"], "count"),
        "linalg.rref_s": (incl["linalg.rref"], "s"),
        "linalg.dot_calls": (calls["linalg.dot"], "count"),
        "presymlin.sigma_orthogonal_s": (incl["presymlin.sigma_orthogonal"], "s"),
        "presymlin.natural_quotient_s": (incl["presymlin.natural_quotient"], "s"),
        "presymlin.restrict_s": (incl["presymlin.PresympForm.restrict"], "s"),
        "presymlin.pairing_calls": (calls["presymlin.PresympForm.pairing"], "count"),
        "lattice.calls": (sum(v for k, v in calls.items() if k.startswith("lattice.")), "count"),
        "polyhedra.dd_calls": (calls["polyhedra.cone_double_description"], "count"),
        "polyhedra.dd_s": (incl["polyhedra.cone_double_description"], "s"),
        "polyhedra.dd_generators_out": (counts["polyhedra.dd_generators_out"], "count"),
        "polyhedra.intersect_calls": (calls["polyhedra.intersect_halfspaces"], "count"),
        "polyhedra.project_s": (incl["polyhedra.project"], "s"),
        "polyhedra.max_dim": (maxima["polyhedra.max_dim"], "count"),
        "polyhedra.max_constraints": (maxima["polyhedra.max_constraints"], "count"),
        "models.cleanness_s": (incl["models.cleanness_at"], "s"),
        "models.slices_at_s": (incl["models.slices_at"], "s"),
        "models.moment_image_s": (incl["models.moment_image"], "s"),
        "morse.full_critical_set_s": (incl["morse.full_critical_set"], "s"),
        "sampler.sample_image_s": (incl["sampler.sample_image"], "s"),
        "sampler.deformation_scan_s": (incl["sampler.deformation_scan"], "s"),
        "sampler.distance_s": (incl["sampler.distance_to_image"], "s"),
        "reporting.emit_s": (sum(incl[f"reporting.{f}"] for f in
                                 ("emit_report", "emit_csv", "emit_svg")), "s"),
        "reporting.bytes_out": (counts["reporting.bytes_out"], "count"),
        "cli.load_scenario_s": (incl["cli.load_scenario"], "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.errors"] = (errors[layer], "count")
    return out
