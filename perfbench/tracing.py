"""Per-layer tracing of eag, installed from outside the package.

``Tracer.install`` wraps the public functions of each layer module and puts
the wrapper under every name that refers to the function in any loaded
``eag`` module, including the values of module-level dicts such as
``tables.TABLES``.  ``Tracer.restore`` puts the originals back.

A wrapper runs in one of three modes:

* span: records (span id, parent span id, call id, name, start, end) in
  memory, and adds its duration minus its children's to its self time;
* aggregate: the same timing without a span record, for functions called
  too often to record each call (``fp.rref``, ``fp.vector_span_rank``);
* count: counts calls only; the time stays in the caller's self time
  (``grouptable.braid_move``, the prime checks run by every ``FpVector`` and
  ``FpMatrix`` constructor, and the ``GaussianRational`` arithmetic).

The layers' self times and the driver's own time (time inside the traced
loop not covered by any top-level span) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter

LAYERS = ("fp", "orbits", "surfaces", "genvec", "maximality", "grouptable",
          "hyperfermat", "cx", "tables", "cli")

AGGREGATE = frozenset({"fp.rref", "fp.vector_span_rank"})
COUNT_ONLY = frozenset({"grouptable.braid_move", "fp.check_prime", "fp.is_prime"})
GAUSSIAN_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
CLI_SUBCOMMANDS = ("unique", "maximal", "orbits", "tables", "fermat")

SPAN_FIELDS = ("id", "parent", "call", "name", "start", "end")


def _count_matrices(counts, args, result):
    counts["orbits.batch_rref.matrices"] += len(args[0])


def _count_elements(counts, args, result):
    counts["fp.group_closure.elements"] += len(result)


def _count_states(counts, args, result):
    counts["grouptable.states"] += sum(len(orbit) for orbit in result)


def _count_search(counts, args, result):
    counts[f"maximality.search.{result.status}"] += 1


HOOKS = {
    "orbits.batch_rref": _count_matrices,
    "fp.group_closure": _count_elements,
    "grouptable.generating_vector_orbits": _count_states,
    "maximality.search_extension_witness": _count_search,
}


def _is_public_function(obj, module_name: str) -> bool:
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module_name)


class Tracer:
    """Collects spans, call counts and self times while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.call_id = -1
        # the driver's frame: [time covered by top-level spans, span id 0]
        self.root = [0.0, 0]
        self._stack = [self.root]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _timed(self, fn, idx: int, record: bool, hook):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        ids, counts, clock, tracer = self._ids, self.counts, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if record else parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[0] += end - start
                calls[idx] += 1
                self_s[idx] += end - start - frame[0]
                if record:
                    spans.append((frame[1], parent[1], tracer.call_id, idx, start, end))
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _counted(self, fn, idx: int):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"eag.{layer}") for layer in LAYERS}
        # every place a function can be reached by name: module globals and
        # the values of module-level dicts
        slots: dict[int, list[tuple[dict, str]]] = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "eag" or mod_name.startswith("eag.")):
                continue
            for key, value in vars(mod).items():
                slots.setdefault(id(value), []).append((vars(mod), key))
                if isinstance(value, dict):
                    for k, v in value.items():
                        slots.setdefault(id(v), []).append((value, k))
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not _is_public_function(fn, mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                idx = self._register(name)
                if name in COUNT_ONLY:
                    wrapper = self._counted(fn, idx)
                else:
                    wrapper = self._timed(fn, idx, name not in AGGREGATE, HOOKS.get(name))
                for container, key in slots.get(id(fn), ()):
                    if container[key] is fn:
                        self._patches.append((container, key, fn))
                        container[key] = wrapper
        gaussian = modules["cx"].GaussianRational
        for op in GAUSSIAN_OPS:
            fn = vars(gaussian)[op]
            self._patches.append((gaussian, op, fn))
            setattr(gaussian, op, self._counted(fn, self._register(f"cx.GaussianRational.{op}")))

    def restore(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced pass of ``wall_s`` seconds."""
        calls = dict(zip(self.names, self.calls))
        self_s = dict(zip(self.names, self.self_s))
        layer_s = Counter()
        for name, s in self_s.items():
            layer_s[name.split(".", 1)[0]] += s
        c = self.counts
        search_calls = calls["maximality.search_extension_witness"]
        m = {
            "orbits.batch_rref.s": self_s["orbits.batch_rref"],
            "orbits.batch_rref.calls": calls["orbits.batch_rref"],
            "orbits.batch_rref.matrices": c["orbits.batch_rref.matrices"],
            "orbits.count_pure_orbits_bfs.s": self_s["orbits.count_pure_orbits_bfs"],
            "orbits.count_kernel_orbits_bfs.s": self_s["orbits.count_kernel_orbits_bfs"],
            "orbits.count_kernel_orbits_canonical.s":
                self_s["orbits.count_kernel_orbits_canonical"],
            "orbits.count_pure_orbits_canonical.s": self_s["orbits.count_pure_orbits_canonical"],
            "fp.rref.calls": calls["fp.rref"],
            "fp.rref.s": self_s["fp.rref"],
            "fp.group_closure.s": self_s["fp.group_closure"],
            "fp.group_closure.elements": c["fp.group_closure.elements"],
            "fp.vector_span_rank.calls": calls["fp.vector_span_rank"],
            "maximality.search_extension_witness.s": self_s["maximality.search_extension_witness"],
            "maximality.search_extension_witness.calls": search_calls,
            "maximality.search.found": c["maximality.search.found"],
            "maximality.search.none": c["maximality.search.none"],
            "maximality.search.capped": c["maximality.search.capped"],
            # 0 when the workload runs no search
            "maximality.search.conclusive_ratio":
                (c["maximality.search.found"] + c["maximality.search.none"]) / max(search_calls, 1),
            "surfaces.subgroup_signature.calls": calls["surfaces.subgroup_signature"],
            "surfaces.validate_vector_for.calls": calls["surfaces.validate_vector_for"],
            "genvec.count_classes.s": self_s["genvec.count_classes"],
            "grouptable.count_orbits.s": self_s["grouptable.count_orbits"],
            "grouptable.automorphisms.s": self_s["grouptable.automorphisms"],
            "grouptable.states": c["grouptable.states"],
            "grouptable.braid_move.calls": calls["grouptable.braid_move"],
            "hyperfermat.branch_points.s": self_s["hyperfermat.branch_points"],
            "hyperfermat.residue_identity_check.s": self_s["hyperfermat.residue_identity_check"],
            "hyperfermat.sample_and_check_smoothness.s":
                self_s["hyperfermat.sample_and_check_smoothness"],
            "hyperfermat.is_generic_line.s": self_s["hyperfermat.is_generic_line"],
            "cx.gaussian_ops": sum(calls[f"cx.GaussianRational.{op}"] for op in GAUSSIAN_OPS),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_s[layer]
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.calls.{sub}"] = calls[f"cli.cmd_{sub}"]
        m["driver.self_s"] = wall_s - self.root[0]
        m["trace.wall_s"] = wall_s
        return m

    def span_table(self) -> dict:
        """The recorded spans, for writing out when the pass ends."""
        return {"fields": list(SPAN_FIELDS), "names": self.names,
                "spans": [list(s) for s in self.spans]}
