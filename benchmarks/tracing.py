"""Spans around the public functions of jsam's modules, recorded from outside.

`Tracer.install()` wraps each public function and rebinds every `jsam.*`
module-level name that is bound to it. Rebinding all names matters: for
example `solve_profiles` is imported into `payments` and `flsim`, and
`train` looks up `local_noisy_gradient` in `flsim`'s globals, so patching
only the defining module would miss the nested calls. Spans stay in memory
until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("costs", "mechanism", "payments", "oracle", "flsim", "config", "cli")
# The CLI's command handlers stay inside cli.main, so that its self time is
# the CLI's own argument handling, formatting and writing.
CLI_ENTRY = "main"


def candidate_count(n: int, grid_delta: float) -> int:
    """Size of the solver's (h, p1, ph) grid, computed here from its definition."""
    return 1 if n < 2 else 1 + (n - 1) * (int(1.0 / (n * grid_delta)) + 1)


def _solve_profiles_counts(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    rows, n = result.probabilities.shape
    return {"rows": rows, "candidate_evals": rows * candidate_count(n, cfg.grid_delta)}


# Work counts per layer, read from each call's arguments and result.
COUNTERS = {
    "mechanism.solve_profiles": _solve_profiles_counts,
    "mechanism.fixed_probability_solve":
        lambda args, kwargs, result: {"rows": result[1].shape[0]},
    "payments.expost_payments":
        lambda args, kwargs, result: {"clients": result[0].size},
    "payments.interim_allocation":
        lambda args, kwargs, result: {"profiles": result.grid.size * result.samples},
    "costs.virtual": lambda args, kwargs, result: {"elements": int(np.size(result))},
    "oracle.brute_force_solve":
        lambda args, kwargs, result: {"evaluations": result.evaluations},
}


def span_cost(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, measured on a function that does nothing."""
    def noop():
        return None

    traced = Tracer()._wrap("calibration", noop)
    start = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        traced()
    return max(perf_counter() - start - bare, 0.0) / calls


def _public_functions(module):
    for name, value in vars(module).items():
        if (inspect.isfunction(value) and not name.startswith("_")
                and value.__module__ == module.__name__):
            yield name, value


class Tracer:
    """Records one span per traced call: layer, start, end, parent span, op id."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.op_id = None
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    def _wrap(self, layer, original):
        count = COUNTERS.get(layer)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else None, self.op_id])
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[f"{layer}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of jsam's modules and `virtual` on its cost classes."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"jsam.{short}"]
            for name, fn in _public_functions(module):
                if short == "cli" and name != CLI_ENTRY:
                    continue
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for name, module in list(sys.modules.items()):
            if name != "jsam" and not name.startswith("jsam."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        costs = sys.modules["jsam.costs"]
        for _, cls in inspect.getmembers(costs, inspect.isclass):
            original = cls.__dict__.get("virtual")
            if cls.__module__ == costs.__name__ and inspect.isfunction(original):
                self._patch(cls, "virtual", self._wrap("costs.virtual", original))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layers(self) -> dict:
        """Per layer: calls, total time and self time (total minus traced children)."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[i]
            # nested calls of one layer would count twice in its total
            if parent is None or not self._inside(parent, layer):
                row["total_s"] += end - start
        return dict(out)

    def _inside(self, index, layer) -> bool:
        while index is not None:
            if self.spans[index][0] == layer:
                return True
            index = self.spans[index][3]
        return False

    def write_spans(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": layer,
                                     "start": start - origin, "end": end - origin,
                                     "parent": parent, "op": op}) + "\n")
