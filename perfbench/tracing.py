"""Spans around calls into bsdecomp's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules, at
every ``bsdecomp`` module attribute that binds it, with a wrapper that records
a span (name, start, end, parent, job). Calls between layers go through those
module attributes, so they nest as parent and child spans. Private helpers are
not wrapped: their time is self time of the public function that called them.
Generator functions are timed as iterators, one span per resumption.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("monomial", "linalg", "tables", "decompose", "polynomials", "stabilize", "cli")
MODULES = ("bsdecomp",) + tuple(f"bsdecomp.{m}" for m in LAYERS + ("errors",))
HARNESS = "harness.job"

# what a call's result adds to a counter, for the counters spans cannot give
RESULT_COUNTERS = {"monomial.lcm_closure": ("monomial.lattice_points", len)}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self.stack = [-1]
        self.errors = {layer: 0 for layer in LAYERS}
        self.counters: dict[str, int] = {}

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bsdecomp.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", layer, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self.stack[-1], None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self.stack.pop()
        span[2] = perf_counter()

    def _wrap(self, name: str, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return self._iterate(name, layer, fn(*args, **kwargs))
            return traced_generator

        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._close(span)
            if counter is not None:
                key, measure = counter
                self.counters[key] = self.counters.get(key, 0) + measure(result)
            return result
        return traced

    def _iterate(self, name: str, layer: str, iterator):
        yields = f"{name}.yields"
        try:
            while True:
                span = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                except Exception:
                    self.errors[layer] += 1
                    raise
                finally:
                    self._close(span)
                self.counters[yields] = self.counters.get(yields, 0) + 1
                yield item
        finally:
            iterator.close()

    def job_span(self, job: str, start: float, end: float, first_span: int) -> None:
        """Record the harness's own span for a job timed by the caller, and
        parent the job's top-level spans to it."""
        index = len(self.spans)
        self.spans.append([HARNESS, start, end, -1, job])
        for span in self.spans[first_span:index]:
            if span[3] == -1:
                span[3] = index
            span[4] = job

    def take_counts(self) -> tuple[dict[str, int], dict[str, int]]:
        """Errors and counters since the last call, then reset them."""
        out = (self.errors, self.counters)
        self.errors = {layer: 0 for layer in LAYERS}
        self.counters = {}
        return out


def sample_owners(spans, lo: int, hi: int, samples) -> dict[int, float]:
    """Speed-sample time inside each span but outside its children.

    A sample runs from a signal handler while some span is open; it belongs
    to the innermost span whose interval holds it, found by sweeping span
    opens and closes in time order.
    """
    events = []
    for index in range(lo, hi):
        events.append((spans[index][1], 0, index))
        events.append((spans[index][2], 2, index))
    events.extend((start, 1, duration) for start, duration in samples)
    events.sort()
    owned: dict[int, float] = {}
    open_spans: list[int] = []
    for _, kind, value in events:
        if kind == 0:
            open_spans.append(value)
        elif kind == 2:
            open_spans.remove(value)
        elif open_spans:
            owned[open_spans[-1]] = owned.get(open_spans[-1], 0.0) + value
    return owned


def summarize(spans, lo: int, hi: int, errors, counters, samples) -> dict[str, float]:
    """Per-function and per-layer calls, inclusive time and self time.

    Self time is a span's duration minus that of its direct children and of
    the speed samples it holds, so the self times of all spans plus the
    samples' time add up to the harness job spans' durations. Inclusive time
    counts only the outermost span of a name, so recursion is not counted
    twice.
    """
    duration = {i: spans[i][2] - spans[i][1] for i in range(lo, hi)}
    child_time = dict.fromkeys(duration, 0.0)
    for index in duration:
        parent = spans[index][3]
        if parent >= 0:
            child_time[parent] += duration[index]
    owned = sample_owners(spans, lo, hi, samples)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = errors.get(layer, 0)
    out["harness.calibration_s"] = sum(owned.values())
    out["harness.self_s"] = out["harness.calibration_s"]
    for index in duration:
        name, _, _, parent, _ = spans[index]
        own = duration[index] - child_time[index] - owned.get(index, 0.0)
        layer = name.split(".")[0]
        add(f"{layer}.self_s", own)
        if name == HARNESS:
            add("trace.run_s", duration[index])
            continue
        add(f"{name}_calls", 1)
        add(f"{name}_self_s", own)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            add(f"{name}_s", duration[index])
        if name == "stabilize.symbolic_chain_decompose" and parent >= 0 \
                and spans[parent][0] == "stabilize.positive_family_chain":
            add("stabilize.chains_expanded", 1)
    for key, value in counters.items():
        add(key, value)
    out["trace.spans"] = hi - lo
    return out


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, job in spans:
            handle.write(json.dumps(
                {"name": name, "start": start, "end": end, "parent": parent, "job": job}
            ) + "\n")
