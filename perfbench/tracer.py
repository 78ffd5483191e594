"""Spans around the calls into the onramp modules, recorded from outside.

``Tracer.install`` replaces every public function of the package (its
``__all__``, plus ``OnRampConfig.from_dict``) by a timing wrapper in every
module namespace that binds it, because ``robustness``, ``sweeps`` and
``cli`` import names with ``from .x import y``.  Spans (name, start, end,
parent) are kept in flat arrays and written out at the end of the run.  A
span's self time is its duration minus what its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import onramp
import onramp.cli

MODULES = (
    onramp,
    onramp.model,
    onramp.analysis,
    onramp.equilibrium,
    onramp.robustness,
    onramp.sweeps,
    onramp.cli,
)


def _arg(args, kwargs, position, name, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.rsplit(".", 1)[-1], None)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(name, args, kwargs, result)
            return result

        return traced

    # counters, named after the function they follow; they run after the
    # span has closed, so their cost is not charged to that function

    def _count_sweep_alpha(self, name, args, kwargs, result):
        self.counts["sweeps.rows"] += len(result)

    _count_sweep_beta_e = _count_sweep_alpha

    def _count_write_alpha_sweep(self, name, args, kwargs, result):
        # every writer gets a fresh stream, so its position is the bytes written
        self.counts["sweeps.bytes_written"] += _arg(args, kwargs, 1, "stream").tell()

    _count_write_beta_e_sweep = _count_write_alpha_sweep

    def install(self) -> None:
        """Bind the wrappers in every module namespace; ``uninstall`` undoes it."""
        wrapped = {}
        for attr in onramp.__all__:
            fn = getattr(onramp, attr)
            if inspect.isfunction(fn):
                name = fn.__module__.removeprefix("onramp.") + "." + fn.__qualname__
                wrapped[id(fn)] = self.wrap(name, fn)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        config_cls = onramp.model.OnRampConfig
        descriptor = config_cls.__dict__["from_dict"]
        self._restore.append((config_cls, "from_dict", descriptor))
        config_cls.from_dict = classmethod(
            self.wrap("model.OnRampConfig.from_dict", descriptor.__func__)
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, summed self seconds) per span name."""
        covered = [0.0] * len(self.start)
        for index in range(len(self.start)):
            parent = self.parent[index]
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        calls = [0] * len(self.names)
        totals = [0.0] * len(self.names)
        for index in range(len(self.start)):
            ident = self.name_id[index]
            calls[ident] += 1
            totals[ident] += self.end[index] - self.start[index] - covered[index]
        return {name: (calls[i], totals[i]) for i, name in enumerate(self.names)}

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same inputs."""
        counts = dict(self.counts)
        for name, (calls, _) in self.self_times().items():
            counts[name + ".calls"] = calls
        return counts

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op self time and counts per layer.

        ``cli.main.<kind>`` spans are divided by their own calls, since each
        op of that kind makes exactly one.
        """
        metrics = {}
        times = self.self_times()
        for name, (calls, total) in times.items():
            per = calls if name.startswith("cli.main.") else ops
            metrics[name + ".self_s"] = total / per
            metrics[name + ".calls"] = calls / ops
        for key, value in self.counts.items():
            metrics[key] = value / ops
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_id.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                },
                stream,
            )
