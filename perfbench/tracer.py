"""Span tracing for the benchmark, installed from outside the package.

The tracer wraps the layer entry points listed in :data:`TARGETS` while
it is installed, records one span per call (name, start, end, parent
span, request id) and keeps per-name call counts and self time.  Spans
stay in memory and are written as JSONL once the run ends.

A function is replaced in every loaded ``repro`` module that holds it,
not only where it is defined: ``repro.baselines.reference_agent`` binds
``lower_scheduled_op`` and ``nest_time`` at import, so patching only the
defining module would miss the search agents' calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

#: (span name, public module, attribute path).  Two targets may share a
#: span name; their calls and self time are summed.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("rl.act", "repro.rl", "ActorCritic.act"),
    ("rl.evaluate", "repro.rl", "ActorCritic.evaluate"),
    ("rl.collect", "repro.rl", "PPOTrainer.collect"),
    ("rl.update", "repro.rl", "PPOTrainer.update"),
    ("nn.backward", "repro.nn", "Tensor.backward"),
    ("nn.adam", "repro.nn", "Adam.step"),
    ("env.reset", "repro.env", "MlirRlEnv.reset"),
    ("env.step", "repro.env", "MlirRlEnv.step"),
    ("transforms.lower", "repro.transforms", "lower_scheduled_op"),
    ("transforms.clone", "repro.transforms", "ScheduledFunction.clone"),
    (
        "transforms.schedule_key",
        "repro.transforms",
        "ScheduledFunction.schedule_key",
    ),
    ("machine.nest_time", "repro.machine", "nest_time"),
    ("machine.run", "repro.machine", "CachingExecutor.run_scheduled"),
    ("machine.run", "repro.machine", "CachingExecutor.run_baseline"),
    ("search.optimize", "repro.baselines", "BeamSearchAgent.optimize"),
    ("datasets.generate", "repro.datasets", "generate_program"),
)


class Tracer:
    """In-memory span recorder with per-name calls and self seconds."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or None, request id)
        self.spans: list[tuple] = []
        self.calls: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.request_id: int | str | None = None
        #: while False, wrapped calls run untraced (correctness checks)
        self.active = True
        # open spans: [span index, start, seconds covered by children]
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        if not self.active:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else None
        frame = [index, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            self.spans[index] = (
                name, frame[1], end, parent, self.request_id
            )
            self.calls[name] += 1
            self.self_seconds[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    @contextmanager
    def paused(self):
        """Run the ``with`` body without recording spans."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def wrap(self, name: str, function: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the ``with`` body."""
        undo: list[tuple[object, str, object]] = []
        try:
            for name, module_name, path in TARGETS:
                undo.extend(self._patch(name, module_name, path))
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    def _patch(self, name: str, module_name: str, path: str) -> list:
        owner: object = sys.modules[module_name]
        *parents, attribute = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if parents:
            # A method: replace it on the class that defines it.
            original = vars(owner)[attribute]
            setattr(owner, attribute, self.wrap(name, original))
            return [(owner, attribute, original)]
        # A module-level function: replace every binding of it.
        original = getattr(owner, attribute)
        wrapped = self.wrap(name, original)
        undo = []
        for module_key, module in list(sys.modules.items()):
            if module_key.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))
        return undo

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
