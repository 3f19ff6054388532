"""Spans around the benchmark's own calls into dnls_well's public functions.

Only calls made from the benchmark's files are traced; nothing inside the
package is instrumented.  With tracing off the module proxies hand out the
package's functions unwrapped, so an untraced pass pays nothing.
"""
from __future__ import annotations

import subprocess
import time
from collections import defaultdict
from types import SimpleNamespace

MODULES = (
    "field",
    "solitons",
    "closedform",
    "functionals",
    "gauge",
    "classifier",
    "evolve",
    "oracle",
    "cli",
)


class Tracer:
    """In-memory span recorder.

    A span is (id, parent_id, op_id, name, start, end, tag): ``name`` is
    ``module.function`` (or ``op`` for the span around a whole operation),
    ``op_id`` the operation that caused it and ``tag`` an optional label:
    the op's label on ``op`` spans, the subcommand on ``cli.main`` spans.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.op_id = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, tag=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id so children sort after it
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op_id, name, start, end, tag)

    def to_json(self) -> list[dict]:
        keys = ("id", "parent", "op", "name", "start", "end", "tag")
        return [dict(zip(keys, s)) for s in self.spans]


class _TracedModule:
    def __init__(self, tracer: Tracer, module, short: str):
        self._tracer = tracer
        self._module = module
        self._short = short

    def __getattr__(self, attr):
        obj = getattr(self._module, attr)
        if not callable(obj) or isinstance(obj, type):
            return obj
        name = f"{self._short}.{attr}"
        tracer = self._tracer

        def traced(*args, **kwargs):
            return tracer.call(name, obj, *args, **kwargs)

        setattr(self, attr, traced)  # later lookups skip __getattr__
        return traced


def _run_process(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=150)


def package(tracer: Tracer) -> SimpleNamespace:
    """The nine dnls_well modules, wrapped in spans when the tracer is on.

    ``cli_process(cmd, tag=...)`` runs one command-line process; its span
    is ``cli.main``, the entry point the process runs.
    """
    import importlib

    mods = {m: importlib.import_module(f"dnls_well.{m}") for m in MODULES}
    if tracer.enabled:
        mods = {m: _TracedModule(tracer, mod, m) for m, mod in mods.items()}

    def cli_process(cmd, tag=None):
        return tracer.call("cli.main", _run_process, cmd, tag=tag)

    return SimpleNamespace(**mods, cli_process=cli_process)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[5] - s[4]
    return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}


def module_totals(spans, scale: dict) -> dict[str, dict]:
    """Per module: number of calls and summed self time in seconds, each
    span's time multiplied by ``scale[op_id]`` (the reference-speed factor)."""
    own = self_times(spans)
    out = {m: {"calls": 0, "self_s": 0.0} for m in MODULES}
    for s in spans:
        mod = s[3].split(".", 1)[0]
        if mod in out:
            out[mod]["calls"] += 1
            out[mod]["self_s"] += own[s[0]] * scale[s[2]]
    return out
