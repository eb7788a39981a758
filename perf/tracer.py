"""Layer spans for the traced benchmark child, recorded from outside.

The tracer wraps the attributes each caller resolves at call time --
class methods, and module attributes looked up through their module --
so no file under ``src/`` changes and an untraced child runs the
program exactly as users do.  Every wrapper opens a span on entry and
closes it on exit; a span's *self time* is its duration minus the time
covered by the spans it encloses, so the self times of all layers plus
the uncovered (``untraced``) time add up to the traced wall time.

Two kinds of layer:

* recorded layers keep every span (name, start, end, parent, run id)
  in memory; they fire a few times per job;
* hot layers fire per access or per miss (the sharer directory, the
  core-aware victim scan, replay-session resumes, the PCM backend).
  They keep per-run call counts and self times only, since one span
  per access would cost more memory than the run it describes.

Spans are written as JSON lines by :meth:`Tracer.write` after the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: marker set on every wrapper, so a child can prove it installed none.
MARKER = "__perf_layer__"


def _replay_count(args, kwargs, result) -> int:
    return result


def _filter_count(args, kwargs, result) -> int:
    start = args[4] if len(args) > 4 else kwargs["start"]
    stop = args[5] if len(args) > 5 else kwargs["stop"]
    return stop - start


def _trace_len(args, kwargs, result) -> int:
    return len(result)


def _traces_len(args, kwargs, result) -> int:
    return sum(len(trace) for trace in result)


def _served(args, kwargs, result) -> int:
    return result is not None


def _llc_ticks(args, kwargs, result) -> int:
    # A fresh system per run: its LLC's tick counts every access the
    # epoch driver replayed, wrap-around replays of finished cores too.
    return args[0].llc.tick


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module:attr`` or ``module:Class.attr``.

    ``work`` turns a call into a work count (accesses replayed, kernel
    dispatches served); ``kind`` is ``function``, ``static`` for a
    ``staticmethod``, or ``session`` for a method returning a resumable
    replay generator whose every resume is a span.
    """

    path: str
    work: Optional[Callable] = None
    kind: str = "function"


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]
    hot: bool = False


def _targets(*paths: str, **options) -> Tuple[Target, ...]:
    return tuple(Target(path, **options) for path in paths)


LAYERS: Tuple[Layer, ...] = (
    Layer("engine.key", _targets(
        "repro.engine.jobs:RunJob.key", "repro.engine.jobs:MixJob.key")),
    Layer("engine.store.get", _targets("repro.engine.store:ResultStore.get")),
    Layer("engine.decode", _targets(
        "repro.engine.jobs:RunJob.decode", "repro.engine.jobs:MixJob.decode",
        kind="static")),
    Layer("engine.execute", _targets(
        "repro.engine.jobs:RunJob.execute", "repro.engine.jobs:MixJob.execute")),
    Layer("engine.encode", _targets(
        "repro.engine.jobs:RunJob.encode", "repro.engine.jobs:MixJob.encode",
        kind="static")),
    Layer("engine.store.put", _targets("repro.engine.store:ResultStore.put")),
    Layer("engine.journal", _targets("repro.engine.journal:RunJournal.append")),
    Layer("experiments.run_mix", _targets(
        "repro.experiments.multicore_exp:run_mix")),
    # simulate() is bound under three names; each caller resolves one.
    Layer("sim.simulate", _targets(
        "repro.sim.spec:simulate", "repro.sim:simulate",
        "repro.experiments.multicore_exp:simulate")),
    Layer("trace.generate", (
        Target("repro.experiments.runner:workload_trace", _trace_len),
        Target("repro.trace.generator:generate_shared_mix", _traces_len),
    )),
    Layer("trace.decode", _targets(
        "repro.trace.decode:decode_trace",
        "repro.trace.decode:DecodedTrace.with_core_offset")),
    Layer("cache.construct", _targets(
        "repro.cache.cache:SetAssociativeCache.__init__")),
    Layer("cpu.runner", _targets(
        "repro.cpu.core:LLCRunner.run", "repro.cpu.core:HierarchyRunner.run")),
    Layer("hierarchy.run_trace", _targets(
        "repro.hierarchy.system:MemoryHierarchy.run_trace")),
    Layer("multicore.run", (
        Target("repro.multicore.shared:SharedLLCSystem.run", _llc_ticks),
    )),
    Layer("kernels.call", _targets(
        "repro.kernels.runner:KernelRuntime.try_run_trace",
        "repro.kernels.runner:KernelRuntime.try_lru_filter",
        "repro.kernels.runner:KernelRuntime.try_hierarchy_stages",
        "repro.kernels.runner:KernelRuntime.try_llc_residue_collect",
        "repro.kernels.runner:KernelRuntime.try_run_multicore",
        work=_served)),
    Layer("kernels.gather", _targets(
        "repro.kernels.soa:gather_lines", "repro.kernels.soa:gather_sampler")),
    Layer("kernels.scatter", _targets(
        "repro.kernels.soa:scatter_lines", "repro.kernels.soa:scatter_sampler")),
    Layer("core.epoch", _targets(
        "repro.core.rwp:RWPPolicy.on_epoch",
        "repro.core.rwp:CoreAwareRWPPolicy.on_epoch")),
    Layer("cache.replay", (
        Target("repro.cache.cache:SetAssociativeCache.run_trace", _replay_count),
        Target("repro.cache.cache:SetAssociativeCache.run_trace_session",
               kind="session"),
        Target("repro.cache.cache:SetAssociativeCache.run_lru_filter",
               _filter_count),
    ), hot=True),
    Layer("core.victim", _targets(
        "repro.core.rwp:CoreAwareRWPPolicy.victim"), hot=True),
    Layer("multicore.directory", _targets(
        "repro.multicore.shared:SharerDirectory.observe",
        "repro.multicore.shared:SharerDirectory.on_evict"), hot=True),
    Layer("mem.backend", _targets(
        "repro.mem.pcm:PCMBackend.read", "repro.mem.pcm:PCMBackend.write"),
        hot=True),
)

LAYER_NAMES = tuple(layer.name for layer in LAYERS)

#: the native kernel accepts an epoch hook only when it is one of the
#: functions on this tuple (looked up at call time); the wrapped hooks
#: are added while the tracer is installed so the traced run keeps the
#: same kernel dispatch as an untraced one.
_EPOCH_HOOK_LIST = ("repro.kernels.runner", "_SAFE_EPOCH_HOOKS")


def _resolve(path: str):
    """``(owner, attribute name)`` for a target path."""
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, name


def _raw(owner, name: str):
    """The attribute as stored: descriptors stay unbound on classes."""
    if isinstance(owner, type):
        return owner.__dict__.get(name)
    return getattr(owner, name, None)


class _Session:
    """A replay generator whose every resume is a span.

    Callers use only ``send`` and ``close``
    (``SharedLLCSystem.run``).
    """

    __slots__ = ("send", "close")

    def __init__(self, generator, wrap) -> None:
        self.send = wrap(generator.send)
        self.close = wrap(generator.close)


def _session_count(args, kwargs, result) -> int:
    # send((start, stop, limit, reset)) yields (ran, cycles); send(None)
    # syncs tallies and replays nothing.
    return result[0] if args and args[0] is not None else 0


class Tracer:
    """Installs the layer wrappers and accounts spans while they run."""

    def __init__(self) -> None:
        self.run = "proc"
        #: per layer: [calls, self seconds, work]
        self.totals: Dict[str, List[float]] = {
            name: [0, 0.0, 0] for name in LAYER_NAMES
        }
        self.totals["proc.import"] = [0, 0.0, 0]
        #: recorded spans: (id, parent id, name, start, end, run id)
        self.spans: List[tuple] = []
        #: hot layers, per (run id, layer): [calls, self seconds, work]
        self.hot: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0]
        )
        #: time covered by spans that opened with an empty stack
        self.covered = 0.0
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._saved: List[tuple] = []
        self._labels: Dict[str, str] = {}

    # -- accounting --------------------------------------------------------
    def add_root(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (the import phase)."""
        self.spans.append((len(self.spans), None, name, start, end, self.run))
        acc = self.totals[name]
        acc[0] += 1
        acc[1] += end - start
        self.covered += end - start

    def _wrap(self, layer: Layer, fn, work=None):
        stack = self._stack
        spans = self.spans
        acc = self.totals[layer.name]
        name = layer.name
        hot = layer.hot
        is_key = name == "engine.key"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            if hot:
                span_id = parent
            else:
                tracer._set_run(name, args)
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled on exit
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.covered += duration
                acc[0] += 1
                acc[1] += own
                if hot:
                    per_run = tracer.hot[(tracer.run, name)]
                    per_run[0] += 1
                    per_run[1] += own
                else:
                    spans[span_id] = (
                        span_id, parent, name, frame[0], end, tracer.run
                    )
            if work is not None:
                count = work(args, kwargs, result)
                acc[2] += count
                if hot:
                    tracer.hot[(tracer.run, name)][2] += count
            if is_key:
                tracer._labels[result] = tracer.run
            return result

        setattr(wrapper, MARKER, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set_run(self, name: str, args) -> None:
        """Spans of one job share its label as their run id."""
        if name in ("engine.key", "engine.execute"):
            self.run = args[0].label
        elif name in ("engine.store.get", "engine.store.put"):
            self.run = self._labels.get(args[1], self.run)
        elif name == "engine.journal":
            self.run = args[2]

    # -- install / uninstall -----------------------------------------------
    def install(self) -> None:
        """Wrap every target; unknown targets are listed in ``missing``."""
        wrapped: Dict[int, object] = {}
        for layer in LAYERS:
            for target in layer.targets:
                try:
                    owner, name = _resolve(target.path)
                except (ImportError, AttributeError):
                    self.missing.append(target.path)
                    continue
                raw = _raw(owner, name)
                if raw is None:
                    self.missing.append(target.path)
                    continue
                self._saved.append((owner, name, raw))
                setattr(owner, name, self._wrapped(layer, target, raw, wrapped))
        module_name, attr = _EPOCH_HOOK_LIST
        module = importlib.import_module(module_name)
        hooks = getattr(module, attr, None)
        if hooks is not None:
            self._saved.append((module, attr, hooks))
            extra = tuple(wrapped[id(hook)] for hook in hooks if id(hook) in wrapped)
            setattr(module, attr, tuple(hooks) + extra)

    def _wrapped(self, layer: Layer, target: Target, raw, cache: Dict[int, object]):
        """The replacement attribute; one wrapper per original function."""
        if target.kind == "static":
            fn = raw.__func__
            return staticmethod(self._shared(layer, fn, target.work, cache))
        if target.kind == "session":
            start = self._wrap(layer, raw)

            def resume(fn):
                return self._wrap(layer, fn, _session_count)

            def session(*args, **kwargs):
                return _Session(start(*args, **kwargs), resume)

            setattr(session, MARKER, layer.name)
            return session
        return self._shared(layer, raw, target.work, cache)

    def _shared(self, layer: Layer, fn, work, cache: Dict[int, object]):
        if id(fn) not in cache:
            cache[id(fn)] = self._wrap(layer, fn, work)
        return cache[id(fn)]

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    # -- results -------------------------------------------------------------
    def write(self, path, phase: str) -> None:
        """Append this child's spans and hot-layer aggregates as JSONL."""
        with open(path, "a") as handle:
            for span_id, parent, name, start, end, run in self.spans:
                handle.write(json.dumps({
                    "phase": phase, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end, "run": run,
                }) + "\n")
            for (run, name), (calls, own, work) in sorted(self.hot.items()):
                handle.write(json.dumps({
                    "phase": phase, "aggregate": name, "run": run,
                    "calls": calls, "self_s": own, "work": work,
                }) + "\n")


def installed_count() -> int:
    """How many layer targets currently carry a tracer wrapper."""
    count = 0
    for layer in LAYERS:
        for target in layer.targets:
            try:
                owner, name = _resolve(target.path)
            except (ImportError, AttributeError):
                continue
            raw = _raw(owner, name)
            fn = getattr(raw, "__func__", raw)
            if hasattr(fn, MARKER):
                count += 1
    return count
