"""Layer tracer for the traced benchmark run.

Wraps the entry points of every ``repro.*`` layer from outside the package:
the public methods of the classes each module defines, its public module
functions, and every callback one layer hands to another — a callable
argument of a parameter annotated ``Callable`` (``Simulator.schedule*``,
``WirelessMedium.attach``, ``on_receive``, ...) is wrapped on the way in and
charged to the layer whose module defined it.  Each wrapper records a call
count, the call's inclusive time and the layer's *self* time: the wrapper
pauses the caller's clock while the callee runs, so a layer's self time is
its span time minus the nested spans of the other layers.  Time spent
outside every span (the benchmark's own loop) is ``unattributed``, and the
self times plus ``unattributed`` add up to the traced wall time.

Nothing is installed until :meth:`LayerTracer.begin`; :meth:`LayerTracer.end`
restores the original attributes, so untraced passes run the unmodified
program.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"

#: Self-time buckets, in report order.  ``network`` is split by model so a
#: medium change and a MAC change show separately.  ``repro.cooperation`` has
#: no bucket: no workload reaches it, and a time that is always zero says
#: nothing; were it reached, its time would count to its caller.
LAYERS = (
    UNATTRIBUTED,
    "sim",
    "network.medium",
    "network.mac",
    "network.tdma",
    "network.other",
    "middleware",
    "sensors",
    "core",
    "vehicles",
    "scenario",
    "evaluation",
    "experiments",
    "distributed",
    "cache",
    "observability",
    "resilience",
    "vectorized",
)
_LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}

_NETWORK_MODULES = {
    "medium": "network.medium",
    "mac_csma": "network.mac",
    "r2t_mac": "network.mac",
    "tdma": "network.tdma",
}

#: Private methods that are layer entry points all the same: a LoS switch,
#: and the coordinator's worker join.
_PRIVATE_ENTRIES = {
    ("SafetyManager", "_enact"),
    ("SpoolBackend", "_join_workers"),
}

#: Classes whose instances are kept for the pass so their own counters
#: (``events_processed``, ``MediumStats``, ``MacStats``) can be read after it.
REGISTERED = ("Simulator", "WirelessMedium", "CsmaMacNode")

#: Entries whose per-call durations are kept for percentiles.
_SAMPLED = ("core:SafetyManager.run_cycle",)


def layer_of(module: Optional[str]) -> Optional[str]:
    """The self-time bucket of a ``repro`` module, ``None`` outside ``repro``."""
    if not module or not module.startswith("repro."):
        return None
    parts = module.split(".")
    package = parts[1]
    sub = parts[2] if len(parts) > 2 else ""
    if package == "network":
        return _NETWORK_MODULES.get(sub, "network.other")
    if package == "distributed" and sub == "cache":
        return "cache"
    if package in ("scenario", "usecases"):
        return "scenario"
    return package if package in _LAYER_INDEX else None


def _callable_params(function: Callable) -> Tuple[Tuple[int, str], ...]:
    """``(position, name)`` of the parameters annotated as callables."""
    try:
        signature = inspect.signature(function)
    except (TypeError, ValueError):
        return ()
    return tuple(
        (position, parameter.name)
        for position, parameter in enumerate(signature.parameters.values())
        if "Callable" in str(parameter.annotation)
    )


class LayerTracer:
    """Per-entry counts and inclusive times, per-layer self times."""

    def __init__(self) -> None:
        self.self_s = [0.0] * len(LAYERS)
        self.samples: Dict[str, List[float]] = {key: [] for key in _SAMPLED}
        #: ``ScenarioSpec.build`` start to the cell's first ``run_until``.
        self.build_s: List[float] = []
        self.instances: Dict[str, List[Any]] = {name: [] for name in REGISTERED}
        self.wall_s = 0.0
        #: One dict of counts per traced pass (see :meth:`_pass_counts`).
        self.passes: List[Dict[str, int]] = []
        self._keys: List[str] = []
        self._key_index: Dict[str, int] = {}
        self._counts: List[int] = []
        self._totals: List[float] = []
        #: Open spans as ``[layer index, start of its current self segment]``;
        #: empty outside a traced pass.  Mutated in place, never rebound, so
        #: wrappers can hold it directly.
        self._stack: List[List[Any]] = []
        self._cell_started: Optional[float] = None
        self._callback_plan: Dict[Any, Tuple[int, int]] = {}
        self._patches: Optional[List[Tuple[Any, str, Any, Any]]] = None
        self._counts_at_begin: List[int] = []
        self._pass_started = 0.0

    # ------------------------------------------------------------ lifecycle
    def begin(self) -> None:
        """Install the wrappers and start the clock of one traced pass."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, name, _original, wrapped in self._patches:
            setattr(owner, name, wrapped)
        for instances in self.instances.values():
            instances.clear()
        self._counts_at_begin = list(self._counts)
        self._pass_started = perf_counter()
        self._stack[:] = [[0, self._pass_started]]

    def end(self) -> float:
        """Stop the pass clock and restore the program; returns the pass wall time."""
        now = perf_counter()
        root = self._stack[0]
        self.self_s[root[0]] += now - root[1]
        self._stack.clear()
        for owner, name, original, _wrapped in self._patches or ():
            setattr(owner, name, original)
        wall = now - self._pass_started
        self.wall_s += wall
        self.passes.append(self._pass_counts())
        return wall

    def _pass_counts(self) -> Dict[str, int]:
        """Calls per entry point in the pass just ended, plus the counters
        of the simulators, media and MACs it created."""
        counts = {
            key: count - before
            for key, count, before in zip(
                self._keys,
                self._counts,
                self._counts_at_begin + [0] * (len(self._counts) - len(self._counts_at_begin)),
            )
            if count != before
        }
        media = [medium.stats for medium in self.instances["WirelessMedium"]]
        macs = [mac.stats for mac in self.instances["CsmaMacNode"]]
        counts["sim.events"] = sum(sim.events_processed for sim in self.instances["Simulator"])
        counts["medium.deliveries"] = sum(stats.deliveries for stats in media)
        counts["medium.attempts"] = sum(
            stats.deliveries + stats.lost_random + stats.lost_collision + stats.lost_interference
            for stats in media
        )
        counts["mac.transmitted"] = sum(stats.transmitted for stats in macs)
        counts["mac.backoffs"] = sum(stats.backoffs for stats in macs)
        for instances in self.instances.values():
            instances.clear()
        return counts

    def totals(self) -> Dict[str, float]:
        """Inclusive seconds so far, keyed by entry point."""
        return dict(zip(self._keys, self._totals))

    # ------------------------------------------------------------- planning
    def _key(self, key: str) -> int:
        index = self._key_index.get(key)
        if index is None:
            index = len(self._keys)
            self._key_index[key] = index
            self._keys.append(key)
            self._counts.append(0)
            self._totals.append(0.0)
        return index

    def _plan(self) -> List[Tuple[Any, str, Any, Any]]:
        patches: List[Tuple[Any, str, Any, Any]] = []
        for module_name, module in sorted(sys.modules.items()):
            layer = layer_of(module_name)
            if layer is None or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                if inspect.isclass(value):
                    if not issubclass(value, BaseException):
                        patches.extend(self._plan_class(value, layer))
                elif inspect.isfunction(value) and not attr.startswith("_"):
                    wrapped = self._wrap(value, layer, f"{layer}:{value.__qualname__}")
                    patches.append((module, attr, value, wrapped))
        return patches

    def _plan_class(self, cls: type, layer: str) -> List[Tuple[Any, str, Any, Any]]:
        patches = []
        for name, value in list(vars(cls).items()):
            if name == "__init__" and cls.__name__ in REGISTERED:
                patches.append((cls, name, value, self._registering_init(cls.__name__, value)))
                continue
            if name.startswith("_") and (cls.__name__, name) not in _PRIVATE_ENTRIES:
                continue
            kind = type(value) if isinstance(value, (classmethod, staticmethod)) else None
            function = value.__func__ if kind is not None else value
            if not inspect.isfunction(function):
                continue
            wrapped = self._wrap(function, layer, f"{layer}:{cls.__name__}.{name}")
            patches.append((cls, name, value, kind(wrapped) if kind is not None else wrapped))
        return patches

    def _registering_init(self, class_name: str, init: Callable) -> Callable:
        instances = self.instances[class_name]

        @functools.wraps(init)
        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        return registering_init

    # ------------------------------------------------------------- wrapping
    def _wrap(self, function: Callable, layer: str, key: str) -> Callable:
        on_enter = {
            "experiments:ScenarioSpec.build": self._cell_start,
            "sim:Simulator.run_until": self._first_run_until,
        }.get(key)
        traced = self._span(
            function,
            _LAYER_INDEX[layer],
            self._key(key),
            callback_params=_callable_params(function),
            samples=self.samples.get(key),
            on_enter=on_enter,
        )
        return functools.wraps(function)(traced)

    def callback(self, function: Any) -> Any:
        """``function`` wrapped as an entry point of the layer that defined it."""
        if not callable(function) or getattr(function, "perfbench_traced", False):
            return function
        target = getattr(function, "__func__", function)
        if isinstance(target, functools.partial):
            target = target.func
        code = getattr(target, "__code__", None)
        if code is None:
            return function
        plan = self._callback_plan.get(code)
        if plan is None:
            layer = layer_of(getattr(target, "__module__", None))
            if layer is None:
                return function
            plan = (_LAYER_INDEX[layer], self._key(f"{layer}:{target.__qualname__}"))
            self._callback_plan[code] = plan
        return self._span(function, *plan)

    def _span(
        self,
        function: Callable,
        layer_index: int,
        key_index: int,
        callback_params: Tuple[Tuple[int, str], ...] = (),
        samples: Optional[List[float]] = None,
        on_enter: Optional[Callable[[float], None]] = None,
    ) -> Callable:
        """``function`` recorded as a span of ``layer_index`` under ``key_index``."""
        stack = self._stack
        self_s = self.self_s
        counts = self._counts
        totals = self._totals
        wrap_callback = self.callback

        def traced(*args, **kwargs):
            if not stack:  # reached outside a traced pass
                return function(*args, **kwargs)
            if callback_params:
                args, kwargs = _wrap_callbacks(args, kwargs, callback_params, wrap_callback)
            start = perf_counter()
            if on_enter is not None:
                on_enter(start)
            top = stack[-1]
            self_s[top[0]] += start - top[1]
            frame = [layer_index, start]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                now = perf_counter()
                self_s[layer_index] += now - frame[1]
                stack.pop()
                stack[-1][1] = now
                counts[key_index] += 1
                totals[key_index] += now - start
                if samples is not None:
                    samples.append(now - start)

        traced.perfbench_traced = True
        return traced

    def _cell_start(self, now: float) -> None:
        self._cell_started = now

    def _first_run_until(self, now: float) -> None:
        if self._cell_started is not None:
            self.build_s.append(now - self._cell_started)
            self._cell_started = None


def _wrap_callbacks(args, kwargs, params, wrap_callback):
    args = list(args)
    for position, name in params:
        if position < len(args):
            args[position] = wrap_callback(args[position])
        elif name in kwargs:
            kwargs[name] = wrap_callback(kwargs[name])
    return args, kwargs
