"""Declarative scenario specifications and parameter sweeps.

A :class:`ScenarioSpec` turns an experiment factory — any callable
``factory(seed, **params) -> result`` — into a declarative object with typed
parameters, default seeds and named metric fields.  A campaign over a spec is
the cartesian product of a :class:`ParameterGrid` (or any iterable of
parameter dicts) with a seed list; each cell is a :class:`RunSpec` whose
:attr:`RunSpec.key` canonically identifies the ``(scenario, params, seed)``
triple for result stores and resume logic.

A cell's identity is encoded once per sweep point, not once per use:
:meth:`ScenarioSpec.runs` passes each point's coerced params through
:func:`encode_params` and hands the one string to every cell of the point
(:attr:`RunSpec.params_json`).  The cell's store key and its
content-addressed cache key are then string formatting over it, and the
records made for a cell take its key rather than encoding it again.
:func:`canonical_key` and :func:`content_cache_key` build the same strings
from a params dict.
"""

from __future__ import annotations

import enum
import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

_TRUE_STRINGS = {"1", "true", "yes", "on", "y"}
_FALSE_STRINGS = {"0", "false", "no", "off", "n"}


def jsonable(value: Any) -> Any:
    """Reduce ``value`` to something the ``json`` module can serialise."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    try:  # numpy scalars expose item() without us having to import numpy
        return jsonable(value.item())
    except AttributeError:
        return str(value)


def encode_params(params: Mapping[str, Any]) -> str:
    """The canonical JSON of a parameter dict, stable across dict ordering:
    the one encoding both keys of a cell are built from."""
    return json.dumps(jsonable(dict(params)), sort_keys=True, separators=(",", ":"))


def _run_key(scenario: str, params_json: str, seed: int) -> str:
    return f"{scenario}|{params_json}|seed={seed}"


def _cache_key(source_fingerprint: str, params_json: str, seed: int) -> str:
    blob = f"{source_fingerprint}|{params_json}|seed={seed}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def canonical_key(scenario: str, params: Mapping[str, Any], seed: int) -> str:
    """Canonical store key for one run: stable across dict ordering."""
    return _run_key(scenario, encode_params(params), seed)


def content_cache_key(source_fingerprint: str, params: Mapping[str, Any], seed: int) -> str:
    """Content-addressed cache key for one run.

    Unlike :func:`canonical_key` the cache key is derived from the
    *scenario source* rather than the scenario name, so editing one
    scenario's factory invalidates exactly that scenario's cached runs —
    renaming a scenario, or editing an unrelated one, invalidates nothing.
    """
    return _cache_key(source_fingerprint, encode_params(params), seed)


#: Scenario-catalog modules excluded from the engine fingerprint: editing a
#: factory there must invalidate only that factory's cache entries (via the
#: per-spec source hash), not every scenario's.
_ENGINE_EXCLUDED = ("experiments/scenarios.py",)

_engine_fingerprint: Optional[str] = None


def engine_fingerprint() -> str:
    """SHA-256 over the whole ``repro`` package source (minus the scenario
    catalog), memoised per process.

    Cached physics is only reusable while the simulation engine underneath
    the factories is unchanged — a factory's own source does not see edits
    to the kernel, network models or use-case classes it calls.  Folding
    this coarse engine hash into every cache key over-invalidates (any
    engine edit flushes the cache) but never serves stale physics.
    """
    global _engine_fingerprint
    if _engine_fingerprint is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            relative = path.relative_to(package_root).as_posix()
            if relative in _ENGINE_EXCLUDED:
                continue
            digest.update(relative.encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _engine_fingerprint = digest.hexdigest()
    return _engine_fingerprint


#: ``id(factory) -> (factory, source)``.  Holding the factory keeps its id
#: from being reused by a later object while the entry lives.
_factory_sources: Dict[int, Tuple[Callable[..., Any], Optional[str]]] = {}


def factory_source(factory: Callable[..., Any]) -> Optional[str]:
    """The factory's source as this process first read it, or ``None`` when
    it is unavailable (REPL / exec'd factories).

    Memoised by the factory object's identity, not its value: two factories
    that compile alike but read differently keep their own sources, and a
    reloaded module's new factory reads afresh.  Editing a loaded module's
    file on disk does not change what the running factory computes, so it
    does not change the source returned for it either.
    """
    entry = _factory_sources.get(id(factory))
    if entry is None:
        try:
            source: Optional[str] = inspect.getsource(factory)
        except (OSError, TypeError):
            source = None
        # setdefault: of two threads reading at once, the first one stored wins.
        entry = _factory_sources.setdefault(id(factory), (factory, source))
    return entry[1]


@dataclass(frozen=True)
class Parameter:
    """One typed scenario parameter with its default value."""

    name: str
    default: Any = None
    type: Optional[type] = None
    help: str = ""

    def resolved_type(self) -> type:
        if self.type is not None:
            return self.type
        if self.default is not None:
            return type(self.default)
        return str

    def coerce(self, raw: Any) -> Any:
        """Convert ``raw`` (possibly a CLI string) to the parameter's type."""
        target = self.resolved_type()
        if raw is None:
            return None
        if target is bool:
            if isinstance(raw, bool):
                return raw
            text = str(raw).strip().lower()
            if text in _TRUE_STRINGS:
                return True
            if text in _FALSE_STRINGS:
                return False
            raise ValueError(f"parameter {self.name!r}: cannot parse {raw!r} as bool")
        if isinstance(raw, target) and not isinstance(raw, bool):
            return raw
        try:
            return target(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"parameter {self.name!r}: cannot parse {raw!r} as {target.__name__}"
            ) from exc


def parameters_from_signature(factory: Callable[..., Any]) -> Tuple[Parameter, ...]:
    """Infer the parameter list from a ``factory(seed, **params)`` signature.

    The first positional argument is the seed; every following keyword
    argument with a default becomes a :class:`Parameter` whose type is
    inferred from the default value.
    """
    signature = inspect.signature(factory)
    params: List[Parameter] = []
    for position, (name, arg) in enumerate(signature.parameters.items()):
        if position == 0:  # the seed argument
            continue
        if arg.kind in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD):
            continue
        if arg.default is inspect.Parameter.empty:
            raise ValueError(
                f"scenario factory {factory.__name__!r}: parameter {name!r} needs a default"
            )
        params.append(Parameter(name=name, default=arg.default))
    return tuple(params)


class ParameterGrid:
    """A cartesian sweep over named parameter axes.

    Iteration yields plain parameter dicts in a deterministic order: axes in
    insertion order, the last axis varying fastest.  A scalar axis value is
    treated as a single-point axis.
    """

    def __init__(self, axes: Optional[Mapping[str, Any]] = None, **kwargs: Any):
        merged: Dict[str, Any] = {}
        merged.update(axes or {})
        merged.update(kwargs)
        self._axes: Dict[str, List[Any]] = {}
        for name, values in merged.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                values = [values]
            self._axes[name] = list(values)

    @property
    def axes(self) -> Dict[str, List[Any]]:
        return {name: list(values) for name, values in self._axes.items()}

    def __len__(self) -> int:
        total = 1
        for values in self._axes.values():
            total *= len(values)
        return total

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        names = list(self._axes)
        for combo in itertools.product(*(self._axes[name] for name in names)):
            yield dict(zip(names, combo))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={values!r}" for name, values in self._axes.items())
        return f"ParameterGrid({inner})"


@dataclass(frozen=True)
class RunSpec:
    """One cell of a campaign: a scenario name, a parameter dict and a seed.

    ``params_json`` is :func:`encode_params` of ``params``, encoded here
    unless given.  :meth:`ScenarioSpec.runs` encodes each sweep point once
    and gives the string to every cell of the point, so a cell's
    :attr:`key` and :meth:`cache_key` are string formatting, and the
    records made for the cell take its :attr:`key` as theirs.
    """

    scenario: str
    params: Dict[str, Any]
    seed: int
    index: int = 0
    params_json: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.params_json is None:
            object.__setattr__(self, "params_json", encode_params(self.params))

    @property
    def key(self) -> str:
        """:func:`canonical_key` of the cell."""
        return _run_key(self.scenario, self.params_json, self.seed)

    def cache_key(self, source_fingerprint: str) -> str:
        """:func:`content_cache_key` of the cell."""
        return _cache_key(source_fingerprint, self.params_json, self.seed)


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered, declaratively-parameterised scenario."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    parameters: Tuple[Parameter, ...] = ()
    metric_fields: Tuple[str, ...] = ()
    default_seeds: Tuple[int, ...] = (1, 2, 3)
    tags: Tuple[str, ...] = ()

    # ------------------------------------------------------------- parameters
    def parameter(self, name: str) -> Parameter:
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        known = ", ".join(sorted(p.name for p in self.parameters)) or "(none)"
        raise KeyError(f"scenario {self.name!r} has no parameter {name!r}; known: {known}")

    def defaults(self) -> Dict[str, Any]:
        return {parameter.name: parameter.default for parameter in self.parameters}

    def coerce_params(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Full parameter dict: defaults overlaid with type-coerced overrides."""
        params = self.defaults()
        for name, raw in (overrides or {}).items():
            params[name] = self.parameter(name).coerce(raw)
        return params

    def with_overrides(
        self,
        name: str,
        description: Optional[str] = None,
        tags: Optional[Sequence[str]] = None,
        default_seeds: Optional[Sequence[int]] = None,
        **defaults: Any,
    ) -> "ScenarioSpec":
        """A variant of this spec with different parameter defaults."""
        new_parameters = []
        for parameter in self.parameters:
            if parameter.name in defaults:
                value = parameter.coerce(defaults.pop(parameter.name))
                parameter = replace(parameter, default=value)
            new_parameters.append(parameter)
        if defaults:
            unknown = ", ".join(sorted(defaults))
            raise KeyError(f"scenario {self.name!r} has no parameter(s): {unknown}")
        return replace(
            self,
            name=name,
            description=description if description is not None else self.description,
            parameters=tuple(new_parameters),
            tags=tuple(tags) if tags is not None else self.tags,
            default_seeds=tuple(default_seeds) if default_seeds is not None else self.default_seeds,
        )

    # ------------------------------------------------------------------- runs
    def runs(
        self,
        params: Optional[Mapping[str, Any]] = None,
        sweep: Optional[Iterable[Mapping[str, Any]]] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> List[RunSpec]:
        """The deterministic run list: sweep points (outer) x seeds (inner).

        Each point's params are coerced and encoded once, and its cells
        share both the dict and the encoding."""
        seed_list = [int(s) for s in (seeds if seeds is not None else self.default_seeds)]
        if not seed_list:
            raise ValueError(f"scenario {self.name!r}: at least one seed is required")
        base = dict(params or {})
        points: List[Dict[str, Any]]
        if sweep is None:
            points = [base]
        else:
            points = [{**base, **dict(point)} for point in sweep]
        run_specs: List[RunSpec] = []
        for point in points:
            full = self.coerce_params(point)
            params_json = encode_params(full)
            for seed in seed_list:
                run_specs.append(
                    RunSpec(
                        scenario=self.name,
                        params=full,
                        seed=seed,
                        index=len(run_specs),
                        params_json=params_json,
                    )
                )
        return run_specs

    # ---------------------------------------------------------------- caching
    def source_fingerprint(self) -> Optional[str]:
        """SHA-256 over the factory's source plus the engine fingerprint,
        or ``None`` when the factory source is unavailable (REPL / exec'd
        factories).

        This is the content-addressing anchor of the shared result cache:
        two specs whose factories read identically (e.g. a scenario and its
        variants) share cached runs cell-by-cell, and editing one factory
        invalidates only that factory's cache entries.  The folded-in
        :func:`engine_fingerprint` additionally invalidates *every* entry
        when the simulation engine the factories call into changes — stale
        physics must never be served from cache.

        Like :func:`engine_fingerprint` it is a per-process snapshot of the
        code that runs: the factory's source is read once per process
        (:func:`factory_source`), so rewriting its file on disk without
        reloading it leaves the cache keys of the still-running code as
        they were.
        """
        source = factory_source(self.factory)
        if source is None:
            return None
        blob = engine_fingerprint() + "|" + source
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ---------------------------------------------------------------- running
    def build(self, seed: int, params: Mapping[str, Any]) -> Any:
        """Invoke the factory for one run."""
        return self.factory(seed, **dict(params))

    def extract_metrics(self, result: Any) -> Dict[str, Any]:
        """Pull the metric dict out of a factory result.

        Mappings are taken as-is; any other object is read through
        ``getattr`` on the declared metric fields (the use-case ``*Results``
        dataclasses all qualify).
        """
        if isinstance(result, Mapping):
            source: Dict[str, Any] = dict(result)
        elif self.metric_fields:
            source = {name: getattr(result, name, None) for name in self.metric_fields}
        else:
            raise TypeError(
                f"scenario {self.name!r}: non-mapping result requires metric_fields"
            )
        if self.metric_fields:
            source = {name: source.get(name) for name in self.metric_fields if name in source}
        return {name: jsonable(value) for name, value in source.items()}
