"""The domain plugin registry: every heuristic domain as a drop-in package.

XPlain's pitch is one analysis pipeline for *many* heuristics. This module
makes that literal: a :class:`DomainPlugin` describes one domain package —
its problem factory, typed knobs, smoke-sized defaults, figure presets,
and pipeline-config overrides — and a :class:`DomainRegistry` maps domain
names (and aliases) to plugins. Everything that used to hardcode domain
names consults the registry instead:

* the CLI's ``repro analyze <domain>`` subcommands (plus the legacy
  ``dp``/``vbp``/``sched`` top-level aliases) and ``repro domains``;
* :meth:`repro.parallel.spec.ProblemSpec.from_dict`, which accepts a
  ``{"domain": ..., "kwargs": ...}`` problem block in campaign specs;
* the analysis service's ``GET /domains`` endpoint;
* the CI ``domain-matrix`` job, which enumerates
  ``repro domains --json`` so a new domain is CI-covered automatically.

Registration is entry-point-style: dropping a package under
``repro/domains/<name>/`` with a ``plugin.py`` module that defines a
module-level ``PLUGIN`` (or ``PLUGINS`` list) is all it takes —
:func:`discover_plugins` scans the ``repro.domains`` namespace with
:mod:`pkgutil`, so no central list needs editing. Plugin modules must
stay import-light (the factory is a dotted string, resolved lazily), so
listing domains never pays for building them.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.exceptions import AnalyzerError

#: knob value types a plugin may declare (mapped onto argparse by the CLI)
KNOB_TYPES = ("int", "float", "str", "flag")


@dataclass(frozen=True)
class DomainKnob:
    """One typed factory argument a domain exposes on the CLI.

    ``name`` is the factory kwarg; ``cli`` the CLI option spelling when it
    differs (``num_balls`` is ``--balls`` for backward compatibility).
    """

    name: str
    type: str
    default: object
    help: str = ""
    cli: str | None = None
    choices: tuple | None = None

    def __post_init__(self) -> None:
        if self.type not in KNOB_TYPES:
            raise AnalyzerError(
                f"knob {self.name!r} has unknown type {self.type!r}; "
                f"expected one of {KNOB_TYPES}"
            )
        if self.type == "flag" and self.default is not False:
            raise AnalyzerError(
                f"flag knob {self.name!r} must default to False"
            )

    @property
    def cli_option(self) -> str:
        """The CLI option string, e.g. ``--d-max``."""
        return "--" + (self.cli or self.name).replace("_", "-")

    @property
    def dest(self) -> str:
        """The argparse destination attribute for this knob."""
        return (self.cli or self.name).replace("-", "_")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.type,
            "default": self.default,
            "help": self.help,
            "cli": self.cli_option,
            "choices": list(self.choices) if self.choices else None,
        }


@dataclass(frozen=True)
class DomainPlugin:
    """Descriptor of one domain package, registered by name."""

    #: canonical registry name (``repro analyze <name>``)
    name: str
    #: one-line human description for listings
    title: str
    #: ``"package.module:callable"`` problem factory
    factory: str
    #: alternative names that resolve to this plugin (``dp`` -> ``te``)
    aliases: tuple[str, ...] = ()
    #: typed factory arguments exposed as CLI options
    knobs: tuple[DomainKnob, ...] = ()
    #: tiny factory kwargs for CI smoke runs and registry round-trip tests
    smoke_kwargs: Mapping[str, object] = field(default_factory=dict)
    #: :class:`~repro.core.config.XPlainConfig` overrides ``analyze``
    #: applies for this domain (e.g. forcing the black-box analyzer)
    config_defaults: Mapping[str, object] = field(default_factory=dict)
    #: named figure presets: preset name -> factory kwarg overrides
    presets: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: declared capabilities (informational; shown by listings):
    #: e.g. "exact-encoding", "native-batch-oracle", "dsl-graph"
    capabilities: tuple[str, ...] = ()
    #: top-level CLI subcommands kept as backward-compatible aliases of
    #: ``analyze <name>`` (the pre-registry command names)
    legacy_cli: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if ":" not in self.factory:
            raise AnalyzerError(
                f"domain {self.name!r} factory {self.factory!r} must be "
                "'package.module:callable'"
            )
        knob_names = {knob.name for knob in self.knobs}
        for kwarg in self.smoke_kwargs:
            if kwarg not in knob_names:
                raise AnalyzerError(
                    f"domain {self.name!r} smoke kwarg {kwarg!r} is not a "
                    f"declared knob ({sorted(knob_names)})"
                )
        for preset, overrides in self.presets.items():
            unknown = set(overrides) - knob_names
            if unknown:
                raise AnalyzerError(
                    f"domain {self.name!r} preset {preset!r} overrides "
                    f"unknown knobs {sorted(unknown)}"
                )

    # ------------------------------------------------------------------
    def problem_spec(self, **kwargs):
        """A :class:`~repro.parallel.spec.ProblemSpec` for this domain."""
        from repro.parallel.spec import ProblemSpec

        return ProblemSpec(factory=self.factory, kwargs=dict(kwargs))

    def smoke_spec(self):
        """The tiny smoke-sized problem spec (CI, round-trip tests)."""
        return self.problem_spec(**dict(self.smoke_kwargs))

    def build(self, **kwargs):
        """Construct the domain's :class:`AnalyzedProblem` directly."""
        return self.problem_spec(**kwargs).build()

    def default_kwargs(self) -> dict:
        """Factory kwargs at every knob's declared default."""
        return {knob.name: knob.default for knob in self.knobs}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe descriptor (``repro domains --json``, ``/domains``)."""
        return {
            "name": self.name,
            "title": self.title,
            "factory": self.factory,
            "aliases": list(self.aliases),
            "knobs": [knob.to_dict() for knob in self.knobs],
            "smoke_kwargs": dict(self.smoke_kwargs),
            "config_defaults": dict(self.config_defaults),
            "presets": {k: dict(v) for k, v in self.presets.items()},
            "capabilities": list(self.capabilities),
            "legacy_cli": list(self.legacy_cli),
        }


# ----------------------------------------------------------------------
class DomainRegistry:
    """Name -> :class:`DomainPlugin` mapping with alias resolution."""

    def __init__(self) -> None:
        self._plugins: dict[str, DomainPlugin] = {}
        self._aliases: dict[str, str] = {}

    def register(self, plugin: DomainPlugin) -> DomainPlugin:
        """Add a plugin; name/alias collisions fail loudly."""
        for taken in (plugin.name, *plugin.aliases):
            if taken in self._plugins or taken in self._aliases:
                raise AnalyzerError(
                    f"domain name {taken!r} is already registered "
                    f"(names: {self.names()})"
                )
        self._plugins[plugin.name] = plugin
        for alias in plugin.aliases:
            self._aliases[alias] = plugin.name
        return plugin

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Canonical plugin names, sorted."""
        return sorted(self._plugins)

    def plugins(self) -> list[DomainPlugin]:
        """All plugins in name order."""
        return [self._plugins[name] for name in self.names()]

    def get(self, name: str) -> DomainPlugin:
        """Resolve a name or alias; unknown names list what *is* registered."""
        canonical = self._aliases.get(name, name)
        try:
            return self._plugins[canonical]
        except KeyError:
            raise AnalyzerError(
                f"unknown domain {name!r}; registered domains: "
                f"{', '.join(self.names()) or '(none)'} "
                "(see `repro domains`)"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._plugins or name in self._aliases

    def __iter__(self) -> Iterator[DomainPlugin]:
        return iter(self.plugins())

    def __len__(self) -> int:
        return len(self._plugins)


# ----------------------------------------------------------------------
def discover_plugins(registry: DomainRegistry | None = None) -> DomainRegistry:
    """Scan ``repro.domains.*`` packages for ``plugin`` modules.

    A domain package opts in by shipping ``plugin.py`` with a module-level
    ``PLUGIN`` (or a ``PLUGINS`` list). Packages without one are simply
    not registered — no error, so helper packages can coexist.
    """
    import repro.domains as domains_pkg

    registry = registry if registry is not None else DomainRegistry()
    for info in sorted(
        pkgutil.iter_modules(domains_pkg.__path__), key=lambda m: m.name
    ):
        if not info.ispkg:
            continue
        module_name = f"repro.domains.{info.name}.plugin"
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name == module_name:
                continue  # package ships no plugin — fine
            raise
        plugins = getattr(module, "PLUGINS", None)
        if plugins is None:
            plugin = getattr(module, "PLUGIN", None)
            if plugin is None:
                raise AnalyzerError(
                    f"{module_name} defines neither PLUGIN nor PLUGINS"
                )
            plugins = [plugin]
        for plugin in plugins:
            registry.register(plugin)
    return registry


_REGISTRY: DomainRegistry | None = None


def registry() -> DomainRegistry:
    """The process-wide registry, discovered once and cached."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = discover_plugins()
    return _REGISTRY


# ----------------------------------------------------------------------
#: pipeline defaults of the generated smoke campaigns: one subspace,
#: small sample pools — minutes of CI, not hours
SMOKE_CAMPAIGN_DEFAULTS = {
    "explainer_samples": 40,
    "generalizer_samples": 40,
    "generator": {
        "max_subspaces": 1,
        "tree_extra_samples": 60,
        "significance_pairs": 12,
    },
}


def smoke_campaign_spec(domains: list[str] | None = None, seed: int = 7) -> dict:
    """A ready-to-run one-unit-per-domain campaign spec (JSON-safe).

    ``repro domains --campaign-spec <domain|all>`` prints this; the CI
    ``domain-matrix`` job feeds it straight to ``repro campaign``, so a
    freshly registered domain gets campaign coverage with zero CI edits.
    Problem blocks are domain-addressed on purpose — the campaign path
    then exercises the registry resolution in
    :meth:`~repro.parallel.spec.ProblemSpec.from_dict`.
    """
    reg = registry()
    plugins = (
        reg.plugins()
        if domains is None
        else [reg.get(name) for name in domains]
    )
    jobs = [
        {
            "name": f"{plugin.name}-smoke",
            "problem": {
                "domain": plugin.name,
                "kwargs": dict(plugin.smoke_kwargs),
            },
            "config": dict(plugin.config_defaults),
        }
        for plugin in plugins
    ]
    return {
        "name": "domain-smoke"
        if domains is None or len(domains) != 1
        else f"{jobs[0]['name']}",
        "seed": seed,
        "defaults": {
            "explainer_samples": SMOKE_CAMPAIGN_DEFAULTS["explainer_samples"],
            "generalizer_samples": SMOKE_CAMPAIGN_DEFAULTS[
                "generalizer_samples"
            ],
            "generator": dict(SMOKE_CAMPAIGN_DEFAULTS["generator"]),
        },
        "jobs": jobs,
    }
