"""Analysis-pass framework: registry, context, and the PassManager.

A *pass* is one unit of static analysis that runs over a trace and
produces an :class:`~repro.analysis.findings.AnalysisReport` (and,
optionally, structured profile data).  Passes declare whether they have
a vectorized implementation over the columnar IR
(:class:`~repro.trace.columnar.ColumnarTrace`), a legacy per-event
implementation over the tuple form, or both:

- ``lint`` / ``race`` have **both**.  The vectorized implementations
  are gated by finding-for-finding equivalence tests against the PR 1
  per-event analyzers, which survive as the reference oracle and as the
  fallback for traces the columnar form cannot represent (deliberately
  malformed tuples) or that trip a vectorization guard.
- ``profile`` / ``offload`` / ``screening`` are **vectorized-only** —
  whole-trace aggregations the per-event linter could never afford.

The :class:`PassManager` owns engine selection through the shared
:class:`~repro.common.engine.EngineSelection` vocabulary: ``"auto"``
and ``"vectorized"`` run columnar implementations and silently fall
back per pass when one returns ``None`` or the trace is not encodable;
``"legacy"`` forces the per-event oracles.  The ``REPRO_ENGINE``
environment variable overrides the default for a whole process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.common.engine import EngineSelection, resolve_engine
from repro.common.errors import ConfigError, TraceError
from repro.sim.config import SystemConfig
from repro.trace.columnar import ColumnarTrace, as_columnar
from repro.analysis.findings import AnalysisReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.memlayout.allocator import AddressSpace
    from repro.trace.stream import Trace

#: Engine names accepted by :meth:`PassManager.run`.
ENGINES = tuple(e.value for e in EngineSelection)


def default_engine() -> str:
    """Process-wide default engine name.

    Resolution lives in :func:`repro.common.engine.resolve_engine`
    (``REPRO_ENGINE``, else ``auto``).  ``auto`` and ``vectorized`` are
    the same execution for analysis passes — columnar with per-pass
    fallback — so the ambient default reports as ``"vectorized"``.
    """
    selection = resolve_engine(None)
    if selection is EngineSelection.AUTO:
        return EngineSelection.VECTORIZED.value
    return selection.value


@dataclass
class PassContext:
    """Everything a pass may consume.

    ``columnar`` is None when the tuple trace is not columnar-encodable;
    ``trace`` is materialized lazily from the columnar form when a
    legacy fallback needs it.
    """

    config: SystemConfig
    trace: "Optional[Trace]" = None
    columnar: Optional[ColumnarTrace] = None
    address_space: "Optional[AddressSpace]" = None
    #: Extra configs for cross-config passes (screening).
    screen_configs: Sequence[SystemConfig] = ()

    def require_trace(self) -> "Trace":
        """Tuple-form trace, decoding from columnar on first use."""
        if self.trace is None:
            if self.columnar is None:
                raise ConfigError("pass context has no trace")
            self.trace = self.columnar.to_events()
        return self.trace

    @property
    def subject(self) -> str:
        source = self.columnar if self.columnar is not None else self.trace
        name = getattr(source, "name", "") or "trace"
        return name


@dataclass
class PassResult:
    """Outcome of one pass over one trace."""

    name: str
    report: AnalysisReport
    #: Which implementation actually ran ("vectorized" or "legacy").
    engine: str
    #: Structured pass-specific payload (profile passes).
    data: dict = field(default_factory=dict)


class AnalysisPass:
    """Base class; subclasses override one or both run methods."""

    #: Stable registry name (also the report grouping key).
    name: str = ""

    #: Whether this pass contributes findings that gate CI (lint/race)
    #: as opposed to informational profile data.
    gating: bool = True

    def run_columnar(self, ctx: PassContext) -> Optional[PassResult]:
        """Vectorized implementation; None = not available, fall back."""
        return None

    def run_legacy(self, ctx: PassContext) -> Optional[PassResult]:
        """Per-event reference implementation; None = vectorized-only."""
        return None


_PASS_REGISTRY: dict[str, AnalysisPass] = {}


def register_pass(pass_: AnalysisPass) -> AnalysisPass:
    """Register a pass instance under its ``name``."""
    if not pass_.name:
        raise ConfigError("analysis pass must define a name")
    if pass_.name in _PASS_REGISTRY:
        raise ConfigError(f"duplicate analysis pass {pass_.name!r}")
    _PASS_REGISTRY[pass_.name] = pass_
    return pass_


def get_pass(name: str) -> AnalysisPass:
    """Look up a registered pass by name."""
    try:
        return _PASS_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown analysis pass {name!r}; known: {sorted(_PASS_REGISTRY)}"
        ) from None


def all_passes() -> list[AnalysisPass]:
    """All registered passes in registration order."""
    return list(_PASS_REGISTRY.values())


class PassManager:
    """Runs a pipeline of passes over one trace with engine fallback."""

    def __init__(self, passes: Sequence[AnalysisPass | str]):
        self.passes: list[AnalysisPass] = [
            get_pass(p) if isinstance(p, str) else p for p in passes
        ]

    def run(
        self,
        trace,
        config: SystemConfig | None = None,
        address_space: "Optional[AddressSpace]" = None,
        engine: str | None = None,
        screen_configs: Sequence[SystemConfig] = (),
    ) -> dict[str, PassResult]:
        """Run every pass; returns ``{pass name: PassResult}``.

        ``trace`` may be a tuple-form ``Trace`` or a ``ColumnarTrace``.
        """
        selection = resolve_engine(engine)
        wants_vectorized = selection.wants_vectorized
        ctx = PassContext(
            config=config or SystemConfig.graphpim(),
            address_space=address_space,
            screen_configs=screen_configs,
        )
        if isinstance(trace, ColumnarTrace):
            ctx.columnar = trace
        else:
            ctx.trace = trace
            if wants_vectorized:
                try:
                    ctx.columnar = as_columnar(trace)
                except TraceError:
                    # Deliberately malformed tuples (wrong arity, bad
                    # kinds) are exactly what the legacy linter reports;
                    # every pass falls back for this trace.
                    ctx.columnar = None

        results: dict[str, PassResult] = {}
        for pass_ in self.passes:
            result = None
            if wants_vectorized and ctx.columnar is not None:
                result = pass_.run_columnar(ctx)
            if result is None:
                result = pass_.run_legacy(ctx)
            if result is None:
                # Vectorized-only pass under the legacy engine (or a
                # guard tripped with no oracle): record an empty result
                # rather than silently dropping the pass.
                result = PassResult(
                    name=pass_.name,
                    report=AnalysisReport(subject=ctx.subject),
                    engine="skipped",
                )
            results[pass_.name] = result
        return results

    def merged_report(
        self, results: dict[str, PassResult], subject: str
    ) -> AnalysisReport:
        """Concatenate gating reports in pass order."""
        merged = AnalysisReport(subject=subject)
        for pass_ in self.passes:
            result = results.get(pass_.name)
            if result is not None and pass_.gating:
                merged.findings.extend(result.report.findings)
        return merged
