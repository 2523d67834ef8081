"""Unified engine selection for the vectorized execution paths.

Two subsystems carry both a vectorized implementation over the columnar
IR and a per-event reference implementation: the analysis passes
(:mod:`repro.analysis.passes`, PR 6) and the simulation kernel
(:mod:`repro.sim.vectorized`, this PR).  Both answer the same question
— "which implementation runs?" — so both consume the same selection
type and the same environment override instead of growing parallel
string vocabularies.

:class:`EngineSelection` has three values:

``AUTO``
    Prefer the vectorized implementation, fall back **per input** to
    the reference when the vectorized path declines (a trace it cannot
    encode, a configuration it does not model).  This is the default
    and the only mode services should run.
``VECTORIZED``
    Same execution as ``AUTO`` today — the vectorized path with
    per-input fallback — but expresses intent: callers that pass it
    explicitly want the fallback *counted* and surfaced (the runner's
    ``engine_fallbacks`` metric) so a silently-degraded fleet is
    visible.
``LEGACY``
    Force the per-event reference implementation everywhere.  Bisection
    and equivalence harnesses use this; results are bit-identical to
    the other two modes by construction, so cache keys never encode the
    engine.

Resolution order for the ambient default: explicit argument, then the
``REPRO_ENGINE`` environment variable, then ``AUTO``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from repro.common.errors import ConfigError

#: Environment override honored by every engine-selecting entry point.
ENGINE_ENV = "REPRO_ENGINE"


class EngineSelection(str, Enum):
    """Which implementation of a dual-engine subsystem runs."""

    AUTO = "auto"
    VECTORIZED = "vectorized"
    LEGACY = "legacy"

    def __str__(self) -> str:  # argparse/json friendliness
        return self.value

    @property
    def wants_vectorized(self) -> bool:
        """True when the vectorized path should be attempted."""
        return self is not EngineSelection.LEGACY

    @classmethod
    def coerce(
        cls, value: Union["EngineSelection", str, None]
    ) -> Optional["EngineSelection"]:
        """Normalize a user-supplied engine name; ``None`` passes through.

        Raises :class:`~repro.common.errors.ConfigError` on unknown
        names so CLI/config typos fail loudly instead of silently
        running the wrong engine.
        """
        if value is None or isinstance(value, cls):
            return value
        name = str(value).strip().lower()
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(e.value for e in cls)
            raise ConfigError(
                f"unknown engine {value!r} (expected one of: {valid})"
            ) from None


@dataclass(frozen=True)
class EngineInfo:
    """Which implementation actually executed one piece of work.

    Distinct from :class:`EngineSelection` (what the caller *asked*
    for): under ``AUTO``/``VECTORIZED`` an input the kernel declines
    still runs — on the reference implementation — and this record is
    how that per-input fallback is surfaced (runner epilogues, the
    service's ``engine_fallbacks`` metric).
    """

    #: ``"vectorized"`` or ``"legacy"`` — the implementation that ran.
    engine: str
    #: True when a vectorized-capable selection fell back for this input.
    fallback: bool = False
    #: Human-readable decline reason when ``fallback`` is set.
    reason: Optional[str] = None


def engine_from_env() -> Optional[EngineSelection]:
    """The environment-supplied engine, or ``None`` when unset/invalid.

    Invalid ``REPRO_ENGINE`` values are ignored rather than fatal — an
    env var must not brick every entry point of the process.
    """
    raw = os.environ.get(ENGINE_ENV)
    if not raw:
        return None
    try:
        return EngineSelection.coerce(raw)
    except ConfigError:
        return None


def resolve_engine(
    engine: Union[EngineSelection, str, None] = None,
) -> EngineSelection:
    """Resolve an explicit/ambient engine choice to a concrete selection.

    Explicit argument > ``REPRO_ENGINE`` > :attr:`EngineSelection.AUTO`.
    """
    coerced = EngineSelection.coerce(engine)
    if coerced is not None:
        return coerced
    from_env = engine_from_env()
    if from_env is not None:
        return from_env
    return EngineSelection.AUTO
