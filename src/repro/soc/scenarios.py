"""Named system scenarios.

Ready-made multi-master configurations modelled on the application
classes the paper's introduction motivates (ADAS perception stacks,
video pipelines, industrial control).  Each scenario returns a
:class:`~repro.soc.platform.PlatformConfig` with realistic actor
mixes and marks the latency-critical actor; regulation is left to
the caller (pass a builder that assigns a
:class:`~repro.regulation.factory.RegulatorSpec` per master name).

Example::

    from repro.soc.scenarios import make_scenario
    config = make_scenario("adas", regulators={"lidar": spec, "camera": spec})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.regulation.factory import RegulatorSpec
from repro.soc.platform import MasterSpec, PlatformConfig
from repro.telemetry.log import get_logger

MB = 1 << 20

_log = get_logger(__name__)


@dataclass(frozen=True)
class ScenarioActor:
    """One actor of a scenario template.

    Attributes:
        name: Actor name (regulator assignment key).
        workload: Workload-library key.
        extent: Memory-region size in bytes.
        work: Work bound (None = unbounded background traffic).
        max_outstanding: Port depth.
        critical: The actor whose QoS the scenario is about.
    """

    name: str
    workload: str
    extent: int = 4 * MB
    work: Optional[int] = None
    max_outstanding: int = 8
    critical: bool = False


@dataclass(frozen=True)
class Scenario:
    """A named scenario template."""

    name: str
    description: str
    actors: Sequence[ScenarioActor]


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="adas",
            description=(
                "ADAS perception stack: a control task on the host core, "
                "camera and LiDAR ingest DMAs, a CNN accelerator moving "
                "feature maps, and a logging DMA"
            ),
            actors=(
                ScenarioActor("control", "compute_mix", work=3_000,
                              max_outstanding=4, critical=True),
                ScenarioActor("camera", "stream_write", extent=8 * MB),
                ScenarioActor("lidar", "stream_write", extent=2 * MB),
                ScenarioActor("cnn", "matmul_stream", extent=8 * MB),
                ScenarioActor("logger", "memcpy", extent=2 * MB),
            ),
        ),
        Scenario(
            name="video_pipeline",
            description=(
                "Video transcode pipeline: a bitstream parser on the core, "
                "decoder and encoder DMAs, and a scaler with strided access"
            ),
            actors=(
                ScenarioActor("parser", "pointer_chase", work=2_000,
                              max_outstanding=2, critical=True),
                ScenarioActor("decoder", "stream_read", extent=8 * MB),
                ScenarioActor("encoder", "stream_write", extent=8 * MB),
                ScenarioActor("scaler", "fft_stride", extent=4 * MB),
            ),
        ),
        Scenario(
            name="industrial",
            description=(
                "Industrial control: a hard-deadline control loop, a "
                "vision-inspection accelerator and a telemetry uploader"
            ),
            actors=(
                ScenarioActor("control_loop", "latency_probe", work=4_000,
                              max_outstanding=2, critical=True),
                ScenarioActor("inspection", "stencil", work=50_000,
                              max_outstanding=4),
                ScenarioActor("telemetry", "memcpy", extent=2 * MB),
            ),
        ),
    )
}


def make_scenario(
    name: str,
    regulators: Optional[Dict[str, RegulatorSpec]] = None,
    region_floor: int = 0x1000_0000,
    seed: int = 1,
) -> PlatformConfig:
    """Instantiate a named scenario.

    Args:
        name: Key in :data:`SCENARIOS`.
        regulators: Per-actor regulation (actors absent from the map
            are unregulated).
        region_floor: Base address of the first actor's region.
        seed: Experiment seed.

    Returns:
        A ready-to-run :class:`~repro.soc.platform.PlatformConfig`.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    regulators = regulators or {}
    unknown = set(regulators) - {a.name for a in scenario.actors}
    if unknown:
        raise ConfigError(
            f"regulators given for unknown actors {sorted(unknown)}"
        )
    masters: List[MasterSpec] = []
    base = region_floor
    for actor in scenario.actors:
        masters.append(
            MasterSpec(
                name=actor.name,
                workload=actor.workload,
                region_base=base,
                region_extent=actor.extent,
                work=actor.work,
                max_outstanding=actor.max_outstanding,
                regulator=regulators.get(actor.name),
                critical=actor.critical,
            )
        )
        base += actor.extent
    _log.debug(
        "scenario %r: %d actors, %d regulated, seed %d",
        name, len(masters), len(regulators), seed,
    )
    return PlatformConfig(masters=tuple(masters), seed=seed)
