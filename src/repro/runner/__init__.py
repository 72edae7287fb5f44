"""In-process experiment execution with content-addressed caching.

The benchmark suite is dominated by *independent* cycle-level runs:
sweeps over regulator settings, solo baselines, scenario grids.  This
package turns such a workload into a deduplicated, cached batch:

* :class:`RunSpec` -- a serializable description of one run (platform
  config + horizon + stop condition) with a stable content hash;
* :class:`RunSummary` -- the plain-data outcome of a run, the part of
  :class:`~repro.soc.experiment.PlatformResult` that can round-trip
  through JSON;
* :class:`ResultCache` -- an on-disk store keyed by spec hash, so a
  solo baseline shared by many figures is simulated exactly once;
* :class:`ParallelRunner` -- runs a batch of specs in process, in spec
  order, after dropping duplicates and cache hits.

Environment knob: ``REPRO_CACHE`` selects the cache directory
(``off`` disables it).

Example::

    from repro.runner import ParallelRunner, ResultCache, RunSpec
    from repro.soc.presets import zcu102

    specs = [RunSpec(config=zcu102(num_accels=n)) for n in range(5)]
    runner = ParallelRunner(cache=ResultCache.from_env())
    summaries = runner.run(specs)       # order matches specs
"""

from repro.runner.spec import RunSpec, config_from_dict, config_to_dict
from repro.runner.summary import RunSummary
from repro.runner.cache import ResultCache
from repro.runner.parallel import ParallelRunner, RunnerStats, execute_spec

__all__ = [
    "RunSpec",
    "RunSummary",
    "ResultCache",
    "ParallelRunner",
    "RunnerStats",
    "execute_spec",
    "config_to_dict",
    "config_from_dict",
]
