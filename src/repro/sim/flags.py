"""Runtime fast-path kill switches.

Each big event-count or stepping optimisation ships with a fallback flag
so a regression can be bisected to the model, not the optimisation:

- ``REPRO_VECTOR_EDGE=0`` — legacy per-device flight/heartbeat processes
  instead of the vectorized :class:`~repro.edge.SwarmEngine` (resolved in
  :class:`~repro.platforms.scenario_runner.ScenarioRunner`).
- ``REPRO_ANALYTIC_NET=0`` — legacy ``Resource``-based FIFO queueing in
  the network, serverless, and on-device service layers instead of the
  analytic virtual-clock models (resolved here).
- ``REPRO_FAST_DISPATCH=0`` — the legacy step-at-a-time event loop in
  :meth:`~repro.sim.Environment.run` instead of the inlined monomorphic
  dispatch loop (resolved here).
- ``REPRO_BATCHED_RNG=0`` — plain scalar ``numpy`` generators instead of
  the block-refilled :class:`~repro.sim.rng.BufferedStream` draw-ahead
  wrappers (resolved here).

All default to **on**; an explicit constructor argument always wins over
the environment.

The scale-out knobs (``REPRO_SHARDS``, ``REPRO_CLOUD_SHARDS``,
``REPRO_MEANFIELD``, ``REPRO_HYBRID_EXACT``) invert the convention:
they default to **off**, so unarmed runs stay byte-identical to the
seed, and arming them opts into the sharded/aggregate runtimes of
:mod:`repro.sim.shard` and :mod:`repro.edge.meanfield`.

The supervision knobs (``REPRO_WORKER_DEADLINE``,
``REPRO_WORKER_RETRIES``, ``REPRO_CHAOS_WORKERS``) tune the worker
watchdog of :mod:`repro.sim.supervisor`; only the chaos spec changes
behaviour when armed (it injects real process faults), and it too
defaults to off.

The serving knobs follow the scale-out convention: ``REPRO_SERVING``
defaults to **off** (empty — no background load, unarmed runs
byte-identical to the seed) and a non-empty spec arms the open-loop
load generator of :mod:`repro.serving`; the sub-switches
``REPRO_SERVING_ADMISSION`` / ``REPRO_SERVING_AUTOSCALE`` default to
**on within an armed serving run** and independently disarm each
reactive policy.
"""

from __future__ import annotations

import math
import os
from typing import Optional

__all__ = [
    "analytic_net_enabled",
    "fast_dispatch_enabled",
    "batched_rng_enabled",
    "shard_count",
    "cloud_shard_count",
    "hybrid_exact_devices",
    "meanfield_enabled",
    "worker_deadline",
    "worker_retries",
    "chaos_workers",
    "serving_spec",
    "serving_admission_enabled",
    "serving_autoscale_enabled",
]


def _configured(variable: str, override, what: str, parse):
    """``(source, value)`` from the explicit argument, else from the
    environment; ``None`` when neither sets one. A value ``parse``
    rejects raises ValueError naming its source."""
    if override is not None:
        return what, parse(override)
    configured = os.environ.get(variable, "")
    if not configured:
        return None
    source = f"{variable}={configured!r}"
    try:
        return source, parse(configured)
    except ValueError:
        raise ValueError(f"{source} is not a valid {parse.__name__}"
                         ) from None


def _count(variable: str, override: Optional[int], what: str,
           default: int, minimum: int) -> int:
    """An integer knob: the argument or the environment variable, each
    rejected with a ValueError naming it when below ``minimum``."""
    found = _configured(variable, override, what, int)
    if found is None:
        return default
    source, count = found
    if count < minimum:
        raise ValueError(f"{source} must be at least {minimum}")
    return count


def _enabled(variable: str, override: Optional[bool]) -> bool:
    if override is not None:
        return bool(override)
    return os.environ.get(variable, "1") != "0"


def analytic_net_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the analytic-queueing flag.

    ``override`` (a constructor/runner argument) wins when given;
    otherwise ``REPRO_ANALYTIC_NET=0`` disables the fast path and any
    other value (or no variable) enables it.
    """
    return _enabled("REPRO_ANALYTIC_NET", override)


def fast_dispatch_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the kernel dispatch-loop flag (``REPRO_FAST_DISPATCH``)."""
    return _enabled("REPRO_FAST_DISPATCH", override)


def batched_rng_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the RNG draw-ahead flag (``REPRO_BATCHED_RNG``)."""
    return _enabled("REPRO_BATCHED_RNG", override)


def shard_count(override: Optional[int] = None) -> int:
    """Resolve the intra-run shard count (``REPRO_SHARDS``).

    Unlike the boolean fast paths this one defaults to **off** (1 shard
    = the unsharded single-process runner, byte-identical to the seed);
    ``REPRO_SHARDS=N`` or an explicit ``--shards N`` arms the sharded
    cell-decomposed runtime of :mod:`repro.sim.shard`.
    """
    return _count("REPRO_SHARDS", override, "shard count", 1, 1)


def cloud_shard_count(override: Optional[int] = None) -> int:
    """Resolve the cloud-tier shard count (``REPRO_CLOUD_SHARDS``).

    Defaults to **0 = off**: the cloud tier stays the single monolithic
    :class:`~repro.serverless.gateway.CloudGateway` and unarmed runs are
    byte-identical to the seed. ``REPRO_CLOUD_SHARDS=N`` (or
    ``--cloud-shards N``) arms the per-region controller workers of
    :mod:`repro.sim.shard`: the cloud tier decomposes into fixed-size
    regions (a pure function of the cell plan) scheduled over up to
    ``N`` worker groups — rows are identical at any ``N >= 1``.
    """
    return _count("REPRO_CLOUD_SHARDS", override, "cloud shard count", 0, 0)


def hybrid_exact_devices(override: Optional[int] = None) -> int:
    """Resolve the hybrid exact-focus size (``REPRO_HYBRID_EXACT``).

    Defaults to **0 = off** (every cell simulates exactly). ``N > 0``
    keeps the first ``N`` devices as exact cells and marks the rest of
    the cell plan ``mode="meanfield"``: aggregate cells price their load
    with :func:`repro.edge.meanfield.predict_cell` and inject it into
    the sharded cloud tier as calibrated synthetic arrival streams, so
    one run mixes a small exact focus sub-swarm with a mean-field
    background swarm.
    """
    return _count("REPRO_HYBRID_EXACT", override,
                  "hybrid exact-device count", 0, 0)


def worker_deadline(override: Optional[float] = None) -> Optional[float]:
    """Resolve the worker reply deadline (``REPRO_WORKER_DEADLINE``).

    Returns the deadline in wall seconds, or ``None`` when neither an
    explicit argument nor the environment sets one — the caller
    (:func:`repro.sim.supervisor.resolve_worker_deadline`) then derives
    ``max(60 s, lookahead window)``. A deadline that is not a positive
    finite number raises ValueError (NaN breaks the watchdog's poll, inf
    turns hang detection off).
    """
    found = _configured("REPRO_WORKER_DEADLINE", override,
                        "worker deadline", float)
    if found is None:
        return None
    source, value = found
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{source} must be a positive finite number of "
                         f"seconds (got {value!r})")
    return value


def worker_retries(override: Optional[int] = None) -> int:
    """Resolve the respawn retry budget (``REPRO_WORKER_RETRIES``).

    Defaults to 2 respawn attempts per incident before the supervisor
    degrades the worker to in-process execution. ``0`` skips respawning
    entirely (straight to in-process recovery).
    """
    return _count("REPRO_WORKER_RETRIES", override, "worker retries", 2, 0)


def chaos_workers(override: Optional[str] = None) -> str:
    """Resolve the worker-chaos spec (``REPRO_CHAOS_WORKERS``).

    Defaults to **off** (empty string — no harness faults, unarmed runs
    byte-identical to the seed). A non-empty value is a
    :meth:`repro.faults.worker.WorkerFaultPlan.parse` spec, e.g.
    ``kill:shard:0:2,hang:shard:1:3``.
    """
    if override is not None:
        return override
    return os.environ.get("REPRO_CHAOS_WORKERS", "")


def serving_spec(override: Optional[str] = None) -> str:
    """Resolve the open-loop serving spec (``REPRO_SERVING``).

    Defaults to **off** (empty string — no background load, unarmed
    runs byte-identical to the seed). A non-empty value is a
    :func:`repro.serving.load.parse_serving_spec` tenant list, e.g.
    ``poisson:200,onoff:80:flash:0.5`` (the bare ``1`` arms one
    default Poisson tenant). Serving load is served by the regional
    cloud tier, so an armed spec implies ``cloud_shards >= 1`` in
    :func:`repro.sim.shard.run_sharded` — the hybrid mean-field
    precedent.
    """
    if override is not None:
        return override
    return os.environ.get("REPRO_SERVING", "")


def serving_admission_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the admission/shedding sub-switch
    (``REPRO_SERVING_ADMISSION``; default on, meaningful only inside a
    serving-armed run)."""
    return _enabled("REPRO_SERVING_ADMISSION", override)


def serving_autoscale_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the invoker-pool autoscaling sub-switch
    (``REPRO_SERVING_AUTOSCALE``; default on, meaningful only inside a
    serving-armed run)."""
    return _enabled("REPRO_SERVING_AUTOSCALE", override)


def meanfield_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the mean-field aggregate-cell flag (``REPRO_MEANFIELD``).

    Defaults to **off**: exact simulation stays the source of truth;
    ``REPRO_MEANFIELD=1`` (or ``--meanfield``) collapses homogeneous
    cells into the population model of :mod:`repro.edge.meanfield`.
    """
    if override is not None:
        return bool(override)
    return os.environ.get("REPRO_MEANFIELD", "0") == "1"
