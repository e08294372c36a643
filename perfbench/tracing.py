"""Host-time spans around the public entry points of each ``repro`` layer.

The benchmark's traced run installs these wrappers from outside the
program (nothing under ``src/`` changes) and reads per-layer *host* time
from them:

- every entry point in :data:`ENTRY_POINTS` becomes a span named
  ``<layer>:<qualified name>``; generator functions are timed per
  resumption, so simulated waits never count as host time;
- every resumption of a kernel process (``Process._resume``) becomes a
  span named after the layer of the module that defined the process
  generator (:data:`MODULE_LAYERS`), because most process bodies are
  closures no wrapper can reach;
- a few driver-side boundaries (pipe bytes, supervised sends, region
  call counts) also feed plain counters.

Each span records name, start, end and parent; spans stay in in-memory
arrays and are written out once the run ends. A span's self time is its
duration minus the durations of its child spans. Wrapper cost is
measured once per run (:func:`calibrate`) and subtracted per span, so
small, hot entry points (RNG draws, disarmed trace calls) are not
dominated by the cost of timing them.

Forked worker processes drop the wrappers at fork time: per-layer time
inside sharded workers is left to in-program tracing, and the driver's
view (worker wait, cloud pricing, pipe traffic) is what a traced
``fleet-sharded`` run reports.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ENTRY_POINTS", "MODULE_LAYERS", "NAMED_LAYERS", "Tracer",
           "calibrate", "layer_of_module", "layer_totals"]

#: Layers whose self time the traced run reports. Time in spans of any
#: other layer (``other``) or in no span at all is "unattributed".
NAMED_LAYERS = ("sim.kernel", "sim.rng", "edge", "network", "serverless",
                "serverless.region", "serving", "sim.shard", "platforms",
                "core", "learning", "telemetry", "obs")

#: Module prefix -> layer, longest prefix wins. The accelerated RPC and
#: remote-memory fabric (``repro.hardware``) are HiveMind's network
#: layer; the servers invokers run on (``repro.cluster``) belong to the
#: serverless layer.
MODULE_LAYERS = (
    ("repro.sim.kernel", "sim.kernel"),
    ("repro.sim.resources", "sim.kernel"),
    ("repro.sim.rng", "sim.rng"),
    ("repro.sim.shard", "sim.shard"),
    ("repro.sim.supervisor", "sim.shard"),
    ("repro.edge", "edge"),
    ("repro.network", "network"),
    ("repro.hardware", "network"),
    ("repro.serverless.region", "serverless.region"),
    ("repro.serverless", "serverless"),
    ("repro.cluster", "serverless"),
    ("repro.serving", "serving"),
    ("repro.platforms", "platforms"),
    ("repro.core", "core"),
    ("repro.learning", "learning"),
    ("repro.telemetry", "telemetry"),
    ("repro.obs", "obs"),
)

#: (layer, "module:Qualified.name") for every wrapped entry point. A
#: name that no longer resolves makes the traced run fail loudly.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("sim.kernel", "repro.sim.kernel:Environment.run"),
    ("sim.rng", "repro.sim.rng:RandomStreams.stream"),
    ("sim.rng", "repro.sim.rng:RandomStreams.buffered"),
    ("sim.rng", "repro.sim.rng:BufferedStream.random"),
    ("sim.rng", "repro.sim.rng:BufferedStream.uniform"),
    ("sim.rng", "repro.sim.rng:BufferedStream.standard_normal"),
    ("sim.rng", "repro.sim.rng:BufferedStream.normal"),
    ("sim.rng", "repro.sim.rng:BufferedStream.lognormal"),
    ("sim.rng", "repro.sim.rng:BufferedStream.geometric"),
    ("sim.rng", "repro.sim.rng:BufferedStream.pareto"),
    ("edge", "repro.edge.engine:SwarmEngine.fly_route"),
    ("edge", "repro.edge.engine:SwarmEngine.add_heartbeats"),
    ("edge", "repro.edge.engine:SwarmEngine._wake"),
    ("edge", "repro.edge.device:EdgeDevice.execute"),
    ("edge", "repro.edge.device:EdgeDevice.account_tx"),
    ("edge", "repro.edge.device:EdgeDevice.account_rx"),
    ("edge", "repro.edge.device:EdgeDevice.finalize_mission"),
    ("edge", "repro.edge.drone:Drone.fly_route"),
    ("edge", "repro.edge.swarm:Swarm.start_heartbeats"),
    ("network", "repro.network.link:Link.transfer"),
    ("network", "repro.network.switch:ClusterNetwork.transfer"),
    ("network", "repro.network.wireless:WirelessNetwork.upload"),
    ("network", "repro.network.wireless:WirelessNetwork.download"),
    ("network", "repro.network.wireless:WirelessNetwork.round_trip"),
    ("network", "repro.network.rpc:EdgeCloudRpc.call"),
    ("network", "repro.network.rpc:EdgeCloudRpc.push"),
    ("network", "repro.network.rpc:ReliableEdgeRpc.call"),
    ("network", "repro.network.rpc:ReliableEdgeRpc.push"),
    ("network", "repro.network.rpc:SoftwareClusterRpc.call"),
    ("network", "repro.hardware.rpc_accel:AcceleratedEdgeRpc.call"),
    ("network", "repro.hardware.rpc_accel:AcceleratedEdgeRpc.push"),
    ("network", "repro.hardware.rpc_accel:AcceleratedClusterRpc.call"),
    ("network", "repro.hardware.remote_memory:RemoteMemoryFabric.write"),
    ("network", "repro.hardware.remote_memory:RemoteMemoryFabric.read"),
    ("serverless", "repro.serverless.openwhisk:OpenWhiskPlatform.invoke"),
    ("serverless",
     "repro.serverless.openwhisk:OpenWhiskPlatform.invoke_parallel"),
    ("serverless", "repro.serverless.invoker:Invoker.run"),
    ("serverless", "repro.serverless.invoker:Invoker.take_warm"),
    ("serverless", "repro.serverless.couchdb:CouchDB.access"),
    ("serverless", "repro.serverless.couchdb:CouchDB.authenticate"),
    ("serverless", "repro.serverless.couchdb:CouchDB.store"),
    ("serverless", "repro.serverless.couchdb:CouchDB.load"),
    ("serverless", "repro.serverless.kafka:KafkaBus.publish"),
    ("serverless", "repro.serverless.kafka:KafkaBus.consume"),
    ("serverless", "repro.serverless.datasharing:CouchDBSharing.share"),
    ("serverless", "repro.serverless.datasharing:RpcSharing.share"),
    ("serverless", "repro.serverless.datasharing:InMemorySharing.share"),
    ("serverless",
     "repro.serverless.datasharing:RemoteMemorySharing.share"),
    ("serverless", "repro.serverless.gateway:CloudGateway.feed"),
    ("serverless", "repro.serverless.gateway:CloudGateway.advance_to"),
    ("serverless", "repro.serverless.gateway:CloudGateway.drain"),
    ("serverless", "repro.cluster.server:Server.acquire_cores"),
    ("serverless", "repro.cluster.server:Server.compute"),
    ("serverless.region", "repro.serverless.region:RegionGateway.serve"),
    ("serverless.region", "repro.serverless.region:RegionGateway.stats"),
    ("serving", "repro.serving.load:generate_serving_calls"),
    ("serving", "repro.serving:ServingPolicy.observe"),
    ("serving", "repro.serving:ServingPolicy.admit"),
    ("serving", "repro.serving:ServingPolicy.active_servers"),
    ("sim.shard", "repro.sim.shard:run_sharded"),
    ("sim.shard", "repro.sim.shard:plan_cells"),
    ("sim.shard", "repro.sim.supervisor:SupervisedConnection.send"),
    ("sim.shard", "repro.sim.supervisor:SupervisedConnection.collect"),
    ("sim.shard", "repro.sim.supervisor:SupervisedConnection.request"),
    ("sim.shard", "multiprocessing.connection:_ConnectionBase.send"),
    ("sim.shard", "multiprocessing.connection:_ConnectionBase.recv"),
    ("sim.shard", "multiprocessing.process:BaseProcess.start"),
    ("platforms", "repro.platforms.scenario_runner:ScenarioRunner.run"),
    ("platforms",
     "repro.platforms.scenario_runner:ScenarioRunner.advance_to"),
    ("platforms", "repro.platforms.scenario_runner:ScenarioRunner.finish"),
    ("core", "repro.core.straggler:StragglerMitigator.invoke"),
    ("core", "repro.core.straggler:StragglerMitigator.threshold_for"),
    ("core", "repro.core.fault_tolerance:FailureDetector.watch"),
    ("learning", "repro.learning.retraining:OnlineRecognizer.sight"),
    ("learning", "repro.learning.classifier:DeduplicationEngine.add"),
    ("learning", "repro.learning.embeddings:IdentitySpace.observe"),
    ("telemetry", "repro.telemetry.metrics:MetricSeries.add"),
    ("telemetry", "repro.telemetry.breakdown:LatencyBreakdown.charge"),
    ("telemetry", "repro.telemetry.breakdown:BreakdownAggregate.add"),
    ("telemetry", "repro.telemetry.bandwidth:BandwidthMeter.record"),
    ("telemetry", "repro.telemetry.power:EnergyAccount.draw_power"),
    ("telemetry", "repro.telemetry.power:EnergyAccount.draw_energy"),
    ("obs", "repro.obs:root_span"),
    ("obs", "repro.obs:active_tracer"),
    ("obs", "repro.obs.span:NullTraceContext.span"),
    ("obs", "repro.obs.span:NullTraceContext.emit"),
    ("obs", "repro.obs.span:NullTraceContext.annotate"),
    ("obs", "repro.obs.span:NullTraceContext.close"),
    ("obs", "repro.obs.span:TraceContext.span"),
    ("obs", "repro.obs.span:TraceContext.emit"),
    ("obs", "repro.obs.span:TraceContext.close"),
)

#: The driver's time in a supervised connection's collect(): waiting
#: on a worker process, or running the executor in process.
WAIT_SPAN = "sim.shard:wait"
LOCAL_SPAN = "sim.shard:local"


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to (``other`` if none)."""
    best, layer = -1, "other"
    for prefix, name in MODULE_LAYERS:
        if ((module == prefix or module.startswith(prefix + "."))
                and len(prefix) > best):
            best, layer = len(prefix), name
    return layer


def _module_of_file(filename: str) -> str:
    """``.../src/repro/edge/swarm.py`` -> ``repro.edge.swarm``."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts:
        return ""
    tail = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    tail[-1] = os.path.splitext(tail[-1])[0]
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail)


def _resolve(target: str):
    """``"module:Class.attr"`` -> (owner, attribute name, raw value)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        if attr not in owner.__dict__:
            raise AttributeError(f"{target}: not defined on the class")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Recording is a flat log kept as cheap as possible, because it runs
    on every wrapped call: opening a span appends its name id and its
    start stamp, closing it appends the negated end stamp
    (``perf_counter`` is positive). Nesting, and so each span's parent,
    is rebuilt from the log once the run is over (:meth:`spans`).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_log = array("i")
        self.time_log = array("d")
        #: Name ids timed per generator resumption.
        self.generators: set = set()
        #: Generator creations per name id (a plain function's calls are
        #: its spans).
        self.calls: Dict[int, int] = {}
        self.counters: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._drive_code = None

    # -- recording ---------------------------------------------------------
    def nid(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def reset(self) -> None:
        """Drop every span and count recorded so far (set-up spans).
        Call it outside every wrapped call."""
        del self.name_log[:]
        del self.time_log[:]
        self.calls.clear()
        self.counters.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _plain(self, fn: Callable, nid: int,
               name_of: Optional[Callable] = None) -> Callable:
        name_log, time_log = self.name_log.append, self.time_log.append
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name_log(nid if name_of is None else name_of(args))
            time_log(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                time_log(-clock())

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, fn: Callable, nid: int) -> Callable:
        name_log, time_log = self.name_log.append, self.time_log.append
        calls, clock = self.calls, time.perf_counter

        def drive(gen):
            send, throw = gen.send, gen.throw
            value, error = None, None
            while True:
                name_log(nid)
                time_log(clock())
                try:
                    item = send(value) if error is None else throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    time_log(-clock())
                try:
                    value, error = (yield item), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in: forward it
                    value, error = None, exc

        def wrapper(*args, **kwargs):
            calls[nid] = calls.get(nid, 0) + 1
            return drive(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        self.generators.add(nid)
        self._drive_code = drive.__code__
        return wrapper

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if inspect.isclass(owner)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, layer: str, target: str,
             name_of: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Time ``target`` as a span of ``layer``. ``name_of(args)``
        picks the span name per call; ``after(args, result)`` runs after
        each call (plain functions only)."""
        owner, attr, raw = _resolve(target)
        kind = type(raw) if isinstance(raw, (staticmethod,
                                             classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if not callable(fn):
            raise TypeError(f"{target} is not callable")
        nid = self.nid(f"{layer}:{target.partition(':')[2]}")
        if inspect.isgeneratorfunction(fn):
            wrapped = self._generator(fn, nid)
        else:
            inner = fn
            if after is not None:
                def inner(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    after(args, result)
                    return result
            wrapped = self._plain(inner, nid, name_of)
        value = kind(wrapped) if kind is not None else wrapped
        self._patch(owner, attr, value)
        if not inspect.isclass(owner):
            # Re-exports (``from .load import generate_serving_calls``)
            # hold the same function under the same name.
            for module in list(sys.modules.values()):
                if (module is not owner and module is not None
                        and getattr(module, "__name__", "").startswith(
                            "repro")
                        and getattr(module, attr, None) is fn):
                    self._patch(module, attr, value)

    def count_calls(self, target: str, key: str,
                    measure: Callable) -> None:
        """Add ``measure(args, result)`` to counter ``key`` per call,
        without a span."""
        owner, attr, fn = _resolve(target)
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[key] = counters.get(key, 0) + measure(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every entry point, the kernel's process resumption and
        the driver-side counters."""
        from repro.sim.kernel import Process

        for layer, target in ENTRY_POINTS:
            if target.endswith(("SupervisedConnection.collect",
                                "SupervisedConnection.request")):
                wait, local = self.nid(WAIT_SPAN), self.nid(LOCAL_SPAN)
                self.wrap(layer, target, name_of=(
                    lambda args: local if args[0].in_process else wait))
            elif target.endswith("SupervisedConnection.send"):
                self.wrap(layer, target, after=lambda args, _: self.count(
                    f"send:{args[0].name}:{args[1]}"))
            elif target.endswith("RegionGateway.serve"):
                self.wrap(layer, target, after=lambda args, _: self.count(
                    "region.calls", len(args[1])))
            else:
                self.wrap(layer, target)
        self.count_calls("multiprocessing.connection:Connection._send_bytes",
                         "pipe.bytes", lambda args, _: len(args[1]))
        self.count_calls("multiprocessing.connection:Connection._recv_bytes",
                         "pipe.bytes",
                         lambda args, buf: buf.getbuffer().nbytes)

        resume = Process.__dict__["_resume"]
        layer_nids: Dict[object, int] = {}
        skip = self._drive_code
        name_log, time_log = self.name_log.append, self.time_log.append
        clock = time.perf_counter

        def _resume(process, event):
            code = process._generator.gi_code
            if code is skip:  # a wrapped entry point times itself
                return resume(process, event)
            nid = layer_nids.get(code)
            if nid is None:
                layer = layer_of_module(_module_of_file(code.co_filename))
                nid = layer_nids[code] = self.nid(f"{layer}:process")
            name_log(nid)
            time_log(clock())
            try:
                return resume(process, event)
            finally:
                time_log(-clock())

        self._patch(Process, "_resume", _resume)
        os.register_at_fork(after_in_child=self._forked)
        return self

    def _forked(self) -> None:
        if os.getpid() != self._pid:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def spans(self):
        """(name ids, parent indices, starts, ends) rebuilt from the log."""
        n = len(self.name_log)
        names = np.frombuffer(self.name_log, dtype=np.int32).copy()
        parent = np.empty(n, dtype=np.int64)
        start = np.empty(n)
        end = np.empty(n)
        stack: List[int] = []
        index = 0
        for stamp in self.time_log:
            if stamp > 0:
                parent[index] = stack[-1] if stack else -1
                start[index] = stamp
                stack.append(index)
                index += 1
            else:
                end[stack.pop()] = -stamp
        if stack or index != n:
            raise RuntimeError("span log read while spans are open")
        return names, parent, start, end

    def by_name(self, span_cost: Dict[str, Tuple[float, float]] = None
                ) -> Dict[str, Dict[str, float]]:
        """Per span name: spans, calls, inclusive and self seconds.

        ``span_cost`` maps ``"plain"``/``"generator"`` to the
        ``(inside, outside)`` seconds one span of that kind adds (see
        :func:`calibrate`): ``inside`` is removed from the span's own
        self time, ``outside`` from its parent's.
        """
        names, parent, start, end = self.spans()
        duration = end - start
        n, k = len(names), len(self.names)
        is_gen = np.zeros(k, dtype=bool)
        is_gen[list(self.generators)] = True
        cost = span_cost or {}
        inside = np.where(is_gen, *(cost.get(kind, (0.0, 0.0))[0]
                                    for kind in ("generator", "plain")))
        outside = np.where(is_gen, *(cost.get(kind, (0.0, 0.0))[1]
                                     for kind in ("generator", "plain")))
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent],
                                 weights=duration[has_parent], minlength=n)
        child_cost = np.bincount(parent[has_parent],
                                 weights=outside[names[has_parent]],
                                 minlength=n)
        self_time = duration - child_time - inside[names] - child_cost
        spans = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            if spans[nid] or self.calls.get(nid):
                out[name] = {"spans": int(spans[nid]),
                             "calls": int(self.calls.get(nid, spans[nid])),
                             "total_s": float(total[nid]),
                             "self_s": float(own[nid])}
        return out

    def inclusive_within(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans nested in an ``ancestor``
        span."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0.0
        names, parent, start, end = self.spans()
        want, root = self._name_ids[name], self._name_ids[ancestor]
        total = 0.0
        for idx in np.flatnonzero(names == want):
            up = parent[idx]
            while up >= 0 and names[up] != root:
                up = parent[up]
            if up >= 0:
                total += float(end[idx] - start[idx])
        return total

    def write(self, path: str) -> None:
        """Write every span (name, parent, start, end) to ``path``."""
        names, parent, start, end = self.spans()
        np.savez(path, names=np.asarray(self.names), name_id=names,
                 parent=parent, start=start, end=end)


def _noop(*args):
    return None


def _noop_generator(n: int):
    for _ in range(n):
        yield None


def calibrate(rounds: int = 5, calls: int = 20_000
              ) -> Dict[str, Tuple[float, float]]:
    """Seconds one span adds, per wrapper kind: ``(inside, outside)``.

    ``inside`` is the mean duration of a span around a no-op minus the
    no-op's own cost; ``outside`` is the rest of the wrapper's extra
    cost, which lands in the caller's self time. Medians over
    ``rounds`` keep one preempted round from skewing the correction.
    """
    clock = time.perf_counter
    samples: Dict[str, List[Tuple[float, float]]] = {"plain": [],
                                                     "generator": []}
    for _ in range(rounds):
        tracer = Tracer()
        wrapped = tracer._plain(_noop, tracer.nid("plain"))
        begin = clock()
        for _ in range(calls):
            _noop()
        bare = (clock() - begin) / calls
        begin = clock()
        for _ in range(calls):
            wrapped()
        traced = (clock() - begin) / calls
        samples["plain"].append(_split(tracer, bare, traced, calls))

        tracer = Tracer()
        wrapped = tracer._generator(_noop_generator, tracer.nid("gen"))
        begin = clock()
        for _ in _noop_generator(calls):
            pass
        bare = (clock() - begin) / (calls + 1)
        begin = clock()
        for _ in wrapped(calls):
            pass
        traced = (clock() - begin) / (calls + 1)
        samples["generator"].append(_split(tracer, bare, traced, calls + 1))
    return {kind: (float(np.median([inside for inside, _ in rows])),
                   float(np.median([outside for _, outside in rows])))
            for kind, rows in samples.items()}


def _split(tracer: Tracer, bare: float, traced: float,
           spans: int) -> Tuple[float, float]:
    _, _, start, end = tracer.spans()
    if len(start) != spans:
        raise RuntimeError("calibration recorded an unexpected span count")
    inside = max(0.0, float((end - start).mean()) - bare)
    return inside, max(0.0, traced - bare - inside)


def layer_totals(by_name: Dict[str, Dict[str, float]],
                 layers: Sequence[str] = NAMED_LAYERS
                 ) -> Dict[str, float]:
    """Self seconds per layer (``other`` for everything unnamed),
    clamped at zero after the span-cost correction."""
    totals: Dict[str, float] = {layer: 0.0 for layer in layers}
    totals["other"] = 0.0
    for name, row in by_name.items():
        layer = name.partition(":")[0]
        key = layer if layer in totals else "other"
        totals[key] += row["self_s"]
    return {layer: max(0.0, value) for layer, value in totals.items()}
