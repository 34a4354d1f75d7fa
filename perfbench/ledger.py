"""Host-side timing and the per-layer cost ledger.

Two instruments live here, both installed from outside the library by
patching its public functions (nothing under ``src/`` knows about them):

* :class:`HostClock` wraps ``Simulator.run`` only.  It splits a
  workload's host time into set-up (everything before a deployment's
  first ``Simulator.run``) and run time (inside ``Simulator.run``).  It is
  installed in every run, traced or not; it costs one wrapper call per
  ``Simulator.run``.  In untraced runs it also times a fixed reference
  loop every 0.2 s, so that host seconds can be scaled to a host of
  fixed speed.
* :class:`Ledger` wraps the public functions of every layer in a span.
  A span's *self* time is its duration minus the time of the spans it
  encloses, so the layers' self times plus the kernel's residual (the
  ``Simulator.run`` span's own self time: the event loop and every
  process body no layer wrapper covers) add up to the covered wall time.

A module that bound a layer function by name (``from ..compressor import
compress``) holds its own reference, so the ledger patches *every* module
attribute that is the original function, and :meth:`Ledger.unpatched`
reports any binding it missed.  Generator functions are never wrapped:
calling one only builds the generator, and its body runs later inside the
kernel, where a span around the call would time nothing.

Spans are aggregated in memory per layer as they close and are written
out once, by the caller, when the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

#: Layer names follow the library's module names.
LAYERS = (
    "simnet.topology",
    "compressor",
    "xmlcodec",
    "mas.serializer",
    "crypto",
    "core.packed_info",
    "core.admission",
    "core.storage",
    "core.deployment",
    "telemetry",
    "telemetry.exporters",
    "simtest.invariants",
    "simnet.kernel",
)

#: Layers whose retained memory the traced run reports: the package
#: whose types and module globals each one owns, and the third-party
#: packages whose objects it may hold (networkx serves only the router).
MEMORY_OWNERS = {
    "compressor": ("repro.compressor", ()),
    "simnet.topology": ("repro.simnet.topology", ("networkx",)),
    "telemetry": ("repro.telemetry", ()),
    "crypto": ("repro.crypto", ()),
}
#: Objects of these kinds end an ownership walk: they are code, not data.
_NOT_DATA = (type, types.ModuleType, types.FunctionType, types.MethodType,
             types.BuiltinFunctionType, types.CodeType, types.FrameType)

_clock = time.perf_counter


def import_library() -> list:
    """Import every ``repro`` module and return them.

    Run before patching so that every by-name binding already exists; a
    module imported later would bind the unwrapped function.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "repro"]


def _plain_functions(namespace: dict, module_name: str) -> list[tuple[str, Any]]:
    """Public, non-generator functions defined in ``module_name``."""
    return [
        (name, obj)
        for name, obj in namespace.items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module_name
        and not inspect.isgeneratorfunction(obj)
    ]


def _memory_owner(module_name: str) -> Optional[str]:
    for layer, (package, _) in MEMORY_OWNERS.items():
        if module_name == package or module_name.startswith(package + "."):
            return layer
    return None


def retained_mb() -> dict[str, float]:
    """Live megabytes each :data:`MEMORY_OWNERS` layer holds right now.

    A layer holds the instances of its own types and its modules' globals
    (memos, ``lru_cache`` tables), plus every plain container, string,
    bytes or number, and every object of its third-party packages,
    reachable from them without passing through another layer's objects.
    Each object is counted once.
    """
    gc.collect()
    pending: list[tuple[Any, str]] = []
    for obj in gc.get_objects():
        if isinstance(obj, types.ModuleType):
            layer = _memory_owner(obj.__name__)
            if layer is not None:
                pending.append((vars(obj), layer))
        elif not isinstance(obj, _NOT_DATA):
            layer = _memory_owner(type(obj).__module__)
            if layer is not None:
                pending.append((obj, layer))
    held = dict.fromkeys(MEMORY_OWNERS, 0)
    seen: set[int] = set()
    while pending:
        obj, layer = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        held[layer] += sys.getsizeof(obj)
        foreign = MEMORY_OWNERS[layer][1]
        for ref in gc.get_referents(obj):
            if id(ref) in seen or isinstance(ref, _NOT_DATA):
                continue
            module = type(ref).__module__
            if (
                module in ("builtins", "functools")
                or _memory_owner(module) == layer
                or module.split(".")[0] in foreign
            ):
                pending.append((ref, layer))
    return {layer: size / (1024.0 * 1024.0) for layer, size in held.items()}


#: Iterations of the reference loop: about 5-10 ms on a 2-vCPU VM.
REF_ITERATIONS = 50_000
#: Host seconds between two timings of the reference loop.
REF_PERIOD_S = 0.2
#: The reference loop's duration on the host the benchmark's figures are
#: quoted for (a 2-vCPU Xeon VM, median over its quiet and busy phases).
#: Calibrated runs report host seconds scaled to this speed.
REF_HOST_S = 0.008


def reference_loop() -> int:
    """A fixed slice of interpreter work whose duration tracks host speed."""
    total = 0
    table: dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        total += i * i % 7
        table[i % 1000] = total
    return total


class HostClock:
    """Set-up and run host seconds, split at each ``Simulator.run``.

    With ``calibrate`` the clock also times :func:`reference_loop` every
    :data:`REF_PERIOD_S` host seconds while the workload runs (from a
    ``gc.callbacks`` hook, the one frequent call point the library offers
    without patching), and every reading leaves out the time spent there.
    The host runs the reference and the workload at the same speed, so
    :attr:`scale` (``REF_HOST_S / ref_s``) times host seconds cancels the
    host's own drift: on a host as fast as the reference it is 1.  Each
    set-up phase is also timed against the reference at its start and
    end, and scaled by its own timings (:attr:`scaled_setup_s`).
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.setup_s = 0.0
        #: Set-up seconds scaled to the reference host.
        self.scaled_setup_s = 0.0
        self.run_s = 0.0
        self.ref_samples: list[float] = []
        self._setup_samples_from = 0
        self._setup_from: Optional[float] = None
        self._calibrate = calibrate
        self._ref_spent = 0.0
        self._next_ref = 0.0

    @property
    def in_setup(self) -> bool:
        return self._setup_from is not None

    @property
    def ref_s(self) -> float:
        """Mean host seconds of one reference loop during the run."""
        return sum(self.ref_samples) / len(self.ref_samples)

    @property
    def scale(self) -> float:
        """Factor from this run's host seconds to reference-host seconds."""
        return REF_HOST_S / self.ref_s if self.ref_samples else 1.0

    def now(self) -> float:
        """Host seconds, less the time spent timing the reference loop."""
        return _clock() - self._ref_spent

    def sample_reference(self) -> None:
        t0 = _clock()
        reference_loop()
        t1 = _clock()
        self.ref_samples.append(t1 - t0)
        self._ref_spent += t1 - t0
        self._next_ref = t1 + REF_PERIOD_S

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and _clock() >= self._next_ref:
            self.sample_reference()

    def setup_begins(self) -> None:
        """A new deployment starts; set-up runs until its first run()."""
        if self._calibrate:
            self._setup_samples_from = len(self.ref_samples)
            self.sample_reference()
        self._setup_from = self.now()

    def _setup_ends(self) -> None:
        phase = self.now() - self._setup_from
        self._setup_from = None
        self.setup_s += phase
        if not self._calibrate:
            self.scaled_setup_s += phase
            return
        # A set-up phase is short, so it is scaled by the reference
        # timings taken at its start, within it and at its end.
        self.sample_reference()
        local = self.ref_samples[self._setup_samples_from:]
        self.scaled_setup_s += phase * REF_HOST_S * len(local) / sum(local)

    def install(self) -> None:
        from repro.simnet.kernel import Simulator

        run = Simulator.run

        @functools.wraps(run)
        def timed_run(sim, *args, **kwargs):
            if self._setup_from is not None:
                self._setup_ends()
            t0 = self.now()
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.run_s += self.now() - t0

        Simulator.run = timed_run
        if self._calibrate:
            self.sample_reference()
            gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        """End calibration with one last reference timing."""
        if self._calibrate:
            gc.callbacks.remove(self._on_gc)
            self.sample_reference()


class Ledger:
    """Per-layer calls and self seconds, plus the layers' own counters."""

    def __init__(self, clock: HostClock, modules: Iterable) -> None:
        self.host = clock
        self.modules = list(modules)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Self seconds spent while a deployment was still being set up.
        self.setup_self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._originals: list[Any] = []
        self._wrappers: set[int] = set()
        self._route_seen: dict[int, set] = {}
        self._encodes_seen = 0.0

    # ------------------------------------------------------------ wrappers
    def _span(self, layer: str, fn: Callable, after: Optional[Callable]) -> Callable:
        stack = self._stack
        calls, self_s, setup_self_s = self.calls, self.self_s, self.setup_self_s
        host = self.host

        @functools.wraps(fn)
        def span(*args, **kwargs):
            # A layer calling itself (recursion, one public function using
            # another) stays inside the outer span.
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            result = error = None
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                duration = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                calls[layer] += 1
                self_s[layer] += own
                if host.in_setup:
                    setup_self_s[layer] += own
                if after is not None:
                    after(args, result, error, duration)

        return span

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        """Replace ``owner.name`` and every module binding of the same object."""
        original = getattr(owner, name)
        self._originals.append(original)
        self._wrappers.add(id(wrapper))
        setattr(owner, name, wrapper)
        if inspect.isclass(owner):
            return
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def wrap(
        self, layer: str, owner: Any, names: Optional[Iterable[str]] = None,
        after: Optional[dict[str, Callable]] = None,
    ) -> None:
        """Span-wrap ``owner``'s public functions (a module's or a class's)."""
        home = owner.__name__ if inspect.ismodule(owner) else owner.__module__
        wanted = set(names) if names is not None else None
        for name, fn in _plain_functions(vars(owner), home):
            if (wanted is None or name in wanted) and id(fn) not in self._wrappers:
                hook = (after or {}).get(name)
                self._patch(owner, name, self._span(layer, fn, hook))

    def wrap_classes(self, layer: str, module: Any) -> None:
        """Every public method of every public class defined in ``module``."""
        for name, cls in list(vars(module).items()):
            if (
                inspect.isclass(cls)
                and not name.startswith("_")
                and cls.__module__ == module.__name__
            ):
                self.wrap(layer, cls)

    def _observe(self, owner: Any, name: str, hook: Callable) -> None:
        """Run ``hook`` after every call of ``owner.name``, nested or not.

        Installed before the span wrappers, so it sits inside them and also
        sees the calls a layer makes to itself, which spans pass through.
        """
        fn = vars(owner).get(name)
        if fn is None or not inspect.isfunction(fn):
            return

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = error = None
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                hook(args, result, error, _clock() - t0)

        self._patch(owner, name, observed)
        self._wrappers.discard(id(observed))

    def _counter(self, key: str) -> Callable:
        def hook(args, result, error, duration) -> None:
            self.counts[key] += 1
        return hook

    # ------------------------------------------------------------ counters
    def _on_route(self, args, result, error, duration) -> None:
        network, src, dst = args[0], args[1], args[2]
        if src == dst:
            return
        seen = self._route_seen.setdefault(id(network), set())
        if (src, dst) not in seen:
            # Distinct pairs routed since the last topology change: the
            # computations any route cache that is flushed on topology
            # change has to make.
            self.counts["simnet.topology.route_misses"] += 1
            if error is None:
                seen.add((src, dst))

    def _on_topology_change(self, args, result, error, duration) -> None:
        self.counts["simnet.topology.topology_changes"] += 1
        self._route_seen.pop(id(args[0]), None)

    def _on_compress(self, args, result, error, duration) -> None:
        counts = self.counts
        counts["compressor.compress_calls"] += 1
        if counts["compressor.encodes"] != self._encodes_seen:
            counts["compressor.memo_misses"] += 1
            self._encodes_seen = counts["compressor.encodes"]
        if error is None:
            counts["compressor.bytes_in"] += len(args[0])
            counts["compressor.bytes_out"] += len(result)

    def _bytes_out(self, counter: str) -> Callable:
        def hook(args, result, error, duration) -> None:
            if error is None:
                self.counts[counter] += len(result)
        return hook

    def _bytes_in(self, counter: str) -> Callable:
        def hook(args, result, error, duration) -> None:
            self.counts[counter] += len(args[0])
        return hook

    def _on_keygen(self, args, result, error, duration) -> None:
        self.counts["crypto.keygen_calls"] += 1
        self.counts["crypto.keygen_s"] += duration

    def _on_admit(self, args, result, error, duration) -> None:
        self.counts["core.admission.attempts"] += 1
        if type(error).__name__ == "GatewayOverloadedError":
            self.counts["core.admission.sheds"] += 1

    def _on_start_span(self, args, result, error, duration) -> None:
        self.counts["telemetry.spans"] += 1

    # ------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap every layer's public functions (after :meth:`HostClock.install`)."""
        mod = importlib.import_module
        api = mod("repro.compressor.api")
        rsa = mod("repro.crypto.rsa")
        Network = mod("repro.simnet.topology").Network
        changes = ("add_link", "remove_link", "update_link_spec", "set_link_state")

        # Observers first, so the span wrappers below enclose them.
        self._observe(Network, "route", self._on_route)
        for name in changes:
            self._observe(Network, name, self._on_topology_change)
        self._observe(rsa, "generate_keypair", self._on_keygen)
        for name in api.codec_names():
            codec_cls = type(api.get_codec(name))
            self._observe(codec_cls, "encode", self._counter("compressor.encodes"))
            self._observe(codec_cls, "decode", self._counter("compressor.decodes"))

        self.wrap("simnet.topology", Network, ("route", "path_links") + changes)
        self.wrap("compressor", api, ("compress", "decompress"),
                  after={"compress": self._on_compress})
        xml_out, xml_in = self._bytes_out("xmlcodec.bytes"), self._bytes_in("xmlcodec.bytes")
        self.wrap("xmlcodec", mod("repro.xmlcodec.writer"), ("write", "write_bytes"),
                  after={"write": xml_out, "write_bytes": xml_out})
        self.wrap("xmlcodec", mod("repro.xmlcodec.parser"), ("parse", "parse_bytes"),
                  after={"parse": xml_in, "parse_bytes": xml_in})
        self.wrap("mas.serializer", mod("repro.mas.serializer"), after={
            "serialize_agent": self._bytes_out("mas.serializer.bytes"),
            "deserialize_agent": self._bytes_in("mas.serializer.bytes"),
        })
        for name in ("rsa", "envelope", "md5", "keys"):
            self.wrap("crypto", mod(f"repro.crypto.{name}"))
        self.wrap("core.packed_info", mod("repro.core.packed_info"))
        admission = mod("repro.core.admission")
        self.wrap("core.admission", admission.AdmissionController, ("try_admit",),
                  after={"try_admit": self._on_admit})
        self.wrap_classes("core.admission", admission)
        storage = mod("repro.core.storage")
        self.wrap_classes("core.storage", storage)
        self.wrap("core.storage", storage)
        self.wrap("core.deployment", mod("repro.core.deployment").DeploymentBuilder)
        spans = mod("repro.telemetry.spans")
        self.wrap("telemetry", spans.Telemetry, ("start_span",),
                  after={"start_span": self._on_start_span})
        self.wrap_classes("telemetry", spans)
        self.wrap_classes("telemetry", mod("repro.telemetry.metrics"))
        exporters = mod("repro.telemetry.exporters")
        self.wrap("telemetry.exporters", exporters)
        self.wrap_classes("telemetry.exporters", exporters)
        self.wrap("simtest.invariants", mod("repro.simtest.invariants"), ("check_all",))
        self.wrap("simnet.kernel", mod("repro.simnet.kernel").Simulator, ("run",))

    def unpatched(self) -> list[str]:
        """Module attributes still bound to an unwrapped layer function."""
        originals = {id(fn) for fn in self._originals}
        return [
            f"{module.__name__}.{attr}"
            for module in self.modules
            for attr, value in vars(module).items()
            if id(value) in originals
        ]
