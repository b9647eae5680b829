"""Per-layer host-time attribution for a traced replay.

``install(ledger)`` wraps the public entry points of every module of
each layer in :data:`LAYERS` with ``perf_counter`` accumulators, from
outside the program: module functions and the public methods (plus
``__init__``) of classes defined in the layer's modules.  Generator
entry points (``Invoker.invoke``, sandbox verbs, XPU-Shim calls) are
timed per resume, and every simulation process is timed per resume and
charged to the layer of the module its generator comes from.  The sim
layer is ``Simulator.run`` alone, so its self time is the kernel loop
minus the process resumes inside it; calls other layers make into the
kernel (``sim.timeout()``, ``event.succeed()``) are charged to them.

Accounting is by self time over a stack of active layers: entering a
wrapper charges the elapsed time to the layer on top of the stack,
leaving one charges it to the layer being left.  Time with no wrapper
active, and resumes of processes whose generator lives outside every
layer, go to :data:`UNATTRIBUTED`.  The charges therefore add up to the
wall time of the window exactly, which :meth:`Ledger.stop` reports.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
from time import perf_counter

UNATTRIBUTED = "unattributed"

#: Layer name -> module prefixes under ``src/repro``.  ``obs`` includes
#: ``analysis.trace``, the request-trace objects observability records
#: into.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim",),
    "core.invoker": ("repro.core.invoker",),
    "core.scheduler": ("repro.core.scheduler",),
    "core.keepalive": ("repro.core.keepalive",),
    "core.gateway": ("repro.core.gateway",),
    "core.reliability": ("repro.core.reliability",),
    "core.billing": ("repro.core.billing",),
    "sandbox": ("repro.sandbox",),
    "xpu": ("repro.xpu",),
    "obs": ("repro.obs", "repro.analysis.trace"),
    "loadgen.arrivals": ("repro.loadgen.arrivals",),
    "loadgen.driver": ("repro.loadgen.driver",),
    "loadgen.sharding": ("repro.loadgen.sharding",),
    "loadgen.slo": ("repro.loadgen.slo",),
    "overload": ("repro.overload",),
    "hedging": ("repro.hedging",),
    "warmpath": ("repro.warmpath",),
    "reuse": ("repro.reuse",),
    "futures": ("repro.futures",),
    "faults": ("repro.faults",),
}


def layer_of_module(name: str) -> str:
    """The layer a ``repro`` module belongs to, or UNATTRIBUTED."""
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if name == prefix or name.startswith(prefix + "."):
                return layer
    return UNATTRIBUTED


class Ledger:
    """Self time and call counts per layer over one measured window."""

    def __init__(self) -> None:
        self.names = tuple(LAYERS) + (UNATTRIBUTED,)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.calls = dict.fromkeys(self.names, 0)
        #: Generator resumes charged to each layer (processes included).
        self.resumes = dict.fromkeys(self.names, 0)
        self._stack: list[str] = []
        # [current layer, time of the last charge]
        self._state = [UNATTRIBUTED, perf_counter()]
        self.enter, self.leave = self._make_hooks()

    def _make_hooks(self):
        self_s = self.self_s
        stack = self._stack
        state = self._state
        push = stack.append
        pop = stack.pop

        def enter(layer: str) -> None:
            now = perf_counter()
            current = state[0]
            self_s[current] += now - state[1]
            push(current)
            state[0] = layer
            state[1] = now

        def leave() -> None:
            now = perf_counter()
            self_s[state[0]] += now - state[1]
            state[0] = pop()
            state[1] = now

        return enter, leave

    def start(self, now: float) -> None:
        """Open the window: zero every accumulator at ``now``."""
        if self._stack:
            raise RuntimeError(f"ledger opened inside layers {self._stack}")
        for name in self.names:
            self.self_s[name] = 0.0
            self.calls[name] = 0
            self.resumes[name] = 0
        self._state[0] = UNATTRIBUTED
        self._state[1] = now

    def stop(self, now: float) -> tuple[dict, dict, dict]:
        """Close the window at ``now``; returns copies of
        (self_s, calls, resumes)."""
        if self._stack:
            raise RuntimeError(f"ledger closed inside layers {self._stack}")
        self.self_s[self._state[0]] += now - self._state[1]
        self._state[1] = now
        return dict(self.self_s), dict(self.calls), dict(self.resumes)


def _timed_generator(gen, layer, enter, leave, resumes):
    """Drive ``gen``, charging each resume to ``layer``.

    The yielded event is handed out without a local reference and the
    sent value is dropped once delivered: the kernel recycles events
    whose reference count shows no other holder, and a wrapper that
    kept them alive would change its slab statistics.
    """
    send = gen.send
    throw = gen.throw
    box: list = []
    value = None
    error = None
    while True:
        resumes[layer] += 1
        enter(layer)
        try:
            if error is None:
                box.append(send(value))
            else:
                box.append(throw(error))
        except StopIteration as stop:
            leave()
            return stop.value
        except BaseException:
            leave()
            raise
        leave()
        value = error = None
        try:
            value = yield box.pop()
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            error = exc


_TIMED_CODE = _timed_generator.__code__


def _timed(gen, layer, ledger):
    timed = _timed_generator(
        gen, layer, ledger.enter, ledger.leave, ledger.resumes
    )
    timed.__name__ = gen.__name__
    timed.__qualname__ = gen.__qualname__
    return timed


def _wrap(fn, layer: str, ledger: Ledger):
    calls = ledger.calls
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator_entry(*args, **kwargs):
            calls[layer] += 1
            return _timed(fn(*args, **kwargs), layer, ledger)

        return generator_entry
    enter = ledger.enter
    leave = ledger.leave

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        calls[layer] += 1
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return entry


def _is_entry(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


def _skip_class(cls: type) -> bool:
    return issubclass(cls, (BaseException, enum.Enum, tuple))


class Installation:
    """The patches one :func:`install` made, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def _repro_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


def install(ledger: Ledger) -> Installation:
    """Wrap every layer's entry points; returns the undo handle."""
    from repro.sim.core import Process, Simulator

    done = Installation()
    modules = _repro_modules()
    layer_of_file = {
        getattr(module, "__file__", None): layer_of_module(module.__name__)
        for module in modules
    }
    wrapped_functions: dict[int, object] = {}
    for module in modules:
        layer = layer_of_module(module.__name__)
        if layer in (UNATTRIBUTED, "sim"):
            continue
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and _is_entry(name):
                wrapped_functions[id(obj)] = _wrap(obj, layer, ledger)
            elif inspect.isclass(obj) and not _skip_class(obj):
                _wrap_class(obj, layer, ledger, done)
    # Module functions are bound by name wherever they were imported.
    for module in modules:
        namespace = vars(module)
        for name, obj in list(namespace.items()):
            wrapper = wrapped_functions.get(id(obj))
            if wrapper is not None and inspect.isfunction(obj):
                done.patch(module, name, wrapper)

    done.patch(Simulator, "run", _wrap(Simulator.run, "sim", ledger))
    original_init = Process.__init__
    code_layers: dict[object, str] = {}

    def process_init(self, sim, generator, name=""):
        code = getattr(generator, "gi_code", None)
        if code is not None and code is not _TIMED_CODE:
            layer = code_layers.get(code)
            if layer is None:
                layer = layer_of_file.get(code.co_filename, UNATTRIBUTED)
                code_layers[code] = layer
            generator = _timed(generator, layer, ledger)
        original_init(self, sim, generator, name)

    done.patch(Process, "__init__", process_init)
    return done


def _wrap_class(cls: type, layer: str, ledger: Ledger, done: Installation):
    for name, attr in list(vars(cls).items()):
        fn = getattr(attr, "__func__", attr)
        if not _is_entry(name) or getattr(fn, "__module__", None) != cls.__module__:
            continue
        if isinstance(attr, (staticmethod, classmethod)):
            done.patch(cls, name, type(attr)(_wrap(fn, layer, ledger)))
        elif inspect.isfunction(attr):
            done.patch(cls, name, _wrap(attr, layer, ledger))
