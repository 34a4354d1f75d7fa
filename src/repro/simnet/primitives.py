"""Core event primitives for the discrete-event kernel.

The kernel (:mod:`repro.simnet.kernel`) executes *processes* — Python
generators that ``yield`` :class:`Event` objects.  An event is a one-shot
synchronisation point: it starts *pending*, is *triggered* exactly once with a
value (success) or an exception (failure), and is then *processed* by the
kernel, which resumes every process waiting on it.

This mirrors the SimPy event model, rebuilt from scratch so the simulator has
no third-party runtime dependency and so tests can assert exact scheduling
semantics.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .kernel import Simulator

__all__ = [
    "PENDING",
    "EventState",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "InterruptException",
    "Condition",
    "AllOf",
    "AnyOf",
]


class _PendingType:
    """Sentinel for "this event has no value yet"."""

    _instance: Optional["_PendingType"] = None

    def __new__(cls) -> "_PendingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _PendingType()


class EventState(enum.Enum):
    """Lifecycle of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


class Event:
    """A one-shot occurrence processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator.  Events may only be shared between processes of
        the same simulator.
    """

    __slots__ = ("sim", "_value", "_ok", "_state", "_callbacks", "__weakref__")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = PENDING
        self._ok: bool = True
        self._state = EventState.PENDING
        self._callbacks: list[Callable[["Event"], None]] = []

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._state is not EventState.PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self._state is EventState.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state is not EventState.PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = EventState.TRIGGERED
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process sees the exception raised at its ``yield``.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._state is not EventState.PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._state = EventState.TRIGGERED
        self.sim._schedule_event(self)
        return self

    def trigger(self, other: "Event") -> None:
        """Mirror another (already triggered) event's outcome onto this one."""
        if other._value is PENDING:
            raise RuntimeError("cannot mirror a pending event")
        if other._ok:
            self.succeed(other._value)
        else:
            self.fail(other._value)

    # -- callbacks ---------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event is already processed the callback runs immediately.
        """
        if self._state is EventState.PROCESSED:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks; invoked by the kernel exactly once."""
        self._state = EventState.PROCESSED
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __iter__(self):
        """Support ``yield from event`` as well as ``yield event``.

        Both forms resume with the event's value, so protocol code can
        compose events and sub-processes uniformly.
        """
        value = yield self
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state.value}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0 or delay != delay:  # rejects negatives and NaN
            raise ValueError(f"invalid timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = EventState.TRIGGERED
        sim._schedule_event(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout delay={self.delay}>"


class InterruptException(Exception):
    """Raised inside a process that has been interrupted.

    ``cause`` carries the value passed to :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Interrupt(Event):
    """Internal event used to deliver an interrupt to a process."""

    __slots__ = ()


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The process event succeeds with the generator's return value
    (``StopIteration.value``) or fails with the uncaught exception.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current time.
        start = Event(sim)
        start._ok = True
        start._value = None
        start._state = EventState.TRIGGERED
        start.add_callback(self._resume)
        sim._schedule_event(start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process: raise :class:`InterruptException` inside it.

        Interrupting a finished process is an error; interrupting a process
        that is about to be resumed anyway delivers the interrupt first.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated; cannot interrupt")
        if self._target is None:
            raise RuntimeError(f"{self!r} is being initialised; cannot interrupt")
        event = Interrupt(self.sim)
        event._ok = False
        event._value = InterruptException(cause)
        event._state = EventState.TRIGGERED
        event._callbacks.append(self._resume)
        self.sim._schedule_event(event, priority=True)

    # -- kernel plumbing ----------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger event's outcome."""
        # An interrupt may arrive after the process already terminated on its
        # own; in that case there is nothing to resume.
        if not self.is_alive:
            return
        # Detach from the event we were waiting on (relevant for interrupts:
        # the original target may still fire later and must not resume us).
        if self._target is not None and trigger is not self._target:
            try:
                self._target._callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        try:
            if trigger._ok:
                next_event = self._generator.send(trigger._value)
            else:
                exc = trigger._value
                next_event = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except InterruptException as exc:
            # An interrupt escaping the generator terminates the process with
            # failure semantics so waiters see the cause.
            self.fail(exc)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            self._generator.throw(
                TypeError(f"process yielded non-event {next_event!r}")
            )
            raise AssertionError("unreachable")  # pragma: no cover
        if next_event.sim is not self.sim:
            raise RuntimeError("event belongs to a different simulator")
        self._target = next_event
        next_event.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Condition(Event):
    """Composite event over several child events.

    Succeeds when ``evaluate(children, n_triggered_ok)`` returns True; fails
    as soon as any child fails.  The success value is a dict mapping each
    *triggered* child event to its value, in trigger order.
    """

    __slots__ = ("_children", "_evaluate", "_n_ok", "_results")

    def __init__(
        self,
        sim: "Simulator",
        children: Iterable[Event],
        evaluate: Callable[[list[Event], int], bool],
    ) -> None:
        super().__init__(sim)
        self._children = list(children)
        self._evaluate = evaluate
        self._n_ok = 0
        self._results: dict[Event, Any] = {}
        for child in self._children:
            if child.sim is not sim:
                raise RuntimeError("child event belongs to a different simulator")
        if not self._children and evaluate(self._children, 0):
            self.succeed({})
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._n_ok += 1
        self._results[child] = child._value
        if self._evaluate(self._children, self._n_ok):
            self.succeed(dict(self._results))


def _all_events(children: list[Event], n_ok: int) -> bool:
    return n_ok == len(children)


def _any_event(children: list[Event], n_ok: int) -> bool:
    return n_ok > 0 or not children


class AllOf(Condition):
    """Fires when every child event has succeeded."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", children: Iterable[Event]) -> None:
        super().__init__(sim, children, _all_events)


class AnyOf(Condition):
    """Fires when the first child event succeeds."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", children: Iterable[Event]) -> None:
        super().__init__(sim, children, _any_event)
