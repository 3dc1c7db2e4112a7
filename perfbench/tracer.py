"""Per-layer call tracing for the benchmark, done from outside kgmon.

A traced function is wrapped at every attribute of a loaded ``kgmon``
module that holds it, so ``build_graph`` is traced whether ``extract``,
``graph`` or ``llm`` calls it. A function that no longer exists is
reported absent instead of failing the run. Spans are kept in memory:
per name and phase, the call count, the inclusive seconds and the self
seconds (inclusive minus the time of traced calls made inside it).
"""

import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


def rebind(fn, replacement, owner=None, attr=None) -> list[tuple[object, str, object]]:
    """Point every loaded kgmon module attribute bound to `fn`, and
    `owner.attr` when given, at `replacement`. Returns the undo list."""
    targets = [] if owner is None else [(owner, attr)]
    for name, mod in list(sys.modules.items()):
        if name.startswith("kgmon") and mod is not owner:
            targets.extend((mod, key) for key, value in list(vars(mod).items()) if value is fn)
    undo = [(obj, key, getattr(obj, key)) for obj, key in targets]
    for obj, key in targets:
        setattr(obj, key, replacement)
    return undo


def undo(changes: list[tuple[object, str, object]]) -> None:
    for obj, key, value in reversed(changes):
        setattr(obj, key, value)


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        # (phase, name) -> Stat
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # child seconds per open span
        self._active: Counter = Counter()  # open calls per guard group
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _close(self, key: tuple[str, str], frame: list[float], seconds: float) -> None:
        stat = self.stats[key]
        stat.calls += 1
        stat.seconds += seconds
        stat.self_seconds += seconds - frame[0]
        if self._stack:
            self._stack[-1][0] += seconds

    def root(self, name: str, fn, *args):
        """Run `fn(*args)` as a span of its own; returns (result, seconds)."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
            self._close((self.phase, name), frame, seconds)
        return result, seconds

    def _wrap(self, name: str, fn, on_result, group: str | None, cycle_alias: str | None):
        tracer = self
        guard = group or name

        def traced(*args, **kwargs):
            if tracer._active[guard]:
                # Nested call inside the same group: the outer call owns it.
                return fn(*args, **kwargs)
            tracer._active[guard] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                tracer._stack.pop()
                tracer._active[guard] -= 1
                tracer._close((tracer.phase, name), frame, seconds)
                if cycle_alias and tracer.phase == "cycle":
                    alias = tracer.stats[("cycle", cycle_alias)]
                    alias.calls += 1
                    alias.seconds += seconds
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def patch(
        self,
        name: str,
        home: str,
        attr: str,
        on_result=None,
        group: str | None = None,
        cycle_alias: str | None = None,
    ) -> None:
        """Trace `home.attr` (``Class.method`` allowed) under `name`.

        Every loaded kgmon module attribute bound to the same function is
        replaced, so callers that imported the name see the wrapper too.
        A name that does not exist is recorded in `absent`.
        """
        try:
            owner = importlib.import_module(home)
        except ImportError:
            owner = None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None or not callable(fn):
            self.absent.append(name)
            return
        wrapper = self._wrap(name, fn, on_result, group, cycle_alias)
        if path:  # a method: only its class holds it
            self._undo.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper)
        else:
            self._undo.extend(rebind(fn, wrapper, owner, leaf))

    def restore(self) -> None:
        undo(self._undo)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def total(self, name: str, phases: tuple[str, ...] | None = None) -> Stat:
        out = Stat()
        for (phase, key), stat in self.stats.items():
            if key == name and (phases is None or phase in phases):
                out.calls += stat.calls
                out.seconds += stat.seconds
                out.self_seconds += stat.self_seconds
        return out
