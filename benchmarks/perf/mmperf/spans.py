"""Per-layer spans recorded from outside the program under test.

The traced benchmark run replaces public functions of ``repro.*`` with
wrappers that time each call and restores them afterwards; nothing in
``src/`` knows it is being measured.  Accounting is online — one open
span per stack entry, each accumulating the time its children took — so
a run with millions of spans keeps a few integers per layer, not a span
log.  A layer's **self time** is its spans' duration minus the part
their child spans cover, minus the wrappers' own calibrated cost:

* ``inner_ns`` — wrapper time that falls *inside* a span's own
  measured interval (charged to that span, so subtracted from it);
* ``outer_ns`` — wrapper time *around* the interval (it lands in the
  parent's interval, so the parent is credited as if the child had
  lasted that much longer);
* ``count_ns`` — cost of a count-only wrapper, credited the same way.

Coroutine functions are booked one resumption at a time: the time a
task spends suspended at an ``await`` belongs to whatever ran
meanwhile, not to the span that was waiting.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable

#: Spans kept for export when a trace sink is attached; later ones are
#: still accounted, only not written out.
EXPORT_CAP = 100_000


class SpanRecorder:
    """Call counts and self times per layer, with undoable patching."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        #: Count-only wrappers and tallies, by key.
        self.calls: dict[str, int] = {}
        #: Spanned calls, by ``"layer:function"``.
        self.function_calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.inner_ns = 0
        self.outer_ns = 0
        self.count_ns = 0
        #: A ``repro.obs.trace.Tracer`` receiving one span per booking
        #: (set before :meth:`install`; ``None`` keeps accounting only).
        self.sink = None
        self.exported = 0
        #: Total duration of spans that had no span open around them.
        self.top_ns = 0
        self.origin_ns = clock()
        self._clock = clock
        self._open: list[int] = []  # child ns per open span, innermost last
        self._owners: list[int] = []  # validator per open span (export only)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_seconds(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def layer_calls(self, layer: str) -> int:
        prefix = layer + ":"
        return sum(n for key, n in self.function_calls.items() if key.startswith(prefix))

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _book(self, layer: str, name: str, start: int) -> None:
        """Close the innermost span (opened at ``start``)."""
        duration = self._clock() - start
        child = self._open.pop()
        self.self_ns[layer] += duration - child - self.inner_ns
        if self._open:
            self._open[-1] += duration + self.outer_ns
        else:
            self.top_ns += duration
        if self.sink is not None:
            owner = self._owners.pop()
            if self.exported < EXPORT_CAP:
                self.exported += 1
                begin = (start - self.origin_ns) / 1e9
                self.sink.span(owner, layer, name, begin, begin + duration / 1e9)

    def _enter(self, args: tuple) -> None:
        self._open.append(0)
        if self.sink is not None:
            owner = getattr(args[0], "authority", None) if args else None
            if not isinstance(owner, int):
                owner = self._owners[-1] if self._owners else -1
            self._owners.append(owner)

    def span(self, fn: Callable, layer: str, name: str, tally=None) -> Callable:
        """Wrap ``fn`` so each call is one span of ``layer``.

        ``tally`` is an optional ``(key, predicate)``: calls whose
        result satisfies the predicate are counted under ``key``.
        """
        key = f"{layer}:{name}"
        self.function_calls.setdefault(key, 0)
        self.self_ns.setdefault(layer, 0)
        calls = self.function_calls
        enter, book, clock = self._enter, self._book, self._clock
        if inspect.iscoroutinefunction(fn):

            async def traced(*args, **kwargs):
                calls[key] += 1
                return await _Sliced(fn(*args, **kwargs), self, layer, name, args)

        else:
            tally_key, predicate = tally or (None, None)
            tallies = self.calls
            if tally_key is not None:
                tallies.setdefault(tally_key, 0)

            def traced(*args, **kwargs):
                calls[key] += 1
                enter(args)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    book(layer, name, start)
                if predicate is not None and predicate(result):
                    tallies[tally_key] += 1
                return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn: Callable, key: str) -> Callable:
        """Wrap a tiny hot function: calls are counted, not timed."""
        self.calls.setdefault(key, 0)
        calls, open_ = self.calls, self._open

        def counted(*args, **kwargs):
            calls[key] += 1
            if open_:
                open_[-1] += self.count_ns
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_attribute(self, owner: object, name: str, wrap: Callable[[Callable], Callable]):
        """Replace ``owner.name`` (a class or module attribute) with
        ``wrap(original)``; class/static methods keep their descriptor.
        For a class the attribute is patched where the MRO defines it."""
        if inspect.isclass(owner):
            owner = next(cls for cls in owner.__mro__ if name in vars(cls))
        raw = vars(owner)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._patches.append((owner, name, raw))
        setattr(owner, name, replacement)

    def patch_function(self, module_name: str, name: str, wrap: Callable[[Callable], Callable]):
        """Replace a module-level function in every loaded ``repro``
        module that holds a reference to it (``from x import f`` binds
        the name in the importer, so patching the home module alone
        would miss those call sites)."""
        original = getattr(importlib.import_module(module_name), name)
        replacement = wrap(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute to the identical original."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, rounds: int = 5, n: int = 20_000) -> None:
        """Measure the wrappers' own cost on a no-op (best of ``rounds``).

        Sets ``inner_ns``/``outer_ns``/``count_ns``; must run with no
        span open and leaves no trace in the tables.
        """
        self.inner_ns = self.outer_ns = self.count_ns = 0

        def noop():
            return None

        spanned = self.span(noop, "harness.calib", "noop")
        counted = self.count(noop, "harness.calib.count")
        clock = self._clock

        def per_call(fn) -> float:
            start = clock()
            for _ in range(n):
                fn()
            return (clock() - start) / n

        sink, self.sink = self.sink, None
        best = [float("inf")] * 3
        for _ in range(rounds):
            bare = per_call(noop)
            self.self_ns["harness.calib"] = 0
            total = per_call(spanned) - bare
            inner = self.self_ns["harness.calib"] / n
            best = [min(a, b) for a, b in zip(best, (total, inner, per_call(counted) - bare))]
        self.sink = sink
        total, inner, count = (max(0.0, value) for value in best)
        self.inner_ns = round(min(inner, total))
        self.outer_ns = round(total) - self.inner_ns
        self.count_ns = round(count)
        self.function_calls.pop("harness.calib:noop")
        self.self_ns.pop("harness.calib")
        self.calls.pop("harness.calib.count")
        self.top_ns = 0


class _Sliced:
    """Drives a coroutine, booking each resumption as one span."""

    __slots__ = ("_coro", "_recorder", "_layer", "_name", "_args")

    def __init__(self, coro, recorder: SpanRecorder, layer: str, name: str, args: tuple) -> None:
        self._coro = coro
        self._recorder = recorder
        self._layer = layer
        self._name = name
        self._args = args

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._coro.send, None)

    def send(self, value):
        return self._step(self._coro.send, value)

    def throw(self, *exc_info):
        return self._step(self._coro.throw, *exc_info)

    def close(self) -> None:
        self._coro.close()

    def _step(self, resume, *args):
        recorder = self._recorder
        recorder._enter(self._args)
        start = recorder._clock()
        try:
            return resume(*args)
        finally:
            recorder._book(self._layer, self._name, start)
