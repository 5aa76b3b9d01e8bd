"""Runtime span tracer for the spinreset package, installed from outside.

The tracer replaces named functions and methods of the already imported
package with timing wrappers and puts the originals back on uninstall.
Nothing under src/ is edited.  A module-level function is usually bound
in several modules (``from .observables import lqu`` copies the name), so
every binding in a loaded ``spinreset`` module that is the original
object is replaced, not only the defining one.

Spans are kept per thread (the sweep row pool runs on threads) and
merged when the tracer is uninstalled.  A span's self time is its
duration minus the time of traced spans it directly encloses, measured
in the same thread.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "spinreset"
_MARK = "__perfbench_wrapped__"


class TraceTargetError(RuntimeError):
    """A traced name no longer resolves to a callable in the package."""


@dataclass
class Target:
    """One traced callable.

    path is ``module:attr.attr``; name is the span name.  Targets sharing
    a name form one span group whose inclusive time counts only the
    outermost active call.  extra(args, kwargs, result, seconds) returns
    counters to add to the span's stats; cpu records thread CPU time too.
    """

    path: str
    name: str
    extra: Optional[Callable] = None
    cpu: bool = False


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0        # inclusive, outermost call of the group only
    self_s: float = 0.0
    cpu_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def merge(self, other: "SpanStats"):
        self.calls += other.calls
        self.s += other.s
        self.self_s += other.self_s
        self.cpu_s += other.cpu_s
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v


def resolve(path: str):
    """(owner, attr, object) for ``module:attr.attr``; raises when missing."""
    mod_name, _, dotted = path.partition(":")
    mod = sys.modules.get(mod_name)
    if mod is None:
        raise TraceTargetError(f"{path}: module {mod_name} is not imported")
    owner = mod
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetError(f"{path}: {part} does not exist")
    attr = parts[-1]
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if obj is None or not callable(obj):
        raise TraceTargetError(f"{path}: not a callable in the package")
    if getattr(obj, _MARK, False):
        raise TraceTargetError(f"{path}: already wrapped")
    return owner, attr, obj


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _package_wrappers():
    """Names in the package (module globals and class attributes) still wrapped."""
    found = []
    for mod in package_modules():
        for attr, val in vars(mod).items():
            if getattr(val, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{attr}.{cattr}"
                             for cattr, cval in vars(val).items() if getattr(cval, _MARK, False))
    return found


class Tracer:
    def __init__(self, targets=()):
        self.targets = list(targets)
        self._local = threading.local()
        self._thread_stats = []
        self._lock = threading.Lock()
        self._patches = []  # (owner, attr, original), undone in reverse

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = ([], {}, {})  # span stack, stats by name, active depth by name
            self._local.state = st
            with self._lock:
                self._thread_stats.append(st[1])
        return st

    def _wrap(self, target: Target, fn):
        tracer = self
        name, extra, cpu = target.name, target.extra, target.cpu
        clock = time.perf_counter
        thread_clock = time.thread_time

        def wrapper(*args, **kwargs):
            stack, stats, depth = tracer._state()
            frame = [0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            c0 = thread_clock() if cpu else 0.0
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                s = stats.get(name)
                if s is None:
                    s = stats[name] = SpanStats()
                s.calls += 1
                s.self_s += dt - frame[0]
                if depth[name] == 0:
                    s.s += dt
                if cpu:
                    s.cpu_s += thread_clock() - c0
                if stack:
                    stack[-1][0] += dt
                if extra is not None:
                    for k, v in extra(args, kwargs, result, dt).items():
                        s.counters[k] = s.counters.get(k, 0) + v

        functools.update_wrapper(wrapper, fn, updated=())
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self):
        resolved = [(t, *resolve(t.path)) for t in self.targets]
        modules = package_modules()
        try:
            for target, owner, attr, obj in resolved:
                wrapper = self._wrap(target, obj)
                self._patch(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                # other bindings of the same function object in the package
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is obj and not (mod is owner and name == attr):
                            self._patch(mod, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def active(self, name: str) -> bool:
        """Whether a span of this name is open in the calling thread."""
        return self._state()[2].get(name, 0) > 0

    def leftovers(self) -> list:
        """Patched names not back to their original object, plus any wrapper
        still reachable from the package; empty after a clean uninstall."""
        found = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._patches
                 if (owner.__dict__.get(attr) if isinstance(owner, type)
                     else getattr(owner, attr, None)) is not original]
        return found + _package_wrappers()

    def stats(self) -> dict:
        """Span stats by name, merged over threads."""
        merged = {}
        with self._lock:
            for per_thread in self._thread_stats:
                for name, s in per_thread.items():
                    merged.setdefault(name, SpanStats()).merge(s)
        return merged
