"""Call tracing at the module boundaries of wrightbound, in-process.

``Tracer`` replaces public functions with wrappers that record, per
name: calls, calls that returned (did not raise), total time, self time
(total minus the time of traced callees) and the traced caller.  A
function is replaced under every module name that refers to it, so the
names ``separation`` and ``verifiers`` import from ``bounds`` are traced
too.  ``OpCounter`` counts ``Interval`` arithmetic; it runs in a pass of
its own because its wrappers would swamp the layer times.

Both keep their records per thread (``verify_all`` runs verifiers on a
thread pool) and merge them when read.  Under the interpreter lock a
traced function's time on a worker thread includes its waits for the
lock, so layer times on ``verify-all`` overlap.
"""

import collections
import threading
import time

ROOT = "<root>"


class _Stat:
    __slots__ = ("calls", "returned", "total", "self", "parents")

    def __init__(self):
        self.calls = 0
        self.returned = 0
        self.total = 0.0
        self.self = 0.0
        self.parents = collections.Counter()


class _PerThread:
    """Thread-local records, merged on read."""

    def __init__(self, make):
        self._make = make
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all = []

    def get(self):
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = self._make()
            with self._lock:
                self._all.append(rec)
        return rec

    def all(self):
        with self._lock:
            return list(self._all)


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._done = []

    def replace(self, owners, original, replacement):
        """Replace ``original`` wherever an owner (module, class or dict)
        refers to it under any name."""
        for owner in owners:
            space = owner if isinstance(owner, dict) else vars(owner)
            for attr, value in list(space.items()):
                if value is original:
                    self._set(owner, attr, replacement)
                    self._done.append((owner, attr, original))

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def undo(self):
        while self._done:
            owner, attr, value = self._done.pop()
            self._set(owner, attr, value)


class Tracer:
    def __init__(self):
        self._threads = _PerThread(lambda: ({}, []))
        self._patches = _Patches()

    def wrap(self, owners, fn, name, key=None, observe=None):
        """Trace ``fn`` as ``name`` (or ``name + "." + key(args, kwargs)``);
        ``observe(args, result, caller)`` sees every value it returns."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stats, stack = self._threads.get()
            label = name if key is None else f"{name}.{key(args, kwargs)}"
            st = stats.get(label)
            if st is None:
                st = stats[label] = _Stat()
            st.calls += 1
            caller = stack[-1][0] if stack else ROOT
            st.parents[caller] += 1
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                st.total += elapsed
                st.self += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            st.returned += 1
            if observe is not None:
                observe(args, result, caller)
            return result

        traced.__wrapped__ = fn
        self._patches.replace(owners, fn, traced)

    def undo(self):
        self._patches.undo()

    def stats(self):
        """Merged records: name -> dict of calls, returned, total_s,
        self_s and parents."""
        merged = {}
        for stats, _ in self._threads.all():
            for label, st in stats.items():
                m = merged.setdefault(label, {
                    "calls": 0, "returned": 0, "total_s": 0.0,
                    "self_s": 0.0, "parents": collections.Counter()})
                m["calls"] += st.calls
                m["returned"] += st.returned
                m["total_s"] += st.total
                m["self_s"] += st.self
                m["parents"].update(st.parents)
        for m in merged.values():
            m["parents"] = dict(m["parents"])
        return merged


INTERVAL_OPS = ("__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                "sqr", "abs", "sqrt", "ln", "ln1p", "atan")


class OpCounter:
    """Counts calls of the arithmetic methods of an interval class."""

    def __init__(self, cls):
        self._cls = cls
        self._threads = _PerThread(collections.Counter)
        self._saved = []

    def install(self):
        for op in INTERVAL_OPS:
            fn = self._cls.__dict__.get(op)
            if fn is None:
                continue
            self._saved.append((op, fn))
            setattr(self._cls, op, self._counting(op, fn))

    def _counting(self, op, fn):
        get = self._threads.get

        def counted(*args):
            get()[op] += 1
            return fn(*args)
        return counted

    def undo(self):
        while self._saved:
            op, fn = self._saved.pop()
            setattr(self._cls, op, fn)

    def counts(self):
        total = collections.Counter()
        for rec in self._threads.all():
            total.update(rec)
        return dict(total)
