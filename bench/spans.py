"""In-memory spans around the calls into each bargtop layer.

:func:`install` replaces every public function of every loaded bargtop
module by a wrapper, at every name a caller looks it up under (so
``bargtop.pipeline.validate_instance`` is wrapped as well as
``bargtop.forms.validate_instance``), and wraps the validating
constructors of the value classes.  The program itself is not edited.

A span is a name, a start, an end, its parent span and the operation it
belongs to.  The benchmark opens one root span per operation; spans only
record while an operation is open, so the benchmark's own checks, which
also call bargtop, leave none.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

#: value classes whose construction is a span; (module, class name)
VALUE_CLASSES = (
    ("forms", "WeightForm"),
    ("forms", "QuadraticSymbol"),
    ("forms", "HoloQuadratic2n"),
    ("forms", "RealQForm"),
    ("symplectic", "AffineSymplecticMap"),
    ("symplectic", "LagrangianPlane"),
    ("symplectic", "LinearFunctional2n"),
)


class Tracer:
    """Spans kept in parallel lists until the run ends."""

    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.op_kind: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, kind: str):
        self._op = len(self.op_kind)
        self.op_kind.append(kind)
        self._open("op." + kind)

    def end_op(self):
        self._close(self._stack[0])
        self._stack.clear()
        self._op = None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return functools.update_wrapper(traced, fn)

    # ------------------------------------------------------------ install

    def install(self, package: str = "bargtop"):
        """Wrap the package's public functions and value constructors."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        wrapped: dict[int, object] = {}
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if not isinstance(val, types.FunctionType) or val.__name__.startswith("_"):
                    continue
                if not (val.__module__ or "").startswith(package + "."):
                    continue
                w = wrapped.get(id(val))
                if w is None:
                    home = val.__module__.rsplit(".", 1)[-1]
                    w = wrapped[id(val)] = self.wrap(f"{home}.{val.__name__}", val)
                setattr(mod, attr, w)
                self._restore.append((mod, attr, val))
        for home, cls_name in VALUE_CLASSES:
            cls = getattr(modules[f"{package}.{home}"], cls_name)
            post = cls.__dict__["__post_init__"]
            cls.__post_init__ = self.wrap(f"{home}.{cls_name}", post)
            self._restore.append((cls, "__post_init__", post))

    def uninstall(self):
        for obj, attr, val in reversed(self._restore):
            setattr(obj, attr, val)
        self._restore.clear()

    # ------------------------------------------------------------ summary

    def self_times(self):
        """Per span: duration minus the part its child spans cover (ns)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def totals(self, kinds):
        """{span name: (calls, self ns)} over the operations of the given kinds."""
        kinds = set(kinds)
        own = self.self_times()
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        for i, name in enumerate(self.name):
            if self.op_kind[self.op[i]] in kinds:
                acc = out[name]
                acc[0] += 1
                acc[1] += own[i]
        return out

    def ops(self, kind: str) -> int:
        return sum(1 for k in self.op_kind if k == kind)

    def dump(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span\tparent\top\top_kind\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.name):
                op = self.op[i]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{op}\t{self.op_kind[op]}\t{name}\t{self.start[i]}\t{self.end[i]}\n"
                )
