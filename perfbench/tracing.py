"""Per-layer spans and counts for quantcurv, installed from outside the package.

`Tracer.install()` wraps every public function of the traced modules, plus
the methods in `METHODS`, and rebinds each wrapper wherever a quantcurv module
holds the function under a name (for example `transport.eval_batch` as well as
`sphere.eval_batch`), so calls through imported names are recorded too.
`uninstall()` puts the originals back.

Self time is attributed as wall time to the innermost open span.  While
experiment threads of the `cli.run` pool have open spans, the main thread only
waits for them and is not credited; when several such threads have open spans
at once, each interval is shared equally among them.  The self times of all
layers therefore add up to the wall time during which some span was open,
never more.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

MODULES = ("cli", "experiments", "sphere", "transport", "linalg", "fock")

# (module, class, attribute, layer name, count only)
METHODS = (
    ("sphere", "SectionSpace", "__init__", "sphere.SectionSpace.init", False),
    ("sphere", "SectionSpace", "coeffs", "sphere.SectionSpace.coeffs", False),
    ("sphere", "SectionSpace", "compress_mult", "sphere.SectionSpace.compress_mult", False),
    ("sphere", "ChartFunction", "eval", "sphere.ChartFunction.eval", False),
    ("sphere", "ChartFunction", "__mul__", "sphere.ChartFunction.mul", True),
    ("linalg", "OdeStepper", "step", "linalg.OdeStepper.step", False),
    ("fock", "BiPolynomial", "__mul__", "fock.BiPolynomial.mul", True),
    ("fock", "FockTruncation", "basis", "fock.FockTruncation.basis", True),
)


def _points(z) -> int:
    return int(getattr(z, "size", 1))


# Work per call, counted as terms evaluated times points evaluated at.
WORK = {
    "sphere.ChartFunction.eval": lambda cf, z: len(cf.terms) * _points(z),
    "sphere.eval_batch": lambda cfs, z: sum(len(cf.terms) for cf in cfs) * _points(z),
}


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.main = threading.main_thread().ident
        self.stacks: dict[int, list] = {}
        self.open_children = 0  # non-main threads with an open span
        self.last = time.perf_counter()
        self.stats: dict[str, list] = {}  # layer -> [calls, self_s, work]
        self._installed: list[tuple[object, str, object]] = []

    def _credit(self, now: float) -> None:
        dt = now - self.last
        self.last = now
        if self.open_children:
            tops = [s[-1] for tid, s in self.stacks.items() if s and tid != self.main]
        else:
            main = self.stacks.get(self.main)
            tops = [main[-1]] if main else []
        for st in tops:
            st[1] += dt / len(tops)

    def _span(self, name: str, fn, work):
        st = self.stats.setdefault(name, [0, 0.0, 0])
        tracer = self

        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            with tracer.lock:
                tracer._credit(time.perf_counter())
                stack = tracer.stacks.setdefault(tid, [])
                if not stack and tid != tracer.main:
                    tracer.open_children += 1
                stack.append(st)
                st[0] += 1
                if work is not None:
                    st[2] += work(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                with tracer.lock:
                    tracer._credit(time.perf_counter())
                    stack.pop()
                    if not stack and tid != tracer.main:
                        tracer.open_children -= 1

        return functools.update_wrapper(wrapper, fn)

    def _count(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0])
        lock = self.lock

        def wrapper(*args, **kwargs):
            with lock:
                st[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules[f"quantcurv.{m}"] for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._span(name, obj, WORK.get(name))
        holders = [m for key, m in sys.modules.items() if key.split(".")[0] == "quantcurv"]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for short, cls_name, attr, name, count_only in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[attr]
            self._installed.append((cls, attr, fn))
            wrapper = self._count(name, fn) if count_only else self._span(name, fn, WORK.get(name))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._installed):
            setattr(holder, attr, obj)
        self._installed.clear()

    def snapshot(self) -> dict[str, tuple]:
        with self.lock:
            return {name: tuple(st) for name, st in self.stats.items()}
