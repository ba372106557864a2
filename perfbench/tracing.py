"""Instrumentation that a benchmark child installs before it runs its job.

Two passes, each in its own cold process, because counting every scalar
operation costs far more than timing a few layer calls:

* ``spans`` wraps each layer's public functions, at every name under which
  a caller looks them up, and records one span per call with its parent.
  A layer's self time is its span time minus the time of its child spans.
* ``counts`` counts `Cyclo` and `UnitaryMatrix` operations.

Both passes also read the process-global memo sizes once the job is done.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import defaultdict

# span name -> function name looked up in the su3braid modules
SPAN_FUNCTIONS = {
    "cli.run_theorem1_verification": "run_theorem1_verification",
    "cli.export_group": "export_group",
    "braidrep.paper_generators": "paper_generators",
    "su3families.c_generators": "c_generators",
    "su3families.d_generators": "d_generators",
    "recoupling.sixj": "sixj",
    "recoupling.tet": "tet",
    "recoupling.theta": "theta",
    "matgroup.close": "close",
    "matgroup.element_records": "element_records",
    "matgroup.find_isomorphism": "find_isomorphism",
    "matgroup.conjugacy_classes": "conjugacy_classes",
    "matgroup.decompose": "decompose",
    "matgroup.element_order": "element_order",
    "matgroup.is_normal": "is_normal",
    "matgroup.semidirect_verify": "semidirect_verify",
    "matgroup.subgroup": "subgroup",
}
# span name -> (class name, method name)
SPAN_METHODS = {
    "matgroup.cayley_table": ("FiniteMatrixGroup", "cayley_table"),
}
# counter name -> (class name, method names sharing the counter)
COUNTED = {
    "cyclo.mul_calls": ("Cyclo", ("__mul__", "__rmul__")),
    "cyclo.add_calls": ("Cyclo", ("__add__", "__radd__")),
    "cyclo.eq_calls": ("Cyclo", ("__eq__",)),
    "cyclo.inv_calls": ("Cyclo", ("inv",)),
    "matrix.mul_calls": ("UnitaryMatrix", ("__mul__",)),
    "matrix.key_bytes_calls": ("UnitaryMatrix", ("key_bytes",)),
}


def package_modules() -> list:
    import su3braid

    for info in pkgutil.iter_modules(su3braid.__path__, "su3braid."):
        if info.name != "su3braid.__main__":
            importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "su3braid" or name.startswith("su3braid."))]


def _find_class(modules, name: str):
    for m in modules:
        cls = getattr(m, name, None)
        if isinstance(cls, type):
            return cls
    return None


def _warn(message: str) -> None:
    print(f"perfbench tracing: {message}", file=sys.stderr)


class Spans:
    """Span recorder.  Records are [name, parent index, start, end]."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []
        self.close_elements = 0
        self._tables: dict[int, tuple[object, int]] = {}

    def wrap(self, name: str, fn):
        records, stack = self.records, self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(records)
            records.append([name, stack[-1] if stack else -1, clock(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                records[idx][3] = clock()
            self._observe(name, args, result)
            return result

        return spanned

    def _observe(self, name: str, args, result) -> None:
        if name == "matgroup.close":
            self.close_elements += len(result)
        elif name == "matgroup.cayley_table":
            # a table is built once per group and cached, so count each group
            # once; holding the group keeps its id from being reused
            group = args[0]
            self._tables.setdefault(id(group), (group, len(result) ** 2))

    @property
    def cayley_entries(self) -> int:
        return sum(n for _, n in self._tables.values())

    def install(self, modules) -> None:
        for span, fname in SPAN_FUNCTIONS.items():
            originals = {id(getattr(m, fname)): getattr(m, fname)
                         for m in modules if callable(getattr(m, fname, None))}
            if not originals:
                _warn(f"no function {fname!r} to trace")
            for fn in originals.values():
                wrapped = self.wrap(span, fn)
                for m in modules:
                    if getattr(m, fname, None) is fn:
                        setattr(m, fname, wrapped)
        for span, (cname, meth) in SPAN_METHODS.items():
            cls = _find_class(modules, cname)
            if cls is None or not hasattr(cls, meth):
                _warn(f"no method {cname}.{meth} to trace")
                continue
            setattr(cls, meth, self.wrap(span, getattr(cls, meth)))

    def summary(self) -> dict:
        """Per span name: number of calls and self seconds."""
        child_time = [0.0] * len(self.records)
        for name, parent, t0, t1 in self.records:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, parent, t0, t1), children in zip(self.records, child_time):
            out[name]["calls"] += 1
            out[name]["self_s"] += t1 - t0 - children
        return dict(out)


class Counts:
    """Operation counters on the scalar and matrix classes."""

    def __init__(self):
        self.cells = {name: [0] for name in COUNTED}

    def install(self, modules) -> None:
        for counter, (cname, methods) in COUNTED.items():
            cls = _find_class(modules, cname)
            for meth in methods:
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    _warn(f"no method {cname}.{meth} to count")
                    continue
                setattr(cls, meth, _counting(fn, self.cells[counter]))

    def values(self) -> dict:
        return {name: cell[0] for name, cell in self.cells.items()}


def _counting(fn, cell):
    # explicit arities: a *args wrapper costs noticeably more per call
    argc = fn.__code__.co_argcount
    if argc == 1:
        def counted(a):
            cell[0] += 1
            return fn(a)
    else:
        def counted(a, b):
            cell[0] += 1
            return fn(a, b)
    return counted


def memo_sizes(modules) -> dict:
    """Sizes of the process-global memos, as counts."""
    out = {}
    by_name = {m.__name__: m for m in modules}
    cyclo = by_name.get("su3braid.cyclo")
    for metric, attr in (("cyclo.mul_memo_entries", "_MUL_MEMO"),
                         ("cyclo.add_memo_entries", "_ADD_MEMO")):
        memo = getattr(cyclo, attr, None)
        if memo is None:
            _warn(f"no memo su3braid.cyclo.{attr}")
        out[metric] = len(memo) if memo is not None else 0
    qf = getattr(by_name.get("su3braid.recoupling"), "quantum_fact", None)
    if hasattr(qf, "cache_info"):
        out["recoupling.quantum_fact_entries"] = qf.cache_info().currsize
    else:
        _warn("quantum_fact has no cache_info")
        out["recoupling.quantum_fact_entries"] = 0
    return out
