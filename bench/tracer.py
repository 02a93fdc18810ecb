"""Outside-in tracing of `multiteam`: counts and times calls into public
functions without editing the package.

Each traced function is wrapped, and every module-level name in `multiteam.*`
that holds the function object is rebound to the wrapper, so call sites that
did `from .x import f` are caught as well as `x.f(...)`.  Calls made through
references held elsewhere (closures, dict values, bound defaults) are not
seen.  Generator functions get a proxy that times each `next`, counts yields
and closes the inner generator on early exit.  Self time comes from a span
stack: a span's duration minus the spans that ran inside it.  Inclusive time
is counted at the outermost activation only, so recursion is not counted
twice.

A function or parameter missing at the measured commit is reported as absent
(`None`), never as zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
from fractions import Fraction
from time import perf_counter_ns

MODES = ("set_lax", "set_strict", "multi_lax", "multi_strict")
DEFAULT_MODE = "multi_lax"  # SemanticsConfig() is multi / lax


def lookup(module: str, name: str):
    """The named function of `multiteam.<module>`, or None if it is missing."""
    mod = sys.modules.get(f"multiteam.{module}")
    return getattr(mod, name, None) if mod is not None else None


def rebind(replacements: dict) -> list:
    """Point every `multiteam.*` module attribute holding one of the keys of
    `replacements` (compared by identity) at its value.  Returns undo data."""
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "multiteam" or mod_name.startswith("multiteam.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    return undo


def unbind(undo: list) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


def _mode_of(cfg) -> str:
    if cfg is None:
        return DEFAULT_MODE
    return f"{getattr(cfg, 'team_kind', '?')}_{getattr(cfg, 'strictness', '?')}"


def _row_count(team):
    try:
        return len(team.row_items())
    except (AttributeError, TypeError):
        return None


def _eligible(team, threshold):
    """Subteams of `team` meeting the size bound, counted from the row
    multiplicities: the coefficients of prod_i (1 + z + ... + z^m_i)."""
    try:
        mults = [m for _, m in team.row_items()]
    except (AttributeError, TypeError):
        return None
    size = sum(mults)
    value = getattr(threshold, "value", threshold)
    absolute = getattr(threshold, "absolute", isinstance(threshold, int))
    if absolute:
        needed = int(value)
    else:
        p = Fraction(value)
        needed = -(-p.numerator * size // p.denominator)
    ways = [1]
    for m in mults:
        nxt = [0] * (len(ways) + m)
        for s, n in enumerate(ways):
            for c in range(m + 1):
                nxt[s + c] += n
        ways = nxt
    return sum(ways[max(needed, 0):])


class _Stat:
    __slots__ = ("calls", "yields", "s", "self_s", "first_s", "rows", "eligible", "active")

    def __init__(self):
        self.calls = self.yields = self.rows = self.eligible = 0
        self.s = self.self_s = self.first_s = 0
        self.active = 0


class Tracer:
    """Wraps the functions named in `TARGETS` while installed."""

    # (module, function, per-mode, extra): extra names a count taken from
    # the arguments or result: "rows" (input team), "rows_out" (result team),
    # "eligible" (subteams meeting the bound), "mode" (sets the mode).
    TARGETS = (
        ("approx", "enum_bounded_submultisets", True, "eligible"),
        ("atoms", "eval_dep", False, "rows"),
        ("atoms", "eval_inc", False, "rows"),
        ("atoms", "eval_excl", False, "rows"),
        ("atoms", "eval_ci", False, "rows"),
        ("atoms", "eval_pinc", False, "rows"),
        ("atoms", "eval_pci", False, "rows"),
        ("semantics", "enum_supplements", True, None),
        ("semantics", "enum_or_splits", True, None),
        ("semantics", "extend_universal", False, "rows_out"),
        ("semantics", "evaluate", False, "mode"),
        ("semantics", "witness", False, "mode"),
        ("parser", "parse", False, None),
        ("io", "load_multiteam", False, None),
        ("io", "dump_multiteam", False, None),
        ("io", "load_structure", False, None),
        ("io", "dump_structure", False, None),
        ("cli", "main", False, None),
        ("reductions", "encode_3sat", False, None),
        ("reductions", "encode_maxsat", False, None),
        ("reductions", "parse_dimacs", False, None),
    )

    def __init__(self):
        self.stats: dict = {}
        self.present: set = set()
        self.stack: list = []
        self.modes: list = []
        self.built = 0
        self.multiteam_present = False
        self._undo: list = []
        self._new_undo = None

    def stat(self, module, name, mode=None) -> _Stat:
        key = (module, name, mode)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = _Stat()
        return st

    # --- spans -----------------------------------------------------------

    def _open(self) -> list:
        frame = [perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, st: _Stat, outermost: bool) -> int:
        elapsed = perf_counter_ns() - frame[0]
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += elapsed
        st.self_s += elapsed - frame[1]
        if outermost:
            st.s += elapsed
        return elapsed

    # --- wrappers --------------------------------------------------------

    def _wrap(self, module, name, fn, per_mode, extra):
        tracer = self
        sig = inspect.signature(fn) if extra == "mode" else None

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                mode = (tracer.modes[-1] if tracer.modes else DEFAULT_MODE) if per_mode else None
                st = tracer.stat(module, name, mode)
                st.calls += 1
                if extra == "eligible":
                    n = _eligible(args[0], args[1] if len(args) > 1 else kwargs.get("threshold"))
                    st.eligible = None if n is None or st.eligible is None else st.eligible + n
                return tracer._proxy(fn(*args, **kwargs), st)
        else:
            def wrapper(*args, **kwargs):
                st = tracer.stat(module, name)
                st.calls += 1
                if sig is not None:
                    bound = sig.bind_partial(*args, **kwargs)
                    tracer.modes.append(_mode_of(bound.arguments.get("cfg")))
                outermost = st.active == 0
                st.active += 1
                frame = tracer._open()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame, st, outermost)
                    st.active -= 1
                    if sig is not None:
                        tracer.modes.pop()
                if extra in ("rows", "rows_out"):
                    n = _row_count(args[0] if extra == "rows" else result)
                    st.rows = None if n is None or st.rows is None else st.rows + n
                return result
        return functools.wraps(fn)(wrapper)

    def _proxy(self, inner, st: _Stat):
        first = True
        try:
            while True:
                frame = self._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = self._close(frame, st, True)
                    if first:
                        st.first_s += elapsed
                        first = False
                st.yields += 1
                yield item
        finally:
            inner.close()

    # --- install / remove ------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for module, name, per_mode, extra in self.TARGETS:
            fn = lookup(module, name)
            if fn is None or not callable(fn):
                continue
            self.present.add((module, name))
            replacements[fn] = self._wrap(module, name, fn, per_mode, extra)
        self._undo = rebind(replacements)
        model = sys.modules.get("multiteam.model")
        cls = getattr(model, "Multiteam", None)
        if isinstance(cls, type):
            self.multiteam_present = True
            self._count_allocations(cls)

    def _count_allocations(self, cls) -> None:
        tracer = self
        own = cls.__dict__.get("__new__")
        underlying = own.__func__ if isinstance(own, staticmethod) else own

        def counting_new(klass, *args, **kwargs):
            tracer.built += 1
            if underlying is None:
                return object.__new__(klass)
            return underlying(klass, *args, **kwargs)

        cls.__new__ = staticmethod(counting_new)
        self._new_undo = (cls, own)

    def remove(self) -> None:
        unbind(self._undo)
        self._undo = []
        if self._new_undo is not None:
            cls, own = self._new_undo
            if own is None:
                del cls.__new__
            else:
                cls.__new__ = own
            self._new_undo = None

    # --- report ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics by name: (value or None if absent, unit)."""
        out: dict = {}

        def put(module, name, stat_name, unit, get, mode=None):
            label = f"{module}.{name}.{stat_name}" + (f".{mode}" if mode else "")
            if (module, name) not in self.present:
                out[label] = (None, unit)
            else:
                out[label] = (get(self.stats.get((module, name, mode)) or _Stat()), unit)

        calls = lambda st: st.calls
        yields = lambda st: st.yields
        rows = lambda st: st.rows
        seconds = lambda st: st.s / 1e9
        self_seconds = lambda st: st.self_s / 1e9
        for mode in MODES:
            for stat_name, unit, get in (
                    ("calls", "count", calls),
                    ("yields", "count", yields),
                    ("eligible", "count", lambda st: st.eligible),
                    ("s", "s", seconds),
                    ("first_s", "s", lambda st: st.first_s / 1e9)):
                put("approx", "enum_bounded_submultisets", stat_name, unit, get, mode)
        out["model.Multiteam.built"] = (self.built if self.multiteam_present else None, "count")
        for atom in ("dep", "inc", "excl", "ci", "pinc", "pci"):
            put("atoms", f"eval_{atom}", "calls", "count", calls)
            put("atoms", f"eval_{atom}", "s", "s", seconds)
            put("atoms", f"eval_{atom}", "rows", "count", rows)
        for name in ("enum_supplements", "enum_or_splits"):
            for mode in MODES:
                put("semantics", name, "yields", "count", yields, mode)
                put("semantics", name, "s", "s", seconds, mode)
        put("semantics", "extend_universal", "calls", "count", calls)
        put("semantics", "extend_universal", "s", "s", seconds)
        put("semantics", "extend_universal", "rows_out", "count", rows)
        for module, name in (("semantics", "evaluate"), ("semantics", "witness"), ("cli", "main")):
            put(module, name, "calls", "count", calls)
            put(module, name, "s", "s", seconds)
            put(module, name, "self_s", "s", self_seconds)
        for module, name in (("parser", "parse"), ("io", "load_multiteam"),
                             ("io", "dump_multiteam"), ("io", "load_structure"),
                             ("io", "dump_structure")):
            put(module, name, "calls", "count", calls)
            put(module, name, "s", "s", seconds)
        for name in ("encode_3sat", "encode_maxsat", "parse_dimacs"):
            put("reductions", name, "s", "s", seconds)
        return out


def cache_off_bindings():
    """Rebindings that run `evaluate` and `witness` with use_cache=False, or
    None when either lacks that parameter at the measured commit."""
    replacements = {}
    for name in ("evaluate", "witness"):
        fn = lookup("semantics", name)
        if fn is None or "use_cache" not in inspect.signature(fn).parameters:
            return None

        def uncached(*args, _fn=fn, **kwargs):
            kwargs["use_cache"] = False
            return _fn(*args, **kwargs)

        replacements[fn] = functools.wraps(fn)(uncached)
    return replacements
