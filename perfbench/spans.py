"""Timing of the gtsg layers from inside the program's own calls.

The traced run wraps, at runtime and only for its own duration, the
functions by which one gtsg layer calls another:

* ``cli.main``;
* every public function of ``thabit`` and ``verify`` as ``cli`` and
  ``verify`` reach them (their module references are swapped for a
  namespace of wrapped functions, so calls inside ``thabit`` stay direct);
* ``verify.verify_point`` as ``verify_grid`` calls it;
* ``make_semigroup`` wherever another module imported it, and the public
  methods of ``oracle.Semigroup`` on their outermost call (a method that
  calls another method makes one span, not two);
* ``oracle._apery_w``, whose calls that miss its cache are the cold table
  builds, named ``oracle.table``.

The spans nest inside the real ``cli.main`` call, so a span's self time is
its own duration minus that of the spans opened inside it.  Spans are
summed per function as they close: calls, total and self seconds, and a
count of items (values yielded, residues tabulated).  Only the process
that installed the wrappers records; the workers of ``verify``'s pool run
the wrapped functions straight through.
"""

from __future__ import annotations

import functools
import inspect
import os
import types
from time import perf_counter

THABIT = "thabit"
ORACLE = "oracle"
VERIFY = "verify"


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.stack: list[list] = []     # open spans: [key, layer, child seconds]
        self.agg: dict[str, list] = {}  # key -> [calls, total_s, self_s, items]
        self.undo: list[tuple] = []

    def _close(self, frame, start, items=0) -> float:
        duration = perf_counter() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] += duration
        row = self.agg.setdefault(frame[0], [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[2]
        row[3] += items
        return duration

    def _off(self, layer, outermost) -> bool:
        return os.getpid() != self.pid or (
            outermost and bool(self.stack) and self.stack[-1][1] == layer)

    def wrap(self, key, fn, outermost=False, key_of=None):
        """fn as one span per call; ``key_of(args, kwargs)`` may rename it."""
        layer = key.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._off(layer, outermost):
                return fn(*args, **kwargs)
            frame = [key_of(args, kwargs) if key_of else key, layer, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, start)
        return traced

    def wrap_iter(self, key, fn):
        """A generator function: one span per item it yields."""
        layer = key.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if self._off(layer, False):
                return inner
            return self._steps(key, layer, inner)
        return traced

    def _steps(self, key, layer, inner):
        while True:
            frame = [key, layer, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                self._close(frame, start)
                return
            except BaseException:
                self._close(frame, start)
                raise
            self._close(frame, start, items=1)
            yield item

    def wrap_table(self, fn):
        """oracle._apery_w: a call that misses the cache is a cold table
        build, and its residues are counted; a hit is left to its caller."""
        @functools.wraps(fn)
        def traced(gens, x):
            if self._off(ORACLE, False):
                return fn(gens, x)
            misses = fn.cache_info().misses
            frame = ["oracle.table", ORACLE, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(gens, x)
            finally:
                if fn.cache_info().misses > misses:
                    self._close(frame, start, items=x)
                else:
                    self.stack.pop()
        traced.cache_clear = fn.cache_clear
        return traced

    def _patch(self, owner, name, value):
        self.undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _proxy(self, module, layer, key_of=None):
        """A namespace like ``module`` whose functions are wrapped."""
        names = {}
        for name, value in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                key = f"{layer}.{name}"
                if inspect.isgeneratorfunction(value):
                    value = self.wrap_iter(key, value)
                else:
                    value = self.wrap(key, value, key_of=(key_of or {}).get(name))
            names[name] = value
        return types.SimpleNamespace(**names)

    def install(self, gtsg) -> None:
        cli, thabit, oracle, verify = gtsg.cli, gtsg.thabit, gtsg.oracle, gtsg.verify
        thabit_proxy = self._proxy(thabit, THABIT)
        verify_proxy = self._proxy(verify, VERIFY, {"verify_grid": _grid_key})
        for module in (cli, verify):
            self._patch(module, "thabit", thabit_proxy)
        self._patch(cli, "verify", verify_proxy)
        self._patch(verify, "verify_point", self.wrap("verify.verify_point", verify.verify_point))
        for module in (cli, thabit, verify):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == oracle.__name__:
                    self._patch(module, name, self.wrap(f"oracle.{name}", value))
        for name, value in list(vars(oracle.Semigroup).items()):
            if inspect.isfunction(value) and not name.startswith("_"):
                self._patch(oracle.Semigroup, name,
                            self.wrap(f"oracle.{name}", value, outermost=True))
        self._patch(oracle, "_apery_w", self.wrap_table(oracle._apery_w))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        while self.undo:
            owner, name, value = self.undo.pop()
            setattr(owner, name, value)

    def to_json(self) -> dict:
        return {key: {"calls": c, "total_s": t, "self_s": s, "items": i}
                for key, (c, t, s, i) in sorted(self.agg.items())}


def _grid_key(args, kwargs) -> str:
    """verify_grid with a pool is ``verify.pool``; run serially it is
    ``verify.verify_grid``."""
    jobs = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
    return "verify.pool" if jobs > 1 else "verify.verify_grid"


# which functions make up each per-layer figure
COEFFS = ("thabit.iter_apery_coeffs", "thabit.coeff_value", "thabit.apery_coeffs")
CLOSED_FORM = ("thabit.max_apery", "thabit.frobenius_closed", "thabit.frobenius_k2_closed",
               "thabit.max_apery_fast_kltn", "thabit.coeff_solve")
GENUS = ("thabit.genus_closed", "thabit.genus_from_apery")
GENERATORS = ("thabit.minimal_generating_set", "thabit.delta", "thabit.embedding_dimension",
              "thabit.case_of", "thabit.generator_at")
SEMIGROUP_METHODS = ("oracle.apery_set", "oracle.is_member", "oracle.frobenius",
                     "oracle.genus", "oracle.gaps", "oracle.minimal_generators")


def layer_metrics(tracer: Tracer, bytes_out: int,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer figure, as name -> (value, unit)."""
    agg = tracer.agg

    def col(keys, i):
        return sum(agg[k][i] for k in keys if k in agg)

    def of_layer(layer):
        return [k for k in agg if k.startswith(layer + ".")]

    serial = col(["verify.verify_point"], 1)
    pool = col(["verify.pool"], 1)
    return {
        "oracle.table_s": (col(["oracle.table"], 1), "s"),
        "oracle.residues": (col(["oracle.table"], 3), "count"),
        "oracle.warm_s": (col(SEMIGROUP_METHODS, 2), "s"),
        "oracle.minimal_generators_s": (col(["oracle.minimal_generators"], 1), "s"),
        "oracle.self_s": (col(of_layer(ORACLE), 2), "s"),
        "thabit.enumerate_s": (col(["thabit.apery_set_closed"], 1), "s"),
        "thabit.coeffs_s": (col(COEFFS, 1), "s"),
        "thabit.values": (col(["thabit.iter_apery_coeffs"], 3), "count"),
        "thabit.closed_form_s": (col(CLOSED_FORM, 1), "s"),
        "thabit.genus_s": (col(GENUS, 1), "s"),
        "thabit.generators_s": (col(GENERATORS, 1), "s"),
        "thabit.self_s": (col(of_layer(THABIT), 2), "s"),
        "verify.serial_s": (serial, "s"),
        "verify.self_s": (col(["verify.verify_point"], 2), "s"),
        "verify.points": (col(["verify.verify_point"], 0), "count"),
        "verify.pool_s": (pool, "s"),
        "verify.pool_speedup": (serial / pool if pool else 0.0, "ratio"),
        "cli.self_s": (col(["cli.main"], 2), "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
