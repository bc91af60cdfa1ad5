"""Span tracing of the simulator's layers, from outside the package.

The tracer swaps each traced function for a wrapper at the name its caller
looks up (``montecarlo.draw_channel``, ``receivers.hermitian_solve``, ...)
and restores the originals on exit. Every call becomes a span
``(name, start, end, parent)`` kept in flat in-memory arrays; a layer's self
time is its span minus the spans of its traced children. Counters recorded
at the same boundaries (solver flops, submitted batches) sit beside the
spans. Nothing inside ``src`` is edited.

Pool workers forked from a traced benchmark process inherit the wrappers,
but their spans stay in the worker processes: only the main process's spans
and counters are collected.
"""

import contextlib
import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "onebit_mimo"

#: (module whose global is replaced, global name, span name). A target the
#: package no longer has is skipped and listed in ``Tracer.missing``; its
#: metrics read 0 and the run record lists them as unmeasured.
TARGETS = (
    ("montecarlo", "trial_streams", "rng.trial_streams"),
    ("montecarlo", "draw_channel", "channel.draw_channel"),
    ("montecarlo", "transmit", "channel.transmit"),
    ("montecarlo", "one_bit_quantize", "channel.one_bit_quantize"),
    ("montecarlo", "map_bits_to_symbols", "modulation.map_bits_to_symbols"),
    ("montecarlo", "symbols_to_bits", "modulation.symbols_to_bits"),
    ("montecarlo", "QuantizedStatistics", "bussgang.QuantizedStatistics"),
    ("montecarlo", "build_combiner", "receivers.build_combiner"),
    ("montecarlo", "detect_pipeline", "receivers.detect_pipeline"),
    ("montecarlo", "run_trial", "montecarlo.run_trial"),
    ("montecarlo", "wait", "montecarlo.wait"),
    ("receivers", "hermitian_solve", "linalg.hermitian_solve"),
    ("receivers", "aqnm_covariance", "bussgang.aqnm_covariance"),
    # QuantizedStatistics.noise_cov computes through this global.
    ("bussgang", "effective_noise_covariance", "bussgang.noise_cov"),
    ("bussgang", "elementwise_arcsin", "linalg.elementwise_arcsin"),
)


def solve_flops(matrix, rhs) -> int:
    """Flops of a Cholesky factor-and-solve, computed from argument shapes.

    n^3/3 for the factorization plus 2 n^2 per right-hand side for the two
    triangular solves, times 4 for complex operands.
    """
    n = np.shape(matrix)[0]
    rhs_shape = np.shape(rhs)
    m = rhs_shape[1] if len(rhs_shape) > 1 else 1
    scale = 4 if np.iscomplexobj(matrix) or np.iscomplexobj(rhs) else 1
    return scale * (n**3 // 3 + 2 * n * n * m)


def _kind_name(args, kwargs):
    kind = args[0] if args else kwargs.get("kind")
    return f"receivers.build_combiner.{getattr(kind, 'value', kind)}"


def _submitted_receiver_trials(args) -> int:
    """Receiver-trials of one submitted batch, read from the batch call's
    ``(config, kinds, seed, start, stop, quantized)`` arguments; 0 if the
    task no longer has that shape."""
    try:
        return len(args[1]) * (int(args[4]) - int(args[3]))
    except (IndexError, TypeError, ValueError):
        return 0


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self.missing: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount=1):
        self.counts[name] += amount

    def wrap(self, fn, name, name_of=None, on_call=None):
        """Return ``fn`` recording a span per call. ``name_of(args, kwargs)``
        refines the span name; ``on_call(args, kwargs)`` updates counters."""
        fixed = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                try:
                    on_call(args, kwargs)
                except (LookupError, TypeError, ValueError):
                    # The call no longer has the shape the hook reads: its
                    # counter stops, the call itself still runs.
                    self.missing.add(f"counter of {name}")
            nid = fixed if name_of is None else self._name_id(name_of(args, kwargs))
            index = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()

        return traced

    def mark(self) -> int:
        return len(self.starts)

    def summarize(self, lo: int, hi: int) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive seconds, self seconds, calls) over spans [lo, hi).

        Spans in the range must not have parents before ``lo``.
        """
        if hi <= lo:
            return {}
        ids = np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int64)[lo:hi]
        duration = (
            np.frombuffer(self.ends, dtype=np.float64)[lo:hi]
            - np.frombuffer(self.starts, dtype=np.float64)[lo:hi]
        )
        children = np.zeros(hi - lo)
        nested = parents >= lo
        np.add.at(children, parents[nested] - lo, duration[nested])
        own = duration - children
        size = len(self.names)
        total = np.bincount(ids, weights=duration, minlength=size)
        self_time = np.bincount(ids, weights=own, minlength=size)
        calls = np.bincount(ids, minlength=size)
        return {
            name: (float(total[i]), float(self_time[i]), int(calls[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path):
        """Write every span (name, start, end, parent) to an ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers; restore the originals on exit."""
        hooks = {
            "build_combiner": {"name_of": _kind_name},
            "hermitian_solve": {"on_call": self._count_solve},
            "trial_streams": {"on_call": self._count_redraw},
            "run_trial": {"on_call": self._count_trial},
        }
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, **hooks.get(attr, {})))
            montecarlo = sys.modules.get(f"{PACKAGE}.montecarlo")
            pool = getattr(montecarlo, "ProcessPoolExecutor", None)
            if pool is None:
                self.missing.add("montecarlo.ProcessPoolExecutor")
            else:
                saved.append((montecarlo, "ProcessPoolExecutor", pool))
                montecarlo.ProcessPoolExecutor = self._counting_pool(pool)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # Counter hooks read the call's arguments as the package passes them today.

    def _count_solve(self, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        rhs = args[1] if len(args) > 1 else kwargs["rhs"]
        self.count("linalg.hermitian_solve.flops", solve_flops(matrix, rhs))

    def _count_redraw(self, args, kwargs):
        if (args[2] if len(args) > 2 else kwargs.get("redraw", 0)) > 0:
            self.count("montecarlo.redraws")

    def _count_trial(self, args, kwargs):
        kinds = args[1] if len(args) > 1 else kwargs["kinds"]
        self.count("montecarlo.receiver_trials_computed", len(kinds))

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def submit(self, fn, /, *args, **kwargs):
                tracer.count("montecarlo.batches_submitted")
                tracer.count(
                    "montecarlo.receiver_trials_computed",
                    _submitted_receiver_trials(args),
                )
                return super().submit(fn, *args, **kwargs)

        return CountingPool

