"""In-memory span tracing around calls into orthocat's public functions.

A :class:`Tracer` replaces each traced function, in every ``orthocat``
module that binds it, with a wrapper that records a span (name, start, end,
parent span, op id; times in process CPU seconds, like the ops in
``run.py``) plus a few counts taken at the same boundary. Calls made
inside the library through those bindings (``is_orthogonal`` building the
catenation NFA, ``cli.main`` parsing files) get spans of their own, nested
under the caller's. Nothing in ``src/`` changes; :meth:`Tracer.uninstall`
puts the original functions back.

Spans stay in memory and are written out once, by :meth:`Tracer.write`.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gc
import math
import resource
import sys
import time
from collections import defaultdict

# (module, function) -> span name used in the per-layer metric names.
LAYERS = {
    ("core", "minimize"): "core.minimize",
    ("core", "determinize"): "core.determinize",
    ("core", "language_equivalent"): "core.language_equivalent",
    ("catenation", "build_catenation_dfa"): "catenation.build_dfa",
    ("catenation", "build_catenation_nfa"): "catenation.build_nfa",
    ("orthogonality", "is_orthogonal"): "orthogonality.is_orthogonal",
    ("oracle", "brute_force_orthogonal"): "oracle.brute_force",
    ("fileformat", "parse_automaton"): "fileformat.parse",
    ("fileformat", "serialize_automaton"): "fileformat.serialize",
    ("cli", "main"): "cli.main",
}

# Peak RSS is sampled around these calls only: they allocate the big tables.
_RSS_LAYERS = {"core.minimize", "catenation.build_dfa"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _words_up_to(k: int, length: int) -> int:
    return sum(k**j for j in range(length + 1))


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts for one call, read from its arguments and result."""
    if name == "core.minimize":
        return {"states_in": args[0].state_count, "states_out": result.state_count}
    if name == "catenation.build_dfa":
        return {"states_built": result.dfa.state_count}
    if name == "core.determinize":
        return {"states_built": result.state_count}
    if name == "orthogonality.is_orthogonal":
        witness = result.witness
        return {"orthogonal": int(witness is None), "witness_len": 0 if witness is None else len(witness.word)}
    if name == "oracle.brute_force":
        a, _, max_len = args
        scanned_to = max_len if result is None else len(result.word)
        return {"words_scanned": _words_up_to(len(a.alphabet), scanned_to)}
    if name == "fileformat.parse":
        return {"chars": len(args[0])}
    return {}


class Tracer:
    """Records spans while an op is open; idle (one flag test) otherwise."""

    def __init__(self) -> None:
        # span: [name, start, end, parent, op, counts, paused while innermost]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._built: dict[int, object] = {}
        self._gc_start = 0.0
        self.gc: dict[str, list[float]] = defaultdict(list)  # op -> pause lengths
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "orthocat" or n.startswith("orthocat.")]
        for (mod_name, attr), name in LAYERS.items():
            original = getattr(sys.modules[f"orthocat.{mod_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved.clear()
        gc.callbacks.remove(self._on_gc)

    # -- recording ----------------------------------------------------------

    def begin_op(self, op: str) -> None:
        self._op = op
        self._built.clear()

    def end_op(self) -> None:
        self._op = None
        self._built.clear()

    def note_pause(self, seconds: float) -> None:
        """Charge a timing-handler pause to the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][6] += seconds

    def _on_gc(self, phase: str, info: dict) -> None:
        if self._op is None:
            return
        if phase == "start":
            self._gc_start = time.process_time()
        else:
            self.gc[self._op].append(time.process_time() - self._gc_start)

    def _wrap(self, name: str, fn):
        sample_rss = name in _RSS_LAYERS

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, None, 0.0]
            sid = len(self.spans)
            self.spans.append(span)
            self._stack.append(sid)
            rss0 = _peak_rss_mb() if sample_rss else 0.0
            span[1] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                self._stack.pop()
            counts = _counts(name, args, result)
            if sample_rss:
                counts["rss_growth_mb"] = _peak_rss_mb() - rss0
            if name == "catenation.build_dfa":
                # Held until the op ends, so the id cannot be reused meanwhile.
                self._built[id(result.dfa)] = result.dfa
            elif name == "core.minimize" and self._built.get(id(args[0])) is args[0]:
                counts["useful"] = result.state_count
            span[5] = counts
            return result

        return traced

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children and
        the timing-handler pauses charged to it."""
        own = [end - start - paused for _, start, end, _, _, _, paused in self.spans]
        for _, start, end, parent, _, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        """One tab-separated line per span, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("id\top\tparent\tname\tstart_us\tend_us\tpaused_us\tcounts\n")
            for sid, (name, start, end, parent, op, counts, paused) in enumerate(self.spans):
                extra = ",".join(f"{k}={v}" for k, v in (counts or {}).items())
                handle.write(
                    f"{sid}\t{op}\t{'' if parent is None else parent}\t{name}\t"
                    f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{paused * 1e6:.1f}\t{extra}\n"
                )


def layer_metrics(
    tracer: Tracer, ops: dict[str, float], setups: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced ops named in ``ops``.

    ``ops`` and ``setups`` map op ids to the speed factor that converts their
    wall seconds to reference seconds (see ``clock.py``); every time below is
    converted. Times and counts are means per traced op;
    ``fileformat.serialize.self_ms`` is a mean per set-up, the only place
    serialization runs. Rates divide a layer's total work by its total self
    time, and ``rss_growth_mb`` is the largest rise in the process's peak RSS
    during one call of the layer.
    """
    n_ops = max(len(ops), 1)
    self_s: dict[str, float] = defaultdict(float)
    setup_self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    rss_max: dict[str, float] = defaultdict(float)
    for (name, _, _, _, op, counts, _), own in zip(tracer.spans, tracer.self_times()):
        if op in setups:
            setup_self_s[name] += own * setups[op]
        if op not in ops:
            continue
        self_s[name] += own * ops[op]
        calls[name] += 1
        for key, value in (counts or {}).items():
            if key == "rss_growth_mb":
                rss_max[name] = max(rss_max[name], value)
            else:
                totals[name][key] += value

    def per_op(value: float) -> float:
        return value / n_ops

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    mn, bd = totals["core.minimize"], totals["catenation.build_dfa"]
    iso = totals["orthogonality.is_orthogonal"]
    iso_calls = calls["orthogonality.is_orthogonal"]
    non_ortho = iso_calls - iso["orthogonal"]
    gc_pauses = [p * factor for op, factor in ops.items() for p in tracer.gc.get(op, ())]
    out = {
        "core.minimize.self_ms": (per_op(self_s["core.minimize"] * 1e3), "ms"),
        "core.minimize.calls": (per_op(calls["core.minimize"]), "count"),
        "core.minimize.states_in": (per_op(mn["states_in"]), "count"),
        "core.minimize.states_out": (per_op(mn["states_out"]), "count"),
        "core.minimize.states_per_s": (rate(mn["states_in"], self_s["core.minimize"]), "1/s"),
        "core.minimize.rss_growth_mb": (rss_max["core.minimize"], "MB"),
        "catenation.build_dfa.self_ms": (per_op(self_s["catenation.build_dfa"] * 1e3), "ms"),
        "catenation.build_dfa.calls": (per_op(calls["catenation.build_dfa"]), "count"),
        "catenation.build_dfa.states_built": (per_op(bd["states_built"]), "count"),
        "catenation.build_dfa.states_per_s": (
            rate(bd["states_built"], self_s["catenation.build_dfa"]),
            "1/s",
        ),
        "catenation.build_dfa.useful_ratio": (
            mn["useful"] / bd["states_built"] if bd["states_built"] else 0.0,
            "ratio",
        ),
        "catenation.build_dfa.rss_growth_mb": (rss_max["catenation.build_dfa"], "MB"),
        "catenation.build_nfa.self_ms": (per_op(self_s["catenation.build_nfa"] * 1e3), "ms"),
        "core.determinize.self_ms": (per_op(self_s["core.determinize"] * 1e3), "ms"),
        "core.determinize.states_built": (per_op(totals["core.determinize"]["states_built"]), "count"),
        "orthogonality.is_orthogonal.self_ms": (
            per_op(self_s["orthogonality.is_orthogonal"] * 1e3),
            "ms",
        ),
        "orthogonality.is_orthogonal.calls": (per_op(iso_calls), "count"),
        "orthogonality.is_orthogonal.orthogonal_share": (
            iso["orthogonal"] / iso_calls if iso_calls else 0.0,
            "ratio",
        ),
        "orthogonality.is_orthogonal.witness_len_mean": (
            iso["witness_len"] / non_ortho if non_ortho else 0.0,
            "symbols",
        ),
        "oracle.brute_force.self_ms": (per_op(self_s["oracle.brute_force"] * 1e3), "ms"),
        "oracle.brute_force.words_scanned": (per_op(totals["oracle.brute_force"]["words_scanned"]), "count"),
        "fileformat.parse.self_ms": (per_op(self_s["fileformat.parse"] * 1e3), "ms"),
        "fileformat.parse.mb_per_s": (
            rate(totals["fileformat.parse"]["chars"] / 1e6, self_s["fileformat.parse"]),
            "MB/s",
        ),
        "fileformat.serialize.self_ms": (
            setup_self_s["fileformat.serialize"] * 1e3 / max(len(setups), 1),
            "ms",
        ),
        "core.language_equivalent.self_ms": (per_op(self_s["core.language_equivalent"] * 1e3), "ms"),
        "cli.main.self_ms": (per_op(self_s["cli.main"] * 1e3), "ms"),
        "runtime.gc_ms": (per_op(math.fsum(gc_pauses) * 1e3), "ms"),
        "runtime.gc_collections": (per_op(len(gc_pauses)), "count"),
    }
    return out
