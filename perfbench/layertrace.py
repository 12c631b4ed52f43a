"""Per-layer tracing of overrank from outside the package.

``Tracer().install()`` wraps the entry points named in ``TRACED`` after
``overrank`` is imported.  Each wrapper records one span per call: name,
start, end, parent span and request id (the registry entry being verified).
Spans stay in memory until ``write_spans``; ``layer_metrics`` reduces them to
the per-layer metrics the benchmark reports.

Three rules keep the wrappers honest as the package changes:

* every alias of a wrapped function in every ``overrank.*`` module is rebound
  (``from .series import mul`` makes a second name for the same object);
* a ``functools.lru_cache`` object is kept, so its ``cache_info()`` still
  reports the real hits and misses;
* a name that no longer exists is reported as absent, never as a crash.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# module -> entry points; "Class.method" names a method.  Orchestrators are
# wrapped too, so that their own work is not charged to the registry.
TRACED: Dict[str, tuple] = {
    "series": ("add", "mul", "inverse", "substitute_power", "extract_progression",
               "first_mismatch", "LaurentSeries.scale", "LaurentSeries.shift",
               "LaurentSeries.truncate"),
    "products": ("_poch_raw", "p_mono", "theta", "triple_product", "verify_lemma31",
                 "verify_hickerson", "verify_addition"),
    "lambert": ("lambert_sum", "g_series", "s_bar", "check_sigma_shift", "check_step",
                "check_short", "check_constant", "check_gees", "check_g2", "check_g1",
                "check_part1", "verify_lemma41"),
    "combinat": ("rank_table", "nbar_class_series", "nbar_series", "pbar_series", "nbar",
                 "nbar_class"),
    "rankdiff": ("eval_terms", "rank_diff_formula", "rank_diff_oracle",
                 "s_bar_b_decomposition", "s_bar_final_form", "brackets",
                 "verify_sbar_closed", "combination_lhs", "combination_rank_side",
                 "combination_theorem_side", "verify_check"),
    "report": ("compare", "merge"),
    "registry": ("list_identities", "verify"),
}

# metric prefix for entry points whose name is an implementation detail
ALIASES = {"products._poch_raw": "products.poch"}

CACHED = ("combinat.rank_table", "combinat.nbar_class_series")


class _SeriesStats:
    """Counters over the outputs of mul and inverse, and mul's schoolbook demand."""

    def __init__(self):
        self.demand_ops = 0
        self.max_len = 0
        self.max_bits = 0
        self.outputs = 0
        self.frac_outputs = 0
        self.poch_ops = 0

    def scan(self, result) -> None:
        bits = self.max_bits
        frac = False
        for c in result.coeffs:
            if type(c) is int:
                b = c.bit_length()
            else:
                frac = True
                b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
        self.max_bits = bits
        self.outputs += 1
        self.frac_outputs += frac

    def mul(self, result, a, b):
        # multiply-adds of the schoolbook product: every nonzero of the sparser
        # operand against every nonzero of the other that lands in the window
        if a.coeffs and b.coeffs:
            na = sum(1 for c in a.coeffs if c)
            nb = sum(1 for c in b.coeffs if c)
            if nb < na:
                a, b = b, a
            n = min(a.order + b.min_exp, b.order + a.min_exp) - a.min_exp - b.min_exp
            prefix = [0]
            for c in b.coeffs:
                prefix.append(prefix[-1] + (1 if c else 0))
            lb = len(b.coeffs)
            ops = 0
            for i, c in enumerate(a.coeffs):
                if c and i < n:
                    ops += prefix[min(lb, n - i)]
            self.demand_ops += ops
            self.max_len = max(self.max_len, n)
        self.scan(result)

    def inverse(self, result, a):
        self.scan(result)

    def poch(self, result, sign, r, m, order):
        # coefficient updates of the factor-by-factor expansion of (sign q^r; q^m)
        e = r
        while e < order and m > 0:
            if e == 0:
                if sign == 1:
                    return
                self.poch_ops += order
            else:
                self.poch_ops += order - e
            e += m


class Tracer:
    """Spans of one process.  ``request`` is the id of the entry being verified."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, request]
        self.stack: List[int] = []
        self.request = "setup"
        self.overhead = 0.0
        self.stats = _SeriesStats()
        self.names: List[str] = []
        self.absent: List[str] = []
        self.caches: Dict[str, object] = {}
        self._patched: List[tuple] = []
        self.t0 = time.perf_counter()

    def wrap(self, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            t_in = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
            if probe is not None:
                probe(result, *args, **kwargs)
            self.overhead += (start - t_in) + (clock() - end)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "overrank" or mod_name.startswith("overrank.")):
                continue
            for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)
                                  and v.__module__ == mod_name]:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every entry point in TRACED; call after ``import overrank``."""
        probes = {"series.mul": self.stats.mul, "series.inverse": self.stats.inverse,
                  "products._poch_raw": self.stats.poch}
        for module, names in TRACED.items():
            try:
                mod = importlib.import_module(f"overrank.{module}")
            except ImportError:
                self.absent.extend(f"{module}.{n}" for n in names)
                continue
            for qual in names:
                full = f"{module}.{qual}"
                owner = mod
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    self.absent.append(full)
                    continue
                if full in CACHED and hasattr(fn, "cache_info"):
                    self.caches[full] = fn
                self.names.append(full)
                self._rebind(fn, self.wrap(full, fn, probes.get(full)))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Duration of each span minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self) -> dict:
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        modules: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
        out = {}
        for full in self.names + self.absent:
            key = ALIASES.get(full, full)
            out[f"{key}.calls"] = calls[full]
            out[f"{key}.self_s"] = self_s[full]
            modules[full.split(".")[0]] += self_s[full]
        for module in TRACED:
            out[f"{module}.self_s"] = modules[module]
        st = self.stats
        out["series.mul.demand_ops"] = st.demand_ops
        out["series.mul.max_len"] = st.max_len
        out["series.mul.ns_per_op"] = (self_s["series.mul"] * 1e9 / st.demand_ops
                                       if st.demand_ops else 0.0)
        out["series.max_coeff_bits"] = st.max_bits
        out["series.frac_share"] = st.frac_outputs / st.outputs if st.outputs else 0.0
        out["products.poch.demand_ops"] = st.poch_ops
        for full in CACHED:
            info = self.caches[full].cache_info() if full in self.caches else None
            out[f"{full}.misses"] = info.misses if info else 0
            out[f"{full}.hits"] = info.hits if info else 0
        out["trace.overhead_s"] = self.overhead
        return out

    def per_request(self) -> dict:
        """Self time by module for every request id: the per-entry breakdown."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            out[span[4]][span[0].split(".")[0]] += own
        return {req: dict(mods) for req, mods in out.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent,
                                     "request": request}) + "\n")
