"""Timing spans around primelattice's public functions, installed from outside.

A Recorder replaces each traced function on its defining module, and on every
package module that imported it by name, with a wrapper that records a span:
name, start, end, parent span and op id.  Spans stay in memory until the run
collects them; ``layer_metrics`` folds a list of spans into per-layer figures.
Layers are the package modules.  A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

# layer -> traced names; "Class.method" names are patched on the class
TRACED = {
    "cli": ["run"],
    "sieve": ["build_table", "ArithTable.primes", "ArithTable.is_prime_array", "pi_exact",
              "capital_pi_exact", "j_exact", "mu", "von_mangoldt", "isqrt_array"],
    "tuples": ["pi_k", "pi_k_power", "capital_pi_k", "localization_sum", "factor_sorted"],
    "lattice": ["gauss_circle_count", "divisor_hyperbola_count", "ball3_count",
                "count_under_graph", "error_exponent_fit"],
    "special": ["ei_complex", "ei_real", "rs_z", "li", "li_quadrature", "zeta_real"],
    "explicit": ["riemann_pi_explicit", "capital_pi_explicit", "perron_truncated",
                 "prime_zeta", "verify_zero_table", "ei_k"],
    "quadrature": ["integrate"],
    "density": ["singular_series", "average_capital_pi_k"],
}

MIB = float(1 << 20)


def _attrs(name: str, args: tuple, result) -> dict:
    """Sizes and counts read off a traced call, recorded with its span."""
    if name == "sieve.build_table":
        return {"entries": result.limit, "table": id(result), "bytes": result.spf.nbytes}
    if name in ("sieve.ArithTable.primes", "sieve.ArithTable.is_prime_array"):
        return {"table": id(args[0]), "bytes": result.nbytes}
    if name == "explicit.perron_truncated":
        return {"panels": result.panels}
    return {}


_WITH_ATTRS = {"sieve.build_table", "sieve.ArithTable.primes",
               "sieve.ArithTable.is_prime_array", "explicit.perron_truncated"}


class Recorder:
    """Collects spans from wrapped package functions; install/uninstall swap them."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent span or None, op, attrs]
        self.op = None
        self._main = threading.get_ident()
        self._main_stack: list = []
        self._local = threading.local()
        self._patches: list = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name: str, fn):
        spans, clock, main_stack = self.spans, time.perf_counter, self._main_stack
        local, main, rec_self = self._local, self._main, self
        with_attrs = name in _WITH_ATTRS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() == main:
                stack = main_stack
            else:
                stack = local.__dict__.setdefault("stack", [])
            # a pool thread's outermost span belongs to the call that fanned out
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            rec = [name, 0.0, 0.0, parent, rec_self.op, None]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if with_attrs:
                rec[5] = _attrs(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        mods = {n: m for n, m in sys.modules.items()
                if n == "primelattice" or n.startswith("primelattice.")}
        for layer, names in TRACED.items():
            home = mods[f"primelattice.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    owner = getattr(home, cls_name)
                    orig = owner.__dict__[meth]
                    self._patch(owner, meth, orig, self._wrap(f"{layer}.{qual}", orig))
                    continue
                orig = getattr(home, qual)
                wrapper = self._wrap(f"{layer}.{qual}", orig)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, wrapper))

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        del self.spans[:]
        return out


def _covered(parent_start: float, parent_end: float, intervals: list) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, parent_start), min(hi, parent_end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def fold(spans: list) -> dict:
    """Per-name time and calls, per-layer self time, and recorded sizes."""
    children: dict = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(id(rec[3]), []).append((rec[1], rec[2]))
    out: dict = {"time": {}, "calls": {}, "self": {}, "panels": 0, "entries": 0,
                 "table_bytes": {}}
    for name, start, end, _, _, _ in spans:
        out["time"][name] = out["time"].get(name, 0.0) + (end - start)
        out["calls"][name] = out["calls"].get(name, 0) + 1
    for rec in spans:
        name, start, end = rec[0], rec[1], rec[2]
        layer = name.split(".", 1)[0]
        kids = children.get(id(rec), ())
        self_t = (end - start) - (_covered(start, end, kids) if kids else 0.0)
        out["self"][layer] = out["self"].get(layer, 0.0) + self_t
        attrs = rec[5]
        if attrs:
            out["panels"] += attrs.get("panels", 0)
            out["entries"] += attrs.get("entries", 0)
            if "table" in attrs:
                tb = out["table_bytes"].setdefault(attrs["table"], {})
                tb[name] = max(tb.get(name, 0), attrs["bytes"])
    return out


def merge(folds: list) -> dict:
    """One fold for several processes' folds (a cli_cold pass)."""
    out: dict = {"time": {}, "calls": {}, "self": {}, "panels": 0, "entries": 0,
                 "table_bytes": {}, "interp": 0.0, "import": 0.0}
    for i, f in enumerate(folds):
        for key in ("time", "calls", "self"):
            for name, v in f[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for key in ("panels", "entries", "interp", "import"):
            out[key] += f.get(key, 0)
        for table, sizes in f["table_bytes"].items():
            out["table_bytes"][f"{i}:{table}"] = sizes
    return out


def span_rows(spans: list, base: float = 0.0) -> list:
    """Spans as JSON-able rows with parent indices, for writing out."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    return [[name, round(start - base, 9), round(end - base, 9),
             index.get(id(parent), -1) if parent is not None else -1, op]
            for name, start, end, parent, op, _ in spans]


def layer_metrics(setup: dict, passes: list) -> dict:
    """Per-layer figures: set-up's share plus the median traced pass's share.

    ``setup`` and each entry of ``passes`` are ``fold`` results.  Names match
    the per-layer metrics of BENCHMARK.json that come from spans.
    """
    def med(get):
        vals = [get(p) for p in passes] or [0.0]
        return get(setup) + statistics.median(vals)

    def t(name):
        return med(lambda f: f["time"].get(name, 0.0))

    def calls(name):
        return med(lambda f: f["calls"].get(name, 0))

    def self_s(layer):
        return med(lambda f: f["self"].get(layer, 0.0))

    def table_mb(f):
        return max((sum(v.values()) for v in f["table_bytes"].values()), default=0) / MIB

    m = {
        "cli.interp_s": med(lambda f: f.get("interp", 0.0)),
        "cli.import_s": med(lambda f: f.get("import", 0.0)),
        "cli.run_s": t("cli.run"),
        "cli.self_s": self_s("cli"),
    }
    build_s = t("sieve.build_table")
    entries = med(lambda f: f["entries"])
    m["sieve.build_table.s"] = build_s
    m["sieve.build_table.calls"] = calls("sieve.build_table")
    m["sieve.build_table.entries_per_s"] = entries / build_s if build_s > 0 else 0.0
    m["sieve.primes.s"] = t("sieve.ArithTable.primes")
    m["sieve.is_prime_array.s"] = t("sieve.ArithTable.is_prime_array")
    m["sieve.table_mb"] = max([table_mb(setup)] + [table_mb(p) for p in passes])
    for fn in ("pi_exact", "capital_pi_exact", "j_exact", "mu", "isqrt_array"):
        m[f"sieve.{fn}.s"] = t(f"sieve.{fn}")
    for fn in ("pi_k", "pi_k_power", "capital_pi_k", "localization_sum", "factor_sorted"):
        m[f"tuples.{fn}.s"] = t(f"tuples.{fn}")
    for fn in ("gauss_circle_count", "divisor_hyperbola_count", "ball3_count",
               "count_under_graph", "error_exponent_fit"):
        m[f"lattice.{fn}.s"] = t(f"lattice.{fn}")
    ei_s, ei_calls = t("special.ei_complex"), calls("special.ei_complex")
    m["special.ei_complex.s"] = ei_s
    m["special.ei_complex.calls"] = ei_calls
    m["special.ei_complex.us_per_call"] = 1e6 * ei_s / ei_calls if ei_calls else 0.0
    m["special.ei_real.calls"] = calls("special.ei_real")
    m["special.rs_z.calls"] = calls("special.rs_z")
    for fn in ("riemann_pi_explicit", "capital_pi_explicit", "perron_truncated",
               "prime_zeta", "verify_zero_table"):
        m[f"explicit.{fn}.s"] = t(f"explicit.{fn}")
    m["explicit.perron_truncated.panels"] = med(lambda f: f["panels"])
    m["quadrature.integrate.s"] = t("quadrature.integrate")
    m["quadrature.integrate.calls"] = calls("quadrature.integrate")
    for fn in ("singular_series", "average_capital_pi_k"):
        m[f"density.{fn}.s"] = t(f"density.{fn}")
    for layer in ("sieve", "tuples", "lattice", "special", "explicit", "quadrature",
                  "density"):
        m[f"{layer}.self_s"] = self_s(layer)
    return m
