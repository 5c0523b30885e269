"""Outside-in tracing of the irrseq layers.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
the public functions of each irrseq module for wrappers that record a
span (start, end, parent span) and restores the originals on
``uninstall``.  A function imported by value into another module
(``irrseq.sequence.factor_r``, ``irrseq.extfield.solve_nullspace``, the
package namespace) is patched under every name that holds it, so calls
from inside the package are seen no matter which name they go through.

Spans are kept in flat arrays while the traced phase runs and are
aggregated, and written out, only after it ends.  Some private kernels
get count-only wrappers (no span): they tell which multiplication and
composition paths actually ran without adding a span per call.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, qualified name) of every function that gets a span.  The
# metric prefix drops the package name and the leading underscore of
# ``_arith`` because metric names must start with a letter.
SPANNED = [
    ("_arith", "mul"),
    ("_arith", "sqr"),
    ("_arith", "series_inverse"),
    ("_arith", "ModCtx.reduce"),
    ("_arith", "ModCtx.powmod"),
    ("_arith", "ModCtx.compose"),
    ("_arith", "ModCtx.frob_power"),
    ("_arith", "ModCtx.norm_to_prime"),
    ("fp", "solve_nullspace"),
    ("poly", "FpPoly.r_transform"),
    ("poly", "FpPoly.is_irreducible"),
    ("extfield", "ExtField.is_square"),
    ("extfield", "ExtField.sqrt"),
    ("extfield", "ExtField.frobenius"),
    ("extfield", "ExtField.minimal_poly"),
    ("extfield", "factor_r"),
    ("sequence", "build_sequence"),
    ("graph", "build_graph"),
    ("graph", "_FieldOps.inverses"),
    ("graph", "verify_tree_structure"),
    ("graph", "conjugacy_check"),
]

MUL_PATHS = ("schoolbook", "packed4", "packed8", "wide")
COMPOSE_PATHS = ("trivial", "horner", "bsgs_f64", "bsgs_i64", "fallback")
STEP_DEGREES = tuple(2 ** k for k in range(12))


def metric_prefix(module: str, qualname: str) -> str:
    return f"{module.lstrip('_')}.{qualname}"


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, qual in SPANNED:
        pre = metric_prefix(module, qual)
        out += [(f"{pre}.calls", "count", "lower"),
                (f"{pre}.total_s", "s", "lower"),
                (f"{pre}.self_s", "s", "lower")]
    out += [(f"arith.mul.path.{k}", "count", "lower") for k in MUL_PATHS]
    out += [("arith.mul.operand_coeffs", "count", "lower"),
            ("arith.mul.kronecker_bytes_computed", "bytes", "lower")]
    out += [(f"arith.ModCtx.compose.path.{k}", "count", "lower") for k in COMPOSE_PATHS]
    out += [("arith.ModCtx.built", "count", "lower"),
            ("arith.ModCtx.frob_table.builds", "count", "lower"),
            ("arith.ModCtx.frob_table.hits", "count", "higher"),
            ("extfield.ExtField.is_square.route.direct", "count", "lower"),
            ("extfield.ExtField.is_square.route.norm", "count", "lower"),
            ("poly.FpPoly.is_irreducible.in_sequence.calls", "count", "lower"),
            ("poly.FpPoly.is_irreducible.in_sequence.total_s", "s", "lower"),
            ("poly.FpPoly.is_irreducible.in_factor_r.calls", "count", "lower"),
            ("poly.FpPoly.is_irreducible.in_factor_r.total_s", "s", "lower"),
            ("fp.solve_nullspace.dim_max", "count", "lower"),
            ("extfield.factor_r.outcome.split", "count", "lower"),
            ("extfield.factor_r.outcome.irreducible", "count", "lower"),
            ("graph._FieldOps.mul.calls", "count", "lower"),
            ("sequence.step.calls", "count", "lower")]
    out += [(f"sequence.step.d{d}.total_s", "s", "lower") for d in STEP_DEGREES]
    out += [("trace.passes", "count", "higher"),
            ("trace.spans", "count", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.top_level_coverage", "ratio", "higher")]
    return out


def _resolve(module, qualname: str):
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.degree: dict[int, int] = {}      # span id -> polynomial degree
        self.dim_max = 0
        self._undo: list[tuple[object, str, object]] = []
        self._frob_depth = 0
        self._compose_path: list[str | None] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def spanned(self, name: str, fn, after=None):
        """Wrap fn so every call records one span; ``after(sid, args, result)``
        runs after the call, outside the span's own timing."""
        nid = self._name_id(name)
        parent, names, t0, t1, stack = self.parent, self.name, self.t0, self.t1, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(t0)
            parent.append(stack[-1])
            names.append(nid)
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if after is not None:
                after(sid, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key: str):
        """Wrap fn to count its calls under ``key``; no span."""
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, new, modules) -> None:
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        # the same function object imported by value elsewhere
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self, irrseq) -> None:
        mods = {name: sys.modules[f"irrseq.{name}"]
                for name in ("_arith", "fp", "poly", "extfield", "sequence", "graph")}
        every = [irrseq] + list(mods.values())
        after_hooks = {
            "_arith.mul": self._after_mul,
            "_arith.sqr": self._after_sqr,
            "fp.solve_nullspace": self._after_nullspace,
            "poly.FpPoly.is_irreducible": self._after_is_irreducible,
            "_arith.ModCtx.norm_to_prime": self._after_norm,
            "extfield.factor_r": self._after_factor_r,
        }
        for module, qual in SPANNED:
            owner, attr = _resolve(mods[module], qual)
            fn = getattr(owner, attr)
            key = f"{module}.{qual}"
            if key == "extfield.ExtField.is_square":
                fn = self._route_probe(fn)
            if key == "_arith.ModCtx.compose":
                fn = self._compose_probe(fn)
            wrapped = self.spanned(metric_prefix(module, qual), fn, after_hooks.get(key))
            self._patch(owner, attr, wrapped, every)

        ar = mods["_arith"]
        self._patch(ar, "_mul_schoolbook",
                    self.counted(ar._mul_schoolbook, "mul.schoolbook"), every)
        self._patch(ar, "_mul_packed", self._kronecker_probe(ar._mul_packed, False), every)
        self._patch(ar, "_mul_wide", self._kronecker_probe(ar._mul_wide, True), every)
        self._patch(ar.ModCtx, "__init__", self.counted(ar.ModCtx.__init__, "modctx.built"),
                    every)
        self._patch(ar.ModCtx, "_matmul", self._matmul_probe(ar.ModCtx._matmul, ar), every)
        self._patch(ar.ModCtx, "_compose_horner",
                    self._horner_probe(ar.ModCtx._compose_horner), every)
        self._patch(ar.ModCtx, "frob_base", self._frob_probe(ar.ModCtx.frob_base), every)
        self._patch(ar.ModCtx, "_frob_table", self._frob_probe(ar.ModCtx._frob_table), every)
        gops = mods["graph"]._FieldOps
        self._patch(gops, "mul", self.counted(gops.mul, "fieldops.mul"), every)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- count hooks -------------------------------------------------------

    def _kronecker_probe(self, fn, wide: bool):
        counts = self.counts

        def probe(a, b, p, width):
            counts["mul.wide" if wide else f"mul.packed{width}"] += 1
            # operands plus product as packed integers (the wide product
            # gets one spare slot), computed from the sizes, not measured
            counts["mul.kron_bytes"] += (2 * (len(a) + len(b)) + wide) * width
            return fn(a, b, p, width)

        probe.__wrapped__ = fn
        return probe

    def _after_mul(self, sid, args, result) -> None:
        self.counts["mul.operand_coeffs"] += len(args[0]) + len(args[1])

    def _after_sqr(self, sid, args, result) -> None:
        self.counts["mul.operand_coeffs"] += 2 * len(args[0])

    def _after_nullspace(self, sid, args, result) -> None:
        self.dim_max = max(self.dim_max, len(args[0]))

    def _after_is_irreducible(self, sid, args, result) -> None:
        self.degree[sid] = args[0].degree

    def _after_norm(self, sid, args, result) -> None:
        self.counts["norm_calls"] += 1

    def _after_factor_r(self, sid, args, result) -> None:
        self.counts["factor_r.irreducible" if result.is_irreducible
                    else "factor_r.split"] += 1

    def _route_probe(self, fn):
        c = self.counts

        def probe(*args, **kwargs):
            before = c["norm_calls"]
            result = fn(*args, **kwargs)
            c["is_square.norm" if c["norm_calls"] > before else "is_square.direct"] += 1
            return result

        return probe

    def _compose_probe(self, fn):
        paths = self._compose_path
        c = self.counts

        def probe(*args, **kwargs):
            paths.append(None)
            try:
                return fn(*args, **kwargs)
            finally:
                c["compose." + (paths.pop() or "trivial")] += 1

        return probe

    def _matmul_probe(self, fn, ar):
        paths = self._compose_path

        def probe(ctx, G, H):
            result = fn(ctx, G, H)
            bound = G.shape[1] * (ctx.p - 1) * (ctx.p - 1)
            if result is None:
                path = "fallback"
            elif bound < ar._FLOAT_MATMUL_BOUND:
                path = "bsgs_f64"
            else:
                path = "bsgs_i64"
            if paths:
                paths[-1] = path
            return result

        return probe

    def _horner_probe(self, fn):
        paths = self._compose_path

        def probe(*args, **kwargs):
            if paths and paths[-1] is None:
                paths[-1] = "horner"
            return fn(*args, **kwargs)

        return probe

    def _frob_probe(self, fn):
        c = self.counts

        def probe(ctx, *args):
            self._frob_depth += 1
            before = len(ctx._frob_sq or ())
            try:
                return fn(ctx, *args)
            finally:
                self._frob_depth -= 1
                if self._frob_depth == 0:
                    grown = len(ctx._frob_sq or ()) - before
                    c["frob.builds"] += grown
                    c["frob.hits"] += grown == 0

        return probe

    # -- aggregation -------------------------------------------------------

    def aggregate(self, traced_wall_s: float, untraced_wall_s: float, passes: int,
                  phase_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.  The two
        wall times are median pass times at nominal machine speed; span
        times are raw seconds, and ``phase_s`` is the raw traced phase."""
        n = len(self.t0)
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = t1 - t0
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        has_parent = parent >= 0
        child_of = name[parent[has_parent]]
        self_s = total - np.bincount(child_of, weights=dur[has_parent], minlength=k)
        m: dict[str, float] = {}
        for i, nm in enumerate(self.names):
            m[f"{nm}.calls"] = int(calls[i])
            m[f"{nm}.total_s"] = float(total[i])
            m[f"{nm}.self_s"] = float(self_s[i])

        c = self.counts
        for path in MUL_PATHS:
            m[f"arith.mul.path.{path}"] = c[f"mul.{path}"]
        m["arith.mul.operand_coeffs"] = c["mul.operand_coeffs"]
        m["arith.mul.kronecker_bytes_computed"] = c["mul.kron_bytes"]
        for path in COMPOSE_PATHS:
            m[f"arith.ModCtx.compose.path.{path}"] = c[f"compose.{path}"]
        m["arith.ModCtx.built"] = c["modctx.built"]
        m["arith.ModCtx.frob_table.builds"] = c["frob.builds"]
        m["arith.ModCtx.frob_table.hits"] = c["frob.hits"]
        m["extfield.ExtField.is_square.route.direct"] = c["is_square.direct"]
        m["extfield.ExtField.is_square.route.norm"] = c["is_square.norm"]
        m["fp.solve_nullspace.dim_max"] = self.dim_max
        m["extfield.factor_r.outcome.split"] = c["factor_r.split"]
        m["extfield.factor_r.outcome.irreducible"] = c["factor_r.irreducible"]
        m["graph._FieldOps.mul.calls"] = c["fieldops.mul"]
        m.update(self._irreducible_callers(t0, t1, parent, name))
        m.update(self._steps(t0, t1, parent, name))
        top = float(dur[~has_parent].sum())
        m["trace.passes"] = passes
        m["trace.spans"] = n
        m["trace.wall_s"] = traced_wall_s
        m["trace.untraced_wall_s"] = untraced_wall_s
        m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        m["trace.top_level_coverage"] = top / phase_s
        return m

    def _id(self, name: str) -> int:
        return self.names.index(name)

    def _irreducible_callers(self, t0, t1, parent, name) -> dict[str, float]:
        irr = self._id("poly.FpPoly.is_irreducible")
        callers = {self._id("extfield.factor_r"): "in_factor_r",
                   self._id("sequence.build_sequence"): "in_sequence"}
        out = {f"poly.FpPoly.is_irreducible.{k}.{s}": 0
               for k in ("in_sequence", "in_factor_r") for s in ("calls", "total_s")}
        for sid in np.flatnonzero(name == irr):
            up = parent[sid]
            while up >= 0 and name[up] not in callers:
                up = parent[up]
            if up >= 0:
                key = f"poly.FpPoly.is_irreducible.{callers[name[up]]}"
                out[f"{key}.calls"] += 1
                out[f"{key}.total_s"] += float(t1[sid] - t0[sid])
        return out

    def _steps(self, t0, t1, parent, name) -> dict[str, float]:
        # A build's steps partition its span: step k runs from the end of
        # step k-1 (or the start of the build) to the end of the Rabin
        # re-verification of the member it produced.
        out = {f"sequence.step.d{d}.total_s": 0.0 for d in STEP_DEGREES}
        out["sequence.step.calls"] = 0
        build = self._id("sequence.build_sequence")
        irr = self._id("poly.FpPoly.is_irreducible")
        for b in np.flatnonzero(name == build):
            start = t0[b]
            for sid in np.flatnonzero((parent == b) & (name == irr)):
                key = f"sequence.step.d{self.degree[int(sid)]}.total_s"
                if key in out:
                    out[key] += float(t1[sid] - start)
                out["sequence.step.calls"] += 1
                start = t1[sid]
        return out

    def write(self, path) -> None:
        """Save every span to an .npz: ``parent`` (-1 for a top-level span,
        whose index is also the request id of everything under it),
        ``name`` (an index into ``names``), ``t0`` and ``t1`` in seconds of
        ``time.perf_counter``.  A span's id is its index."""
        np.savez(path, parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 t0=np.frombuffer(self.t0, dtype=np.float64),
                 t1=np.frombuffer(self.t1, dtype=np.float64),
                 names=np.array(self.names))
