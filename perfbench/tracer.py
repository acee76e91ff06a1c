"""Spans around calls into the program's layers, recorded from outside it.

``Tracer.install`` replaces each traced public function at every name under
which the program looks it up at call time: ``rcassoc.kernels.*``,
``numpy.linalg.*`` and ``scipy.linalg.*`` are module attributes read on each
call, while ``estimation`` imports ``apply_plan``, ``rank_residual`` and
``rank_residual_jacobian`` by name and ``cli`` imports ``fit`` and the
analysis functions by name, so those are patched in the importing module.
The patches are installed around one traced operation at a time, opened
with ``Tracer.op``.  Spans stay in flat in-memory arrays until ``save``
writes them out.
"""

import functools
from array import array
from time import perf_counter

import numpy as np

KERNELS = (
    "gamma_values",
    "gamma_jacobian_values",
    "marginal_logit_values",
    "marginal_logit_jacobian",
    "lor_values",
    "gamma_values_batch",
    "lor_values_batch",
)
FACTORIZATIONS = ("linalg.matrix_rank", "linalg.lstsq", "linalg.null_space", "linalg.qr")


def _sites():
    """(span name, attribute, modules patched) for every traced function."""
    import numpy.linalg
    import scipy.linalg

    from rcassoc import analysis, cli, estimation, kernels

    out = [(f"kernels.{n}", n, (kernels,)) for n in KERNELS]
    out.append(("estimation.fit", "fit", (estimation, cli)))
    out += [(f"rank.{n}", n, (estimation,))
            for n in ("rank_residual", "apply_plan", "rank_residual_jacobian")]
    out += [(f"linalg.{n}", n, (numpy.linalg,)) for n in ("matrix_rank", "lstsq", "solve")]
    out += [(f"linalg.{n}", n, (scipy.linalg,)) for n in ("null_space", "qr")]
    out += [(f"analysis.{n}", n, (analysis, cli))
            for n in ("reconstruct", "extract_invariants", "dependence_report")]
    out.append(("analysis.collect_nonnegative_gamma_tables",
                "collect_nonnegative_gamma_tables", (analysis,)))
    out.append(("interactions.gamma_matrix_batch", "gamma_matrix_batch", (analysis,)))
    out.append(("cli.main", "main", (cli,)))
    return out


class Tracer:
    """Single-threaded span recorder; parent links give the call tree."""

    def __init__(self):
        self.names = ["op"]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        # per-span facts read from arguments or results at the boundary
        self.fit_iterations = {}
        self.tables = {}
        self.accepted = {}
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def op(self, fn):
        """Run one operation as a root span and return its result."""
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self.stack.pop()

    def _wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        note = self._note_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if note is not None:
                note(idx, out)
            return out

        return traced

    def _note_for(self, name):
        if name == "estimation.fit":
            return lambda idx, out: self.fit_iterations.__setitem__(idx, out.iterations)
        if name in ("kernels.gamma_values_batch", "kernels.lor_values_batch"):
            return lambda idx, out: self.tables.__setitem__(idx, out.shape[0])
        if name == "interactions.gamma_matrix_batch":
            def note(idx, out):
                self.tables[idx] = out.shape[0]
                self.accepted[idx] = int(np.all(out >= 0.0, axis=(1, 2)).sum())
            return note
        return None

    def install(self):
        """Patch every traced name; the same wrappers are reused on each call."""
        if not self._patched:
            wrappers = {}
            for name, attr, modules in _sites():
                for mod in modules:
                    original = getattr(mod, attr)
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(name, original)
                    self._patched.append((mod, attr, original, wrappers[id(original)]))
        for mod, attr, _, wrapper in self._patched:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in reversed(self._patched):
            setattr(mod, attr, original)

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    # -- derived per-layer metrics -------------------------------------------

    def layer_metrics(self):
        """Per-layer figures over every recorded span (see README.md)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_list, parent_list = self.name.tolist(), self.parent.tolist()
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = names.size
        child = np.zeros(n)
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        self_time = dur - child
        ids = {name: i for i, name in enumerate(self.names)}

        def is_(name):
            return names == ids.get(name, -1)

        # nearest enclosing span of a kind; parents precede children
        def ancestor(name):
            target = ids.get(name, -1)
            anc = [-1] * n
            for i in range(n):
                if name_list[i] == target:
                    anc[i] = i
                elif parent_list[i] >= 0:
                    anc[i] = anc[parent_list[i]]
            return np.array(anc, dtype=np.int64)

        under_fit = ancestor("estimation.fit") >= 0
        under_recon = ancestor("analysis.reconstruct") >= 0
        under_collect = ancestor("analysis.collect_nonnegative_gamma_tables") >= 0

        def mean(values, scale):
            return float(values.mean() * scale) if values.size else 0.0

        def ratio(a, b):
            return float(a / b) if b else 0.0

        def per_call(name, scale):
            return mean(dur[is_(name)], scale)

        def per_table(name):
            sel = np.flatnonzero(is_(name))
            return ratio(dur[sel].sum() * 1e9, sum(self.tables[i] for i in sel))

        fits = int(is_("estimation.fit").sum())
        iterations = sum(self.fit_iterations.values())
        gamma_calls = is_("kernels.gamma_values")
        kernel = np.zeros(n, dtype=bool)
        for k in KERNELS:
            kernel |= is_(f"kernels.{k}")
        linalg = np.zeros(n, dtype=bool)
        factorizations = np.zeros(n, dtype=bool)
        for i, name in enumerate(self.names):
            if name.startswith("linalg."):
                linalg |= names == i
                if name in FACTORIZATIONS:
                    factorizations |= names == i
        recon = int(is_("analysis.reconstruct").sum())
        batches = np.flatnonzero(is_("interactions.gamma_matrix_batch") & under_collect)
        return {
            "kernels.gamma_values.us_per_call": per_call("kernels.gamma_values", 1e6),
            "kernels.gamma_jacobian_values.us_per_call":
                per_call("kernels.gamma_jacobian_values", 1e6),
            "kernels.marginal_logit_jacobian.us_per_call":
                per_call("kernels.marginal_logit_jacobian", 1e6),
            "kernels.jacobian_calls_per_gamma_call": ratio(
                (is_("kernels.gamma_jacobian_values") & under_fit).sum(),
                (gamma_calls & under_fit).sum()),
            "kernels.gamma_values_batch.ns_per_table": per_table("kernels.gamma_values_batch"),
            "kernels.lor_values_batch.ns_per_table": per_table("kernels.lor_values_batch"),
            "kernels.share": ratio(dur[kernel].sum(), dur[is_("op")].sum()),
            "estimation.iterations_per_fit": ratio(iterations, fits),
            "estimation.workspaces_per_iteration":
                ratio((gamma_calls & under_fit).sum(), iterations),
            "estimation.fit.self_ms": mean(self_time[is_("estimation.fit")], 1e3),
            "linalg.factorizations_per_iteration":
                ratio((factorizations & under_fit).sum(), iterations),
            "linalg.ms_per_fit": ratio(dur[linalg & under_fit].sum() * 1e3, fits),
            "rank.rank_residual_jacobian.us_per_call":
                per_call("rank.rank_residual_jacobian", 1e6),
            "rank.apply_plan.calls_per_fit": ratio((is_("rank.apply_plan") & under_fit).sum(), fits),
            "analysis.reconstruct.workspaces_per_call":
                ratio((gamma_calls & under_recon).sum(), recon),
            "analysis.reconstruct.self_ms": mean(self_time[is_("analysis.reconstruct")], 1e3),
            "analysis.dependence_report.ms_per_call":
                per_call("analysis.dependence_report", 1e3),
            "analysis.collect.acceptance": ratio(
                sum(self.accepted[i] for i in batches), sum(self.tables[i] for i in batches)),
            "interactions.gamma_matrix_batch.self_us":
                mean(self_time[is_("interactions.gamma_matrix_batch")], 1e6),
            "cli.fit.self_ms": mean(self_time[is_("cli.main")], 1e3),
        }
