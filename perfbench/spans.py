"""Outside-in spans around the public functions of each pvi layer.

`instrument` replaces, in every loaded pvi module, each listed public
function (and the listed MultiPoly methods) by a wrapper that records a span.
Nothing in pvi is edited; calls the program makes between its own layers are
caught because they go through the same module attributes.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import random
import sys
from array import array
from time import perf_counter

# (span name, module, attribute, index of the tau argument for elliptic bands)
ENTRIES = (
    ("orbits.same_orbit", "pvi.orbits", "same_orbit", None),
    ("orbits.orbit_partition", "pvi.orbits", "orbit_partition", None),
    ("orbits.enumerate_orbit", "pvi.orbits", "enumerate_orbit", None),
    ("orbits.standard_form", "pvi.orbits", "standard_form", None),
    ("orbits.orbit_to_curve", "pvi.verifier", "orbit_to_curve", None),
    ("curves.master_poly", "pvi.curves", "master_poly", None),
    ("curves.signed_sum_product", "pvi.curves", "signed_sum_product", None),
    ("curves.verify_kummer_equivalence", "pvi.curves", "verify_kummer_equivalence", None),
    ("curves.derive_quartics", "pvi.curves", "derive_quartics", None),
    ("curves.verify_uniformization", "pvi.curves", "verify_uniformization", None),
    ("curves.apply_symmetry", "pvi.curves", "apply_symmetry", None),
    ("curves.is_irreducible", "pvi.curves", "is_irreducible", None),
    ("elliptic.picard_eval", "pvi.elliptic", "picard_eval", 1),
    ("elliptic.reduction_residual", "pvi.elliptic", "reduction_residual", 2),
    ("elliptic.triple_check", "pvi.elliptic", "triple_check", 1),
    ("elliptic.invariants_at", "pvi.elliptic", "invariants_at", 0),
    ("verifier.verify_curve", "pvi.verifier", "verify_curve", None),
    ("verifier.classify", "pvi.verifier", "classify", None),
)

MULTIPOLY_METHODS = (
    ("multipoly.mul", ("__mul__", "__rmul__")),
    ("multipoly.pow", ("__pow__",)),
    ("multipoly.subs", ("subs",)),
    ("multipoly.call", ("__call__",)),
    ("multipoly.str", ("__str__", "__repr__")),
    ("multipoly.eq", ("__eq__",)),
)

BAND_EDGE = 0.5  # Im tau splitting elliptic spans and outcome counts into two bands


def band(tau) -> str:
    return "low_im" if complex(tau).imag < BAND_EDGE else "high_im"


class Tracer:
    """Span recorder: per-name call counts, self time and sampled durations."""

    SPAN_CAP = 100_000
    SAMPLE_CAP = 20_000

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, durations]
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next = 0
        self._rng = random.Random(0)
        self.op = -1

    def enter(self, name: str) -> None:
        self._stack.append([self._next, name, perf_counter(), 0.0])
        self._next += 1

    def exit(self) -> None:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self._record(name, 1, dur - child, (dur,))
        if len(self.spans) < self.SPAN_CAP:
            self.spans.append((sid, name, start, end, parent[0] if parent else -1, self.op))
        else:
            self.dropped += 1

    def _record(self, name, calls, self_s, durations) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, array("d"), 0]
        st[0] += calls
        st[1] += self_s
        for d in durations:  # reservoir sample of durations for the median
            st[3] += 1
            if len(st[2]) < self.SAMPLE_CAP:
                st[2].append(d)
            else:
                k = self._rng.randrange(st[3])
                if k < self.SAMPLE_CAP:
                    st[2][k] = d

    def wrap(self, name: str, fn, tau_index=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if tau_index is not None:
                tau = kwargs["tau"] if "tau" in kwargs else args[tau_index]
                span = f"{name}@{band(tau)}"
            self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def export(self) -> dict:
        return {
            "stats": {n: [s[0], s[1], list(s[2])] for n, s in self.stats.items()},
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, data: dict) -> None:
        """Fold in the export of a traced subprocess under the open span."""
        base = self._next
        host = self._stack[-1] if self._stack else None
        for name, (calls, self_s, durations) in data["stats"].items():
            self._record(name, calls, self_s, durations)
        for sid, name, start, end, parent, _ in data["spans"]:
            if parent < 0 and host is not None:
                host[3] += end - start
            if len(self.spans) < self.SPAN_CAP:
                parent = base + parent if parent >= 0 else (host[0] if host else -1)
                self.spans.append((base + sid, name, start, end, parent, self.op))
            else:
                self.dropped += 1
            self._next = max(self._next, base + sid + 1)
        self.dropped += data["dropped"]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")


def instrument(tracer: Tracer) -> None:
    """Route every listed pvi entry point through a span of `tracer`."""
    from pvi.multipoly import MultiPoly

    modules = [m for n, m in list(sys.modules.items()) if n == "pvi" or n.startswith("pvi.")]
    for name, module, attr, tau_index in ENTRIES:
        orig = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(name, orig, tau_index)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
    for name, methods in MULTIPOLY_METHODS:
        wrapped = tracer.wrap(name, getattr(MultiPoly, methods[0]))
        for method in methods:
            setattr(MultiPoly, method, wrapped)
    parse = MultiPoly.__dict__["parse"].__func__
    MultiPoly.parse = classmethod(tracer.wrap("multipoly.parse", parse))
