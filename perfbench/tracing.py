"""Layer tracing from outside the library.

``Tracer.install()`` replaces each traced public function with a wrapper at
every place a ``loccoh`` module (or the package itself) imports it, e.g.
``loccoh.extmult.bott`` and ``loccoh.verify.enumerate_weights``.  Calls a
module makes to its own functions (the recursion inside ``enumerate_box``,
``lcd`` calling ``support_poly``) are not separate layer crossings and stay
unwrapped.  ``uninstall()`` puts the originals back.

Wrappers record only while a root span is open; the benchmark's own
correctness checks run after the pass, with the wrappers removed.  Per layer
the tracer keeps calls, items yielded (generators), nonzero results (bott),
inclusive seconds and self seconds (span time minus child spans).  Root
spans, one per request with its id, are kept in memory together with a
per-layer summary of the calls made under them, and written out at the
end; nested calls are folded into those summaries because a single pass
makes about a million of them.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path

from hostref import clock

MODULES = ("partitions", "qseries", "bott", "characters", "extmult", "cohomology", "verify", "cli")

# (layer name, defining module, attribute, kind); kind "gen" marks a
# generator, whose self time is the time spent inside its next() calls.
FUNCTIONS = (
    ("partitions.partition", "partitions", "partition", "call"),
    ("partitions.weight", "partitions", "weight", "call"),
    ("partitions.enumerate_box", "partitions", "enumerate_box", "gen"),
    ("partitions.partitions_of_size", "partitions", "partitions_of_size", "gen"),
    ("partitions.enumerate_weights", "partitions", "enumerate_weights", "gen"),
    ("qseries.gauss", "qseries", "gauss", "call"),
    ("qseries.gauss_enum", "qseries", "gauss_enum", "call"),
    ("bott.bott", "bott", "bott", "call"),
    ("characters.member", "characters", "member", "call"),
    ("characters.witness_weight", "characters", "witness_weight", "call"),
    ("characters.filtration_check", "characters", "filtration_check", "call"),
    ("extmult.witness_ext_closed", "extmult", "witness_ext_closed", "call"),
    ("extmult.witness_ext_enum", "extmult", "witness_ext_enum", "call"),
    ("extmult.witness_ext_bott", "extmult", "witness_ext_bott", "call"),
    ("extmult.ext_character", "extmult", "ext_character", "call"),
    ("cohomology.support_poly", "cohomology", "support_poly", "call"),
    ("cohomology.support_poly_from_ext", "cohomology", "support_poly_from_ext", "call"),
    ("cohomology.lcd", "cohomology", "lcd", "call"),
    ("cohomology.top_support", "cohomology", "top_support", "call"),
    ("cli.main", "cli", "main", "call"),
)

# LaurentPoly arithmetic: one class shared by every module, wrapped on the class.
METHODS = (
    ("qseries.LaurentPoly.add", ("__add__", "__radd__")),
    ("qseries.LaurentPoly.mul", ("__mul__", "__rmul__")),
    ("qseries.LaurentPoly.divexact", ("divexact",)),
)


class Stat:
    __slots__ = ("calls", "items", "nonzero", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = self.items = self.nonzero = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    def __init__(self) -> None:
        # one [child seconds, excluded seconds] frame per open span; an
        # empty stack means "not recording"
        self.stack: list[list[float]] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.roots: list[dict] = []
        self._root_stats: dict[str, list] | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- root spans -------------------------------------------------------

    def begin(self) -> None:
        self._root_stats = defaultdict(lambda: [0, 0.0])
        self.stack.append([0.0, 0.0])

    def end(self, req_id, kind: str, start: float, end: float) -> None:
        self.stack.pop()
        self.roots.append({
            "id": req_id, "kind": kind, "start": start, "end": end,
            "layers": {k: [v[0], round(v[1], 9)] for k, v in sorted(self._root_stats.items())},
        })
        self._root_stats = None

    def exclude(self, seconds: float) -> None:
        """Take time spent outside the library (a host-speed sample) out of
        the innermost open span and of every span around it."""
        if self.stack:
            self.stack[-1][0] += seconds
            self.stack[-1][1] += seconds

    def _account(self, layer: str, frame: list[float], dt: float) -> Stat:
        parent = self.stack[-1]
        parent[0] += dt
        parent[1] += frame[1]
        st = self.stats[layer]
        self_s = dt - frame[0]
        st.self_s += self_s
        st.total_s += dt - frame[1]
        rs = self._root_stats[layer]
        rs[0] += 1
        rs[1] += self_s
        return st

    # -- wrappers ---------------------------------------------------------

    def wrap_call(self, layer: str, fn, count_nonzero: bool = False):
        stack = self.stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = self._account(layer, frame, dt)
                st.calls += 1
            if count_nonzero and out is not None:
                st.nonzero += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, layer: str, fn):
        stack = self.stack

        def drive(it):
            self.stats[layer].calls += 1
            while True:
                frame = [0.0, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    # also when the generator body raises
                    dt = clock() - t0
                    stack.pop()
                    st = self._account(layer, frame, dt)
                st.items += 1
                yield item

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            return drive(it) if stack else it

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        pkg = importlib.import_module("loccoh")
        mods = {m: importlib.import_module(f"loccoh.{m}") for m in MODULES}
        verify = mods["verify"]
        # every layer reports, with zeros where a workload never enters it
        for layer in ([f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
                      + [f"verify.{name}" for name in verify.CHECKS]):
            self.stats[layer] = Stat()
        for layer, home, attr, kind in FUNCTIONS:
            original = getattr(mods[home], attr)
            if kind == "gen":
                wrapper = self.wrap_gen(layer, original)
            else:
                wrapper = self.wrap_call(layer, original, count_nonzero=(layer == "bott.bott"))
            sites = [pkg] + [mod for name, mod in mods.items() if name != home]
            for site in sites:
                if getattr(site, attr, None) is original:
                    self._set(site, attr, wrapper)
            if home == "cli":
                # the benchmark is the caller of cli.main
                self._set(mods[home], attr, wrapper)
        poly = mods["qseries"].LaurentPoly
        for layer, names in METHODS:
            for name in names:
                self._set(poly, name, self.wrap_call(layer, getattr(poly, name)))
        for name, (fn, tag) in list(verify.CHECKS.items()):
            verify.CHECKS[name] = (self.wrap_call(f"verify.{name}", fn), tag)
            self._restore.append((verify.CHECKS, name, (fn, tag)))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({**header, "spans": self.roots}, fh)
