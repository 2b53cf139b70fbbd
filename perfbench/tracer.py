"""Spans around calls into qpoints' layers, recorded from outside the program.

`Tracer.install` replaces each traced function or method with a wrapper
that records a span: layer key, start, end and the key of the enclosing
span.  qpoints itself is not modified; every module binding of a traced
function is patched, so calls through `from .x import f` names are seen too.

A call made while a span of the same key is open is folded into that span,
so a key's time is never counted twice.  A key's self time is its span time
minus the time covered by spans of other keys opened inside it.  Spans of
the high-frequency keys (scalar arithmetic, lattice steps, per-mask
canonicalization) are aggregated only; all other spans are kept in memory
and returned by `summary`.
"""

from __future__ import annotations

import importlib
import sys
from math import comb

#: (module, function, layer key).  The same key on several functions makes
#: them one layer.
FUNCTIONS = (
    ("cli", "main", "cli"),
    ("scalars", "qmatrix_from_json", "scalars.parse"),
    ("scalars", "parse_scalar", "scalars"),
    ("variety", "good_triples", "variety.good_triples"),
    ("variety", "components", "variety.components"),
    ("adequacy", "adequate_masks", "adequacy.sweep"),
    ("adequacy", "enumerate_adequate", "adequacy.enumerate"),
    ("triples", "_perm_mask_tables", "triples.tables"),
    ("triples", "mask_images", "triples.canon"),
    ("triples", "canonical_mask", "triples.canon"),
    ("triples", "canonical_mask_orbit", "triples.canon"),
    ("lattice", "smith_normal_form", "lattice.snf"),
    ("lattice", "closure", "lattice.closure"),
    ("degeneration", "enumerate_nodes", "degeneration.nodes"),
    ("degeneration", "build_graph", "degeneration.graph"),
    ("degeneration", "transitive_reduction", "degeneration.reduction"),
    ("realize", "realize", "realize.class"),
    ("realize", "generic_point_of_node", "realize.generic_point"),
)

#: (module, class, method, layer key).
METHODS = (
    ("scalars", "GroupScalar", "__post_init__", "scalars"),
    ("scalars", "GroupScalar", "__mul__", "scalars"),
    ("scalars", "GroupScalar", "inverse", "scalars"),
    ("scalars", "GroupScalar", "__pow__", "scalars"),
    ("scalars", "GroupScalar", "substitute", "scalars"),
    ("scalars", "QMatrix", "__post_init__", "scalars"),
    ("scalars", "QMatrix", "entry", "scalars"),
    ("scalars", "QMatrix", "b", "scalars"),
    ("scalars", "QMatrix", "conjugate", "scalars"),
    ("scalars", "QMatrix", "substitute", "scalars"),
    ("lattice", "SubLattice", "add", "lattice.add"),
    ("lattice", "SubLattice", "contains", "lattice.contains"),
)

#: Keys whose spans are aggregated but not kept one by one.
HOT = frozenset({"scalars", "lattice.add", "lattice.contains", "triples.canon"})


def sweep_bytes(n: int, adequate: int) -> int:
    """Bytes the adequacy sweep touches, computed from its array sizes.

    The sweep over N = 2^C(n+1,3) masks allocates an int64 mask array and a
    bool flag array, then for each of the (n-2) * C(n+1,3) (index, triple)
    witness pairs makes seven whole-array passes reading and writing
    72 bytes per mask; the final selection reads 10 and writes 1 byte per
    mask plus 8 per adequate mask.
    """
    nt = comb(n + 1, 3)
    masks = 1 << nt
    witnesses = (n - 2) * nt
    return 9 * masks + witnesses * 72 * masks + 11 * masks + 8 * adequate


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock  # a SpeedClock's now(): spans in nominal seconds
        self.stack: list[list] = []  # open spans: [key, time covered by child spans]
        self.depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.child_time: dict[tuple[str, str], float] = {}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.objects = 0  # GroupScalar constructions, nested ones included
        self.facts = {
            "sweep_masks": 0,
            "sweep_adequate": 0,
            "sweep_bytes": 0,
            "table_bytes": 0,
            "extensions": 0,
            "nodes": 0,
            "verify_s": 0.0,
        }
        self._tables_seen: set[int] = set()

    # -- observers: facts taken from arguments and results of outermost calls

    def _observe(self, key: str, args: tuple, result, duration: float) -> None:
        facts = self.facts
        if key == "adequacy.sweep":
            n = int(args[0])
            facts["sweep_masks"] += 1 << comb(n + 1, 3)
            facts["sweep_adequate"] += len(result)
            facts["sweep_bytes"] += sweep_bytes(n, len(result))
        elif key == "triples.tables" and args[0] not in self._tables_seen:
            self._tables_seen.add(args[0])
            facts["table_bytes"] += sum(a.nbytes for a in result[:2])
        elif key == "lattice.add" and self.depth["degeneration.nodes"]:
            facts["extensions"] += 1
        elif key == "degeneration.nodes":
            facts["nodes"] += len(result)
        elif key == "variety.good_triples" and self.depth["realize.class"]:
            facts["verify_s"] += duration

    def wrap(self, fn, key: str):
        stack, depth, spans = self.stack, self.depth, self.spans
        calls, total, self_time, child_time = self.calls, self.total, self.self_time, self.child_time
        keep = key not in HOT
        observe = self._observe
        clock = self.clock
        counts_objects = fn.__qualname__ == "GroupScalar.__post_init__"
        for table in (depth, calls, total, self_time):
            table.setdefault(key, 0)

        def traced(*args, **kwargs):
            if counts_objects:
                self.objects += 1
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] = 1
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[key] = 0
                duration = end - start
                parent = stack[-1][0] if stack else None
                if parent is not None:
                    stack[-1][1] += duration
                    child_time[(parent, key)] = child_time.get((parent, key), 0.0) + duration
                calls[key] += 1
                total[key] += duration
                self_time[key] += duration - frame[1]
                if keep:
                    spans.append((key, start, end, parent))
            observe(key, args, result, duration)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function and method of the loaded qpoints."""
        modules = [m for name, m in sys.modules.items() if name == "qpoints" or name.startswith("qpoints.")]
        for module_name, attr, key in FUNCTIONS:
            original = getattr(importlib.import_module(f"qpoints.{module_name}"), attr)
            wrapped = self.wrap(original, key)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
        for module_name, cls_name, attr, key in METHODS:
            cls = getattr(importlib.import_module(f"qpoints.{module_name}"), cls_name)
            setattr(cls, attr, self.wrap(cls.__dict__[attr], key))

    def summary(self) -> dict:
        """Per-layer figures of one traced pass."""
        t, c, f = self.total, self.calls, self.facts
        graph_children = self.child_time.get(("degeneration.graph", "degeneration.nodes"), 0.0) + self.child_time.get(
            ("degeneration.graph", "degeneration.reduction"), 0.0
        )
        class_times = sorted(end - start for key, start, end, _ in self.spans if key == "realize.class")
        return {
            "scalars.objects": self.objects,
            "scalars.self_s": self.self_time["scalars"],
            "scalars.parse_s": t["scalars.parse"],
            "variety.good_triples.calls": c["variety.good_triples"],
            "variety.good_triples.s": t["variety.good_triples"],
            "variety.components.calls": c["variety.components"],
            "variety.components.s": t["variety.components"],
            "adequacy.sweep.s": t["adequacy.sweep"],
            "adequacy.sweep.masks": f["sweep_masks"],
            "adequacy.sweep.yield": f["sweep_adequate"] / f["sweep_masks"] if f["sweep_masks"] else 0.0,
            "adequacy.sweep.bytes_computed": f["sweep_bytes"],
            "adequacy.canon.s": self.self_time["adequacy.enumerate"],
            "triples.tables.s": t["triples.tables"],
            "triples.tables.bytes": f["table_bytes"],
            "triples.canon.calls": c["triples.canon"],
            "triples.canon.s": self.self_time["triples.canon"],
            "lattice.add.calls": c["lattice.add"],
            "lattice.add.s": t["lattice.add"],
            "lattice.contains.calls": c["lattice.contains"],
            "lattice.contains.s": t["lattice.contains"],
            "lattice.snf.calls": c["lattice.snf"],
            "lattice.snf.s": t["lattice.snf"],
            "lattice.closure.calls": c["lattice.closure"],
            "lattice.closure.s": t["lattice.closure"],
            "degeneration.nodes.s": t["degeneration.nodes"],
            "degeneration.arrows.s": t["degeneration.graph"] - graph_children,
            "degeneration.reduction.s": t["degeneration.reduction"],
            "degeneration.extensions": f["extensions"],
            "degeneration.dedupe.yield": f["nodes"] / f["extensions"] if f["extensions"] else 0.0,
            "realize.class_s.p50": class_times[len(class_times) // 2] if class_times else 0.0,
            "realize.class_s.max": class_times[-1] if class_times else 0.0,
            "realize.verify.s": f["verify_s"],
            "realize.generic_point.calls": c["realize.generic_point"],
            "realize.generic_point.s": t["realize.generic_point"],
            "cli.self_s": self.self_time["cli"],
        }
