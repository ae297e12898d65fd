"""Span tracing of rnramsey from outside the package.

`Tracer.install` swaps the public functions listed in `WRAPPED` for timing wrappers
in every `rnramsey` module namespace that binds them (the package itself, the
defining module, and every module that imported the name), and `uninstall` puts the
originals back.  Each wrapped call becomes one span row: name, parent row, start,
end, busy time, time covered by child spans, an outcome status and up to two counts
taken from the return value.  A generator (`iter_copies`) is one span whose busy
time is the sum of its resumptions, so the consumer's time between items is not
charged to it.  Rows live in flat arrays until `clear`; `write` dumps them.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

WRAPPED = {
    "structures": ("make_rn_graph", "make_ordered_poset"),
    "analysis": ("is_ell_rn", "find_bad_quasicycle", "transitive_closure", "is_good"),
    "embeddings": ("enumerate_copies", "iter_copies", "is_embedding"),
    "arrow": ("check_arrow", "find_monochromatic", "oracle_ramsey"),
    "partite": ("product_construction",),
    "construction": ("run_partite_construction", "build_tower", "finish_stage"),
    "io": ("save_structure", "load_structure"),
    "cli": ("main",),
}
GENERATORS = frozenset({"iter_copies"})

# span status codes
OK, RESOURCE, NOT_FOUND, ERROR, CLOSED_EARLY = range(5)


def _counts(name: str, result, args) -> tuple[int, int]:
    """Work counts read off a wrapped call's return value (and, for io, its file)."""
    if name in ("make_rn_graph", "make_ordered_poset"):
        return result.n, 0
    if name == "check_arrow":
        return result.nodes_explored, int(result.holds)
    if name == "product_construction":
        return len(result.lifts), result.base_witness.n
    if name in ("save_structure", "load_structure"):
        return Path(args[0]).stat().st_size, 0
    return 0, 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer_of: dict[str, str] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.child = array("d")
        self.status = array("b")
        self.v1 = array("q")
        self.v2 = array("q")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, now: float) -> int:
        row = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.child.append(0.0)
        self.status.append(OK)
        self.v1.append(0)
        self.v2.append(0)
        return row

    def _close(self, row: int, now: float, busy: float, status: int, v1=0, v2=0) -> None:
        self.end[row] = now
        self.busy[row] = busy
        self.status[row] = status
        self.v1[row] = v1
        self.v2[row] = v2
        parent = self.parent[row]
        if parent >= 0:
            self.child[parent] += busy

    def _status_of(self, exc: BaseException) -> int:
        kind = type(exc).__name__
        if kind == "ResourceExceeded":
            return RESOURCE
        if kind == "NotFoundWithinBounds":
            return NOT_FOUND
        return ERROR

    def _wrap_call(self, name: str, fn):
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            row = self._open(name_id, t0)
            stack.append(row)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                now = clock()
                stack.pop()
                self._close(row, now, now - t0, self._status_of(exc))
                raise
            now = clock()
            stack.pop()
            self._close(row, now, now - t0, OK, *_counts(name, result, args))
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            row = self._open(name_id, clock())
            busy = 0.0
            items = 0
            status = CLOSED_EARLY
            try:
                while True:
                    t0 = clock()
                    stack.append(row)
                    try:
                        item = next(gen)
                    except StopIteration:
                        status = OK
                        return
                    except BaseException as exc:
                        status = self._status_of(exc)
                        raise
                    finally:
                        stack.pop()
                        busy += clock() - t0
                    items += 1
                    yield item
            finally:
                gen.close()
                self._close(row, clock(), busy, status, items)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every listed function; returns the names that could not be found."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "rnramsey" or key.startswith("rnramsey."))
        ]
        missing = []
        for module_name, funcs in WRAPPED.items():
            home = sys.modules.get(f"rnramsey.{module_name}")
            for name in funcs:
                original = getattr(home, name, None) if home is not None else None
                if not callable(original):
                    missing.append(f"{module_name}.{name}")
                    continue
                self.layer_of[name] = module_name
                make = self._wrap_generator if name in GENERATORS else self._wrap_call
                wrapper = make(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Dump the rows as gzipped TSV: row, name, parent, start, end, busy, self,
        status, v1, v2 (times in seconds on the perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("row\tname\tparent\tstart\tend\tbusy\tself\tstatus\tv1\tv2\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{names[self.name[i]]}\t{self.parent[i]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.busy[i]:.9f}\t"
                    f"{self.busy[i] - self.child[i]:.9f}\t{self.status[i]}\t"
                    f"{self.v1[i]}\t{self.v2[i]}\n"
                )


# Deterministic counters that must repeat exactly between two traced passes.
DETERMINISTIC = (
    "embeddings.copies",
    "arrow.search_nodes",
    "arrow.oracle_candidates",
    "partite.lifts",
    "construction.picture_vertices",
)


def summarize(t: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of the recorded rows, and self time per layer.

    Self time is a span's busy time minus the busy time of its child spans.  Layers
    are the rnramsey modules, with embeddings split into enumeration and the
    `is_embedding` check.
    """
    names = t.names
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    busy_s = dict.fromkeys(names, 0.0)
    ok = dict.fromkeys(names, 0)
    v1 = dict.fromkeys(names, 0)
    v2 = dict.fromkeys(names, 0)
    resource = dict.fromkeys(names, 0)
    nested_ell = candidates = rounds = picture = 0
    name_col, parent_col, busy_col, child_col = t.name, t.parent, t.busy, t.child
    status_col, v1_col, v2_col = t.status, t.v1, t.v2
    for i in range(len(name_col)):
        n = names[name_col[i]]
        p = parent_col[i]
        parent = names[name_col[p]] if p >= 0 else ""
        calls[n] += 1
        busy = busy_col[i]
        busy_s[n] += busy
        self_s[n] += busy - child_col[i]
        status = status_col[i]
        if status == RESOURCE:
            resource[n] += 1
        if status not in (OK, CLOSED_EARLY):
            continue
        ok[n] += 1
        v1[n] += v1_col[i]
        v2[n] += v2_col[i]
        if n == "find_bad_quasicycle" and parent == "is_ell_rn":
            nested_ell += 1
        elif n == "check_arrow" and parent == "oracle_ramsey":
            candidates += 1
        elif n == "product_construction" and parent == "run_partite_construction":
            rounds += 1
        elif n == "make_rn_graph" and parent == "run_partite_construction":
            picture = max(picture, v1_col[i])

    def get(table, *fns):
        return sum(table.get(fn, 0) for fn in fns)

    holds = get(v2, "check_arrow")
    metrics = {
        "structures.build_calls": get(calls, "make_rn_graph", "make_ordered_poset"),
        "structures.build_s": get(self_s, "make_rn_graph", "make_ordered_poset"),
        "analysis.ell_calls": get(calls, "is_ell_rn", "find_bad_quasicycle") - nested_ell,
        "analysis.ell_s": get(self_s, "is_ell_rn", "find_bad_quasicycle"),
        "analysis.closure_s": get(self_s, "transitive_closure", "is_good"),
        "embeddings.enum_calls": get(calls, "iter_copies"),
        "embeddings.copies": get(v1, "iter_copies"),
        "embeddings.enum_s": get(self_s, "enumerate_copies", "iter_copies"),
        "embeddings.check_calls": get(calls, "is_embedding"),
        "embeddings.check_s": get(self_s, "is_embedding"),
        "arrow.check_calls": get(calls, "check_arrow"),
        "arrow.check_self_s": get(self_s, "check_arrow"),
        "arrow.search_nodes": get(v1, "check_arrow"),
        "arrow.holds": holds,
        "arrow.fails": get(ok, "check_arrow") - holds,
        "arrow.budget_stops": get(resource, "check_arrow"),
        "arrow.replay_s": get(busy_s, "find_monochromatic"),
        "arrow.oracle_candidates": candidates,
        "arrow.oracle_self_s": get(self_s, "oracle_ramsey"),
        "arrow.oracle_yield": get(ok, "oracle_ramsey") / candidates if candidates else 0.0,
        "partite.product_calls": get(calls, "product_construction"),
        "partite.product_self_s": get(self_s, "product_construction"),
        "partite.lifts": get(v1, "product_construction"),
        "partite.witness_vertices": get(v2, "product_construction"),
        "construction.rounds": rounds,
        "construction.run_self_s": get(self_s, "run_partite_construction"),
        "construction.picture_vertices": picture,
        "construction.finish_s": get(busy_s, "finish_stage"),
        "construction.tower_self_s": get(self_s, "build_tower"),
        "io.write_bytes": get(v1, "save_structure"),
        "io.write_s": get(busy_s, "save_structure"),
        "io.read_bytes": get(v1, "load_structure"),
        "io.read_s": get(busy_s, "load_structure"),
        "cli.self_s": get(self_s, "main"),
    }
    layers: dict[str, float] = {}
    for n in names:
        layer = t.layer_of[n]
        if n == "is_embedding":
            layer = "embeddings.check"
        elif layer == "embeddings":
            layer = "embeddings.enum"
        layers[layer] = layers.get(layer, 0.0) + self_s[n]
    return metrics, layers
