"""Per-layer spans recorded from outside relalg.

`Tracer.install` wraps the public functions of each relalg module, by
name, in every `relalg.*` namespace that binds them, and `uninstall` puts
the originals back.  Each call records a span (name, start, end, parent
span, request id) in memory.  A name that no longer exists is reported as
absent with zero calls, so the benchmark keeps running when a function is
deleted or inlined.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

# Module -> wrapped names.  `AtomStructure.validation` is a cached
# property: its span is the one computation of the cycle law, the identity
# law and the associativity scan for a structure.
LAYERS = {
    "cli": ["main"],
    "formats": ["parse_atom_structure", "parse_group_action",
                "parse_concrete_algebra", "format_atom_structure",
                "format_concrete_algebra", "format_group_action"],
    "actions": ["build_group", "pair_orbits", "rel_algebra"],
    "concrete": ["ConcreteAlgebra.invariant_violations",
                 "extract_atom_structure"],
    "atoms": ["AtomStructure.validation", "check_z2_axioms"],
    "pairdense": ["derive_points_twins", "classify_atoms"],
    "decision": ["decide_z2", "find_isomorphism", "check_action_represents",
                 "verify_decision", "IsoWitness.problems"],
}
SEARCH = "decision.find_isomorphism"


def layer_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in LAYERS.items()
            for name in names]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    request: int
    error: str | None = None  # exception class name, if the call raised
    returned_none: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            span.returned_none = result is None
            return result
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "relalg" or k.startswith("relalg.")]
        for mod_name, names in LAYERS.items():
            module = sys.modules.get(f"relalg.{mod_name}")
            for name in names:
                full = f"{mod_name}.{name}"
                cls_name, _, attr = name.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                orig = getattr(owner, "__dict__", {}).get(attr)
                if orig is None:
                    self.absent.append(full)
                elif isinstance(orig, functools.cached_property):
                    prop = functools.cached_property(
                        self._wrap(full, orig.func))
                    prop.__set_name__(owner, attr)
                    self._patch(owner, attr, prop)
                elif cls_name:
                    self._patch(owner, attr, self._wrap(full, orig))
                else:
                    traced = self._wrap(full, orig)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is orig:
                                self._patch(ns, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def layer_metrics(self) -> dict[str, float]:
        """calls, total_s, self_s and failed per wrapped name, plus the
        search's found ratio and budget-exceeded count."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for name in layer_names():
            out.update({f"{name}.calls": 0, f"{name}.total_s": 0.0,
                        f"{name}.self_s": 0.0, f"{name}.failed": 0})
        found = exceeded = 0
        for k, s in enumerate(self.spans):
            dur = s.end - s.start
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.total_s"] += dur
            out[f"{s.name}.self_s"] += dur - child[k]
            out[f"{s.name}.failed"] += s.error is not None
            if s.name == SEARCH:
                found += s.error is None and not s.returned_none
                exceeded += s.error == "SearchBudgetExceeded"
        calls = out[f"{SEARCH}.calls"]
        out[f"{SEARCH}.found_ratio"] = found / calls if calls else 0.0
        out[f"{SEARCH}.budget_exceeded"] = exceeded
        return out
