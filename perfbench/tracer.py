"""Spans around the public functions of each ``repro`` layer, from outside.

:class:`Tracer` replaces every module attribute bound to a traced
function with a wrapper, so the jobs' own orchestration runs unchanged.
Each wrapper

* opens a span named after the layer and makes that name the Spark job
  group, restoring the enclosing group on exit;
* persists and counts a returned Spark DataFrame inside the span, so
  Spark's lazy work lands in the layer that defined it and not in
  whichever caller runs the action;
* keeps the arguments and result of the layers whose computed counts
  (``pairs``, ``keys_per_member``) are derived after the pass.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from harness import JOB_GROUP, Span

#: Job group of the tracer's own bookkeeping jobs, kept out of every layer.
BOOKKEEPING = "trace"


def _rows(out) -> int | None:
    """Row count of a layer's output, materializing a Spark DataFrame."""
    if isinstance(out, DataFrame):
        out.persist()
        return out.count()
    if isinstance(out, (pd.DataFrame, np.ndarray, dict)):
        return len(out)
    return None


def _recipe_pairs(recipes: DataFrame) -> int:
    """Σ n(n−1)/2 over a DataFrame with one row per recipe."""
    return int(recipes.select(F.sum(F.col("n") * (F.col("n") - 1) / 2)).first()[0] or 0)


def _member_pairs(exploded: DataFrame) -> int:
    """Σ n(n−1)/2 over the recipes of a one-row-per-member DataFrame."""
    return round(exploded.select(F.sum((F.col("n") - 1) / 2)).first()[0] or 0)


def keys_and_kept(inputs: dict, model: str, n_rand: int) -> tuple[float, float]:
    """Expected Gumbel keys drawn and ingredients kept by one model call.

    ``random``/``frequency`` draw one key per pool member for each recipe
    and keep a recipe size; the category models draw one key per member
    of every category the template recipe uses and keep the template's
    size.  Sums over regions, ``n_rand`` recipes each.
    """
    keys = kept = 0.0
    for inp in inputs.values():
        if model in ("random", "frequency"):
            keys += n_rand * len(inp.pool)
            kept += n_rand * float(np.mean(inp.sizes))
        else:
            members = np.bincount(inp.cat_idx, minlength=inp.cat_comp.shape[1])
            used = inp.cat_comp > 0
            keys += n_rand * float(np.mean(used @ members))
            kept += n_rand * float(np.mean(inp.cat_comp.sum(axis=1)))
    return keys, kept


class Tracer:
    """Wraps the traced functions of one pass and records their spans."""

    #: Layers whose calls are kept for the counts computed after the pass.
    KEEP_CALLS = (
        "core.pairing.recipe_scores_fast",
        "core.contribution.ingredient_contributions",
        "core.randomize.random_recipes",
    )

    def __init__(self, sc, targets: dict[str, str]):
        self.sc = sc
        self.targets = targets
        self.spans: list[Span] = []
        self.calls: dict[str, list[tuple[inspect.BoundArguments, object]]] = {
            name: [] for name in self.KEEP_CALLS
        }
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        prev_group = self.sc.getLocalProperty(JOB_GROUP)
        self.sc.setLocalProperty(JOB_GROUP, name)
        s = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.sc.setLocalProperty(JOB_GROUP, prev_group)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                s.rows_out = _rows(out)
            if name in self.calls:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.calls[name].append((bound, out))
            return out

        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a traced function.

        A target that no longer exists is skipped; it reports 0 calls.
        """
        for name, target in self.targets.items():
            module_name, attr = target.rsplit(".", 1)
            try:
                orig = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(name, orig)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, orig))

    def uninstall(self) -> None:
        for module, key, orig in reversed(self._patched):
            setattr(module, key, orig)
        self._patched.clear()

    @contextmanager
    def _bookkeeping(self):
        """Run the tracer's own Spark jobs outside every layer's job group."""
        self.sc.setLocalProperty(JOB_GROUP, BOOKKEEPING)
        try:
            yield
        finally:
            self.sc.setLocalProperty(JOB_GROUP, None)

    def random_recipes_short(self) -> list[str]:
        """Models whose call returned other than ``n_rand`` recipes per region.

        The Fig. 4 table carries no random-recipe count, so the traced
        pass is where ``n_recipes == n_rand`` is checked.
        """
        with self._bookkeeping():
            return [
                b.arguments["model"]
                for b, out in self.calls["core.randomize.random_recipes"]
                if out.count() != len(b.arguments["inputs"]) * b.arguments["n_rand"]
            ]

    def computed_counts(self) -> dict[str, dict[str, float]]:
        """``pairs`` and ``keys_per_member`` per layer, from the kept calls.

        Runs its Spark jobs on the layers' still-cached outputs; call it
        before clearing the cache.
        """
        with self._bookkeeping():
            scored = self.calls["core.pairing.recipe_scores_fast"]
            contrib = self.calls["core.contribution.ingredient_contributions"]
            keys = kept = 0.0
            for b, _ in self.calls["core.randomize.random_recipes"]:
                k, m = keys_and_kept(b.arguments["inputs"], b.arguments["model"], b.arguments["n_rand"])
                keys, kept = keys + k, kept + m
            return {
                "core.pairing.recipe_scores_fast": {
                    "pairs": sum(_recipe_pairs(res) for _, res in scored)
                },
                "core.contribution.ingredient_contributions": {
                    "pairs": sum(_member_pairs(b.arguments["exploded"]) for b, _ in contrib)
                },
                "core.randomize.random_recipes": {
                    "keys_per_member": keys / kept if kept else 0.0
                },
            }
