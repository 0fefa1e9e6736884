"""In-process traced run of one workload's command sequence.

Run as ``python bench/tracer.py PLAN OUT TRACED`` with ``src`` on the
import path. PLAN is a JSON object ``{"run": id, "out_dir": ...,
"commands": [argv, ...]}``. The sequence runs once through
``qselect.cli.main``, from an empty output directory; with TRACED = 1
the package's public functions are first wrapped in spans. OUT receives
the wall time of the sequence, the exit codes, the artifact digests, and
when traced every span, the aggregated per-document calls and the
feature counts behind ``importance.features_*``. The runner starts one
untraced and one traced process, so both passes start equally cold.

Names are patched where their caller looks them up (``qselect.cli`` for
the names it imports at module level), so the program itself is not
changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import shutil
import sys
import threading
import time
from pathlib import Path

import qselect.cli as cli
import qselect.optimizer as optimizer
import qselect.proxy as proxy
import qselect.signals as signals
from qselect.gbt import GradientBoostedRegressor
from qselect.importance import features
from qselect.matrix import ScoreMatrix
from qselect.proxy import CommandTrainer

from checks import artifact_digests


class Tracer:
    """In-memory span recorder with a parent stack per thread.

    A span opened on a thread with an empty stack (a campaign worker)
    takes the innermost open span of the main thread as its parent.
    Per-document calls are aggregated per (name, parent) into a count and
    busy time instead of one span each.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self.run_id = ""
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._next_id = 0

    def _parent(self) -> tuple[list[int], int | None]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack, stack[-1]
        main = self._stacks.get(self._main) or [None]
        return stack, main[-1]

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so that each call records one span.

        ``attrs(args, result)`` returns counts for the span; it runs after
        the span has ended, so its cost is not part of the span.
        """

        def wrapper(*args, **kwargs):
            stack, parent = self._parent()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            stack.append(span_id)
            record = {"id": span_id, "name": name, "parent": parent, "run": self.run_id,
                      "thread": threading.get_ident(), "failed": 0}
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                record["failed"] = 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                record["start"], record["end"] = start, end
                if attrs is not None and not record["failed"]:
                    record.update(attrs(args, result))
                with self._lock:
                    self.spans.append(record)

        return wrapper

    def aggregate(self, name, fn, keep=None):
        """Wrap a per-document function: count calls and busy time per parent.

        ``keep`` receives the arguments of each call after its timer stops.
        """

        def wrapper(*args, **kwargs):
            _, parent = self._parent()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            busy = time.perf_counter() - start
            entry = self.aggregates.setdefault((name, parent), [0, 0.0])
            entry[0] += 1
            entry[1] += busy
            if keep is not None:
                keep(args)
            return result

        return wrapper


def install(tracer: Tracer, scored_docs: list) -> None:
    """Patch the traced names for the rest of this process."""
    patches = [
        (cli, "load_corpus", tracer.span(
            "corpus.load", cli.load_corpus,
            lambda a, r: {"docs": len(r[0]), "rejected": len(r[1].errors), "bytes": os.path.getsize(a[0])})),
        (cli, "write_corpus", tracer.span(
            "corpus.write", cli.write_corpus, lambda a, r: {"bytes": os.path.getsize(a[1])})),
        (signals, "compute_signals", tracer.aggregate("signals.compute", signals.compute_signals)),
        (cli, "fit_bag_model", tracer.span("importance.fit", cli.fit_bag_model)),
        (cli, "importance_score", tracer.aggregate(
            "importance.score", cli.importance_score, lambda a: scored_docs.append(a[0]))),
        (ScoreMatrix, "from_documents", classmethod(tracer.span(
            "matrix.build", ScoreMatrix.__dict__["from_documents"].__func__))),
        (cli, "ingest_ratings", tracer.span("matrix.ingest", cli.ingest_ratings)),
        (cli, "impute_missing", tracer.span(
            "matrix.impute", cli.impute_missing, lambda a, r: {"cells": len(r)})),
        (cli, "rank_normalize", tracer.span("matrix.normalize", cli.rank_normalize)),
        (cli, "spearman_matrix", tracer.span("matrix.spearman", cli.spearman_matrix)),
        (cli, "run_campaign", tracer.span(
            "proxy.campaign", cli.run_campaign, lambda a, r: {"experiments": len(r)})),
        (CommandTrainer, "__call__", tracer.span("proxy.trainer", CommandTrainer.__call__)),
        (optimizer, "fit_gradient_boosted", tracer.span(
            "gbt.fit", optimizer.fit_gradient_boosted, lambda a, r: {"trees": r.n_trees})),
        (GradientBoostedRegressor, "predict", tracer.span(
            "gbt.predict", GradientBoostedRegressor.predict,
            lambda a, r: {"rows": len(r), "trees": a[0].n_trees})),
        (cli, "fit_regressor", tracer.span("optimizer.fit_regressor", cli.fit_regressor)),
        (cli, "search_optimal", tracer.span("optimizer.search", cli.search_optimal)),
        (cli, "pca_landscape", tracer.span("optimizer.landscape", cli.pca_landscape)),
    ]

    def selection_attrs(args, result):
        return {"selected": len(result.selected_ids), "shortfalls": len(result.shortfalls)}

    for module in (cli, proxy):
        patches.append((module, "select_top_k", tracer.span(
            "selection.select", module.select_top_k, selection_attrs)))
    for owner, attr, new in patches:
        setattr(owner, attr, new)


def run_pass(commands: list[list[str]], out_dir: Path, run) -> tuple[float, list[int]]:
    """Run the sequence from an empty output directory; return wall and exit codes."""
    shutil.rmtree(out_dir, ignore_errors=True)
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in commands:
            try:
                codes.append(run(argv))
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                logging.getLogger("bench").error("command %s raised %r", argv[0], exc)
                codes.append(-1)
    return time.perf_counter() - start, codes


def main(plan_path: str, out_path: str, traced: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    out_dir = Path(plan["out_dir"])
    # The CLI configures logging on its first call; route it to a file first.
    logging.basicConfig(
        level=logging.INFO,
        filename=str(Path(out_path).with_suffix(".log")),
        format="%(levelname)s %(name)s: %(message)s",
    )
    tracer = Tracer()
    scored_docs: list = []
    run = cli.main
    if traced == "1":
        install(tracer, scored_docs)
        traced_main = tracer.span("cli.main", cli.main)

        def run(argv):
            tracer.run_id = f"{plan['run']}/{argv[0]}"
            return traced_main(argv)

    wall_s, codes = run_pass(plan["commands"], out_dir, run)

    # Feature counts behind importance.features_*: every occurrence the
    # per-call hashing does today, and the distinct features a per-run
    # bucket cache would still hash. Counted after the pass, untimed.
    distinct: set[str] = set()
    total = 0
    for doc in scored_docs:
        feats = features(doc.text)
        total += len(feats)
        distinct.update(feats)

    result = {
        "wall_s": wall_s,
        "codes": codes,
        "digests": artifact_digests(out_dir),
        "spans": tracer.spans,
        "aggregates": [
            {"name": name, "parent": parent, "calls": calls, "busy_s": busy}
            for (name, parent), (calls, busy) in tracer.aggregates.items()
        ],
        "features_total": total,
        "features_distinct": len(distinct),
    }
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
