"""Pipeline benchmark for qselect.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed
(see gen.py). With ``--trace 0`` the workload's command sequence runs as
separate ``python -m qselect.cli`` processes, the way users run it,
again and again for about S seconds; every pass starts with a
``--version`` call that measures start-up. With ``--trace 1`` the
sequence runs in one process through ``qselect.cli.main``, untraced and
then traced (tracer.py), and the per-layer metrics come from the spans.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record, with every artifact digest,
the input digests and the environment, goes to
``.bench_work/BENCH_<workload>_<seed>_trace<0|1>.json``.

An operation is one CLI call or one campaign experiment. A CLI call
fails on a nonzero exit, on a failed check of an artifact it wrote, or
when an artifact differs from the same artifact written by another pass
or another run of the same code on the same seed.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child, so
# the campaign's worker threads are the only parallelism.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Every run must end within 180 s; a command still running at this
# point is killed and counted as failed.
RUN_DEADLINE_S = 160.0

# Each workload: its command sequence (run with the inputs directory as
# working directory), the artifacts each command writes, and the command
# whose rate is reported as core_items_per_cpu_s, with the input size it counts.
WORKLOADS = {
    "annotate-text": {
        "commands": [
            (["annotate", "--config", "config.json"], ["annotated.jsonl"]),
            (["correlate", "--config", "config.json", "--corpus", "out/annotated.jsonl"],
             ["spearman.csv"]),
        ],
        "core": "annotate",
        "items": "docs",
    },
    "campaign-select": {
        "commands": [
            (["annotate", "--config", "config.json"], ["annotated.jsonl"]),
            (["select", "--config", "config.json", "--corpus", "out/annotated.jsonl",
              "--weights", "weights.json"], ["selection.txt", "selection.json"]),
            (["campaign", "--config", "config.json", "--corpus", "out/annotated.jsonl"],
             ["campaign.jsonl", "manifests/"]),
        ],
        "core": "campaign",
        "items": "experiments",
    },
    "fit-sweep": {
        "commands": [
            (["fit", "--config", "config.json", "--log", "campaign.jsonl"],
             ["weights.json", "landscape.csv"]),
        ],
        "core": "fit",
        "items": "candidates",
    },
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "core_items_per_cpu_s": "items/s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts children under one deadline and waits for each to end."""

    def __init__(self, deadline: float, log_dir: Path) -> None:
        self.deadline = deadline
        self.log_dir = log_dir
        self.env = child_env()
        self.count = 0

    def run(self, argv: list[str], cwd: Path) -> tuple[float, float, float, int]:
        """Run argv to completion; return (wall s, CPU s, max RSS MB, exit code).

        The child leads its own process group, so that a kill at the
        deadline also ends the trainers a campaign has started.
        """
        self.count += 1
        with open(self.log_dir / f"{self.count:03d}.out", "wb") as out, \
                open(self.log_dir / f"{self.count:03d}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "qselect.cli", *args]


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Checker:
    """Checks each command's artifacts once per distinct content."""

    def __init__(self, inputs: Path, info: dict) -> None:
        self.inputs = inputs
        self.info = info
        self.out = inputs / "out"
        self._corpus = None
        self._checked: dict[str, list[str]] = {}

    def corpus(self) -> dict[str, tuple[str, int]]:
        if self._corpus is None:
            self._corpus = checks.read_corpus_index(self.inputs / "corpus.jsonl")
        return self._corpus

    def problems(self, artifact: str, digest: str) -> list[str]:
        key = f"{artifact}:{digest}"
        if key not in self._checked:
            self._checked[key] = self._check(artifact)
        return self._checked[key]

    def _check(self, artifact: str) -> list[str]:
        path = self.out / artifact
        if not path.exists():
            return [f"{artifact} missing"]
        sizes = self.info["sizes"]
        config = json.loads((self.inputs / "config.json").read_text(encoding="utf-8"))
        if artifact == "annotated.jsonl":
            names = sizes.get("score_names", sizes.get("channels"))
            return checks.check_annotated(path, set(self.corpus()), names)
        if artifact == "spearman.csv":
            return checks.check_spearman(path, sizes["score_names"])
        if artifact == "selection.txt" or artifact.startswith("manifests/"):
            plan = config["plan"]
            shortfalls = None
            if artifact == "selection.txt":
                report = json.loads((self.out / "selection.json").read_text(encoding="utf-8"))
                shortfalls = {s["domain"] for s in report["shortfalls"]}
            return checks.check_selection(path, self.corpus(), plan["token_budget"],
                                          plan["domain_targets"], shortfalls)
        if artifact == "campaign.jsonl":
            return checks.check_campaign(path, sizes["experiments"])
        if artifact == "weights.json":
            return checks.check_weights(path, set(gen.CHANNELS[: sizes["scores"]]))
        if artifact == "landscape.csv":
            return checks.check_landscape(path, sizes["grid"])
        return []


def owned(digests: dict[str, str], prefixes: list[str]) -> dict[str, str]:
    """The artifacts a command wrote: exact names, or a directory prefix."""
    return {k: v for k, v in digests.items()
            if any(k == p or (p.endswith("/") and k.startswith(p)) for p in prefixes)}


def judge(spec: dict, digests: dict[str, str], reference: dict[str, str],
          codes: list[int], checker: Checker, ledger: Ledger, label: str) -> None:
    """Count each command of one pass as an operation, and each experiment."""
    for (argv, prefixes), code in zip(spec["commands"], codes):
        mine = owned(digests, prefixes)
        problems = [] if code == 0 else [f"exit {code}"]
        if code == 0:
            expected = [p for p in prefixes if not p.endswith("/")]
            problems += [f"{p} missing" for p in expected if p not in mine]
            for artifact, digest in mine.items():
                problems += checker.problems(artifact, digest)
            ref = owned(reference, prefixes)
            problems += [f"{a} differs from the reference digest"
                         for a in sorted(set(mine) | set(ref)) if mine.get(a) != ref.get(a)]
        ledger.op(not problems, f"{label} {argv[0]}: {'; '.join(problems)}")
        if argv[0] == "campaign":
            ok = 0
            if code == 0 and "campaign.jsonl" in mine:
                records = (checker.out / "campaign.jsonl").read_text(encoding="utf-8").splitlines()
                ok = sum(1 for line in records if line.strip() and json.loads(line)["status"] == "ok")
            n = spec["sizes"]["experiments"]
            for i in range(n):
                ledger.op(i < ok, f"{label} experiment {i}: not ok")


def host_cpu_ticks() -> dict[str, int]:
    """Busy and stolen CPU ticks of the whole host so far (Linux only).

    Steal is time the hypervisor ran something else; the difference over
    a run shows how much of the wall time another tenant took.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return {}
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return {"busy": user + nice + system + irq + softirq, "steal": steal}


def code_digest() -> str:
    """sha256 over the package sources: the identity of 'the same code'."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(info: dict) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "commit": commit,
        "code_sha256": code_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV},
        "inputs": info,
    }


def reference_digests(workload: str, env: dict, digests: dict[str, str]) -> dict[str, str]:
    """Digests stored by an earlier run of the same code on the same inputs,
    or these digests, stored for the next run."""
    key = hashlib.sha256(json.dumps([env["code_sha256"], env["inputs"]["sha256"]],
                                    sort_keys=True).encode()).hexdigest()
    path = WORK / "digests" / f"{workload}_{key[:24]}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
    return digests


def run_untraced(spec, inputs, seconds, runner, checker, ledger, label_ref):
    """Repeat probe + command sequence while the next pass fits in ``seconds``."""
    passes = []
    measured = 0.0
    reference = None
    while True:
        start = time.perf_counter()
        setup_s, _, _, code = runner.run(cli_argv(["--version"]), inputs)
        ledger.op(code == 0, f"pass {len(passes)} --version: exit {code}")
        shutil.rmtree(inputs / "out", ignore_errors=True)
        commands = []
        for argv, _ in spec["commands"]:
            wall, cpu, rss, code = runner.run(cli_argv(argv), inputs)
            commands.append({"command": argv[0], "wall_s": wall, "cpu_s": cpu, "max_rss_mb": rss,
                             "exit": code})
        measured += time.perf_counter() - start
        digests = checks.artifact_digests(inputs / "out")
        if reference is None:
            reference = label_ref(digests)
        judge(spec, digests, reference, [c["exit"] for c in commands], checker, ledger,
              f"pass {len(passes)}")
        passes.append({"setup_s": setup_s, "commands": commands, "digests": digests})
        if measured * (len(passes) + 1) / len(passes) > seconds or time.monotonic() > runner.deadline - 30:
            return passes


def end_to_end(spec, passes) -> dict[str, float]:
    items = spec["sizes"][spec["items"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(sum(c["wall_s"] for c in p["commands"]) for p in passes),
        "cpu_s": statistics.median(sum(c["cpu_s"] for c in p["commands"]) for p in passes),
        "core_items_per_cpu_s": statistics.median(
            items / c["cpu_s"] for p in passes for c in p["commands"] if c["command"] == spec["core"]),
        "peak_rss_mb": statistics.median(max(c["max_rss_mb"] for c in p["commands"]) for p in passes),
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            covered += b - max(a, end)
            end = b
    return covered


def per_layer(untraced: dict, trace: dict, recovery_l1: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass; a module that did not run reads 0."""
    spans = trace["spans"]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)
    aggregated = defaultdict(float)
    calls = defaultdict(int)
    busy = defaultdict(float)
    for a in trace["aggregates"]:
        aggregated[a["parent"]] += a["busy_s"]
        calls[a["name"]] += a["calls"]
        busy[a["name"]] += a["busy_s"]

    def total(name, key="dur"):
        return float(sum(s.get(key, 0) for s in by_name[name]))

    def self_time(name, only=None):
        return sum(s["dur"] - aggregated[s["id"]] - _union(
            [(c["start"], c["end"]) for c in children[s["id"]] if only is None or c["name"] == only])
            for s in by_name[name])

    select_ms = [s["dur"] * 1e3 for s in by_name["selection.select"]]
    trainer_ms = [s["dur"] * 1e3 for s in by_name["proxy.trainer"]]
    campaign_ids = {s["id"] for s in by_name["proxy.campaign"]}
    campaign_s = total("proxy.campaign")
    in_campaign = sum(s["dur"] for s in by_name["selection.select"] if s["parent"] in campaign_ids)
    predict_work = sum(s.get("rows", 0) * s.get("trees", 0) for s in by_name["gbt.predict"])
    return {
        "cli.self_s": self_time("cli.main"),
        "corpus.load_s": total("corpus.load"),
        "corpus.load_calls": len(by_name["corpus.load"]),
        "corpus.docs_read": total("corpus.load", "docs"),
        "corpus.docs_rejected": total("corpus.load", "rejected"),
        "corpus.mb_read": total("corpus.load", "bytes") / 1e6,
        "corpus.write_s": total("corpus.write"),
        "corpus.mb_written": total("corpus.write", "bytes") / 1e6,
        "signals.calls": calls["signals.compute"],
        "signals.busy_s": busy["signals.compute"],
        "signals.us_per_doc": busy["signals.compute"] / calls["signals.compute"] * 1e6
        if calls["signals.compute"] else 0.0,
        "importance.fit_calls": len(by_name["importance.fit"]),
        "importance.fit_s": total("importance.fit"),
        "importance.score_calls": calls["importance.score"],
        "importance.score_busy_s": busy["importance.score"],
        "importance.features_total": trace["features_total"],
        "importance.features_distinct": trace["features_distinct"],
        "matrix.build_s": total("matrix.build"),
        "matrix.ingest_s": total("matrix.ingest"),
        "matrix.impute_s": total("matrix.impute"),
        "matrix.imputed_cells": total("matrix.impute", "cells"),
        "matrix.normalize_s": total("matrix.normalize"),
        "matrix.spearman_s": total("matrix.spearman"),
        "selection.calls": len(select_ms),
        "selection.busy_s": sum(select_ms) / 1e3,
        "selection.ms_p50": _percentile(select_ms, 0.5),
        "selection.ms_p90": _percentile(select_ms, 0.9),
        "selection.docs_selected": total("selection.select", "selected"),
        "selection.shortfalls": total("selection.select", "shortfalls"),
        "proxy.campaign_s": campaign_s,
        "proxy.experiments": total("proxy.campaign", "experiments"),
        "proxy.trainer_calls": len(trainer_ms),
        "proxy.trainer_busy_s": sum(trainer_ms) / 1e3,
        "proxy.trainer_ms_p50": _percentile(trainer_ms, 0.5),
        "proxy.trainer_ms_p90": _percentile(trainer_ms, 0.9),
        "proxy.trainer_failures": total("proxy.trainer", "failed"),
        "proxy.overlap": (in_campaign + sum(trainer_ms) / 1e3) / campaign_s if campaign_s else 0.0,
        "gbt.fit_s": total("gbt.fit"),
        "gbt.trees": total("gbt.fit", "trees"),
        "gbt.predict_calls": len(by_name["gbt.predict"]),
        "gbt.predict_rows": total("gbt.predict", "rows"),
        "gbt.predict_s": total("gbt.predict"),
        "gbt.ns_per_row_tree": total("gbt.predict") / predict_work * 1e9 if predict_work else 0.0,
        "optimizer.fit_regressor_s": total("optimizer.fit_regressor"),
        "optimizer.search_s": total("optimizer.search"),
        "optimizer.search_self_s": self_time("optimizer.search", only="gbt.predict"),
        "optimizer.landscape_s": total("optimizer.landscape"),
        "optimizer.recovery_l1": recovery_l1,
        "trace.overhead_s": trace["wall_s"] - untraced["wall_s"],
    }


LAYER_UNITS = {
    "cli.self_s": "s",
    "corpus.load_s": "s", "corpus.load_calls": "count", "corpus.docs_read": "count",
    "corpus.docs_rejected": "count", "corpus.mb_read": "MB", "corpus.write_s": "s",
    "corpus.mb_written": "MB",
    "signals.calls": "count", "signals.busy_s": "s", "signals.us_per_doc": "us",
    "importance.fit_calls": "count", "importance.fit_s": "s", "importance.score_calls": "count",
    "importance.score_busy_s": "s", "importance.features_total": "count",
    "importance.features_distinct": "count",
    "matrix.build_s": "s", "matrix.ingest_s": "s", "matrix.impute_s": "s",
    "matrix.imputed_cells": "count", "matrix.normalize_s": "s", "matrix.spearman_s": "s",
    "selection.calls": "count", "selection.busy_s": "s", "selection.ms_p50": "ms",
    "selection.ms_p90": "ms", "selection.docs_selected": "count", "selection.shortfalls": "count",
    "proxy.campaign_s": "s", "proxy.experiments": "count", "proxy.trainer_calls": "count",
    "proxy.trainer_busy_s": "s", "proxy.trainer_ms_p50": "ms", "proxy.trainer_ms_p90": "ms",
    "proxy.trainer_failures": "count", "proxy.overlap": "ratio",
    "gbt.fit_s": "s", "gbt.trees": "count", "gbt.predict_calls": "count",
    "gbt.predict_rows": "count", "gbt.predict_s": "s", "gbt.ns_per_row_tree": "ns",
    "optimizer.fit_regressor_s": "s", "optimizer.search_s": "s",
    "optimizer.search_self_s": "s", "optimizer.landscape_s": "s", "optimizer.recovery_l1": "L1",
    "trace.overhead_s": "s",
}


def recovery_error(inputs: Path) -> float:
    """L1 distance between the fitted weights and the planted optimum; 2,
    the largest distance on the simplex, when fit wrote no weights."""
    planted = json.loads((inputs / "w_star.json").read_text(encoding="utf-8"))
    path = inputs / "out" / "weights.json"
    if not path.exists():
        return 2.0
    fitted = checks.read_weights(path)
    return math.fsum(abs(fitted.get(k, 0.0) - v) for k, v in planted.items())


def run_traced(spec, inputs, work, seconds, runner, checker, ledger, label_ref, run_id):
    """Repeat an untraced then a traced in-process pass, each in a fresh
    process, while the next pair fits in ``seconds``; return the pairs."""
    plan_path = work / "trace_plan.json"
    plan_path.write_text(json.dumps({
        "run": run_id, "out_dir": str(inputs / "out"),
        "commands": [argv for argv, _ in spec["commands"]]}), encoding="utf-8")
    pairs = []
    reference = None
    start = time.perf_counter()
    while True:
        pair = {}
        for traced in ("0", "1"):
            out_path = work / f"trace{traced}.json"
            _, _, _, code = runner.run([sys.executable, str(BENCH_DIR / "tracer.py"), str(plan_path),
                                     str(out_path), traced], inputs)
            if code != 0 or not out_path.exists():
                raise RuntimeError(f"tracer exited {code}; see {runner.log_dir}")
            pair[traced] = json.loads(out_path.read_text(encoding="utf-8"))
            if reference is None:
                reference = label_ref(pair[traced]["digests"])
            judge(spec, pair[traced]["digests"], reference, pair[traced]["codes"], checker,
                  ledger, f"pair {len(pairs)} trace={traced}")
        pairs.append(pair)
        elapsed = time.perf_counter() - start
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds or time.monotonic() > runner.deadline - 30:
            return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qselect" / "cli.py").is_file():
        print(f"error: no qselect package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    ticks_before = host_cpu_ticks()
    spec = dict(WORKLOADS[args.workload])
    work = WORK / f"{args.workload}_{args.seed}_trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    logs = work / "logs"
    logs.mkdir(parents=True)
    gen_start = time.perf_counter()
    info = gen.generate(args.workload, args.seed, inputs)
    info["generate_s"] = time.perf_counter() - gen_start
    spec["sizes"] = info["sizes"]
    env = environment(info)

    runner = Runner(deadline, logs)
    checker = Checker(inputs, info)
    ledger = Ledger()

    def label_ref(digests):
        return reference_digests(args.workload, env, digests)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    if args.trace == 0:
        passes = run_untraced(spec, inputs, args.seconds, runner, checker, ledger, label_ref)
        metrics = end_to_end(spec, passes)
        units = END_TO_END_UNITS
        record["passes"] = passes
        names = dict.fromkeys(argv[0] for argv, _ in spec["commands"])
        for key in ("wall_s", "cpu_s"):
            record[f"command_{key}"] = {
                name: statistics.median(c[key] for p in passes for c in p["commands"]
                                        if c["command"] == name)
                for name in names
            }
        core_wall = record["command_wall_s"][spec["core"]]
        record["core_items_per_s"] = spec["sizes"][spec["items"]] / core_wall
    else:
        pairs = run_traced(spec, inputs, work, args.seconds, runner, checker, ledger, label_ref,
                           f"{args.workload}/{args.seed}")
        recovery = recovery_error(inputs) if args.workload == "fit-sweep" else 0.0
        per_pair = [per_layer(p["0"], p["1"], recovery) for p in pairs]
        metrics = {name: statistics.median(m[name] for m in per_pair) for name in LAYER_UNITS}
        units = LAYER_UNITS
        record["pairs"] = [{"untraced_s": p["0"]["wall_s"], "traced_s": p["1"]["wall_s"],
                            "digests": p["1"]["digests"]} for p in pairs]
        record["per_pair"] = per_pair
        (work / "trace1.json").replace(WORK / f"SPANS_{args.workload}_{args.seed}.json")
    if args.workload == "fit-sweep" and args.trace == 0:
        record["recovery_l1"] = recovery_error(inputs)

    ticks_after = host_cpu_ticks()
    record["host_cpu_ticks"] = {k: ticks_after[k] - ticks_before[k] for k in ticks_after}
    failed = len(ledger.failures)
    correct = failed == 0
    record.update({
        "correct": correct, "attempted": ledger.attempted, "failed": failed,
        "error_rate": failed / ledger.attempted, "failures": ledger.failures[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    result_path = WORK / f"BENCH_{args.workload}_{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    for failure in ledger.failures[:10]:
        print(f"failed: {failure}")
    print(f"results: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
