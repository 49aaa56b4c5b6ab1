"""Benchmark of the hypercatalan CLI: seeded closed-loop task lists.

    python3 bench/run.py --workload layering --seed 1 --seconds 35 --trace 0

One process, one client: every task is a call of ``hypercatalan.cli.main``
in this process with stdout captured, and the next task starts only after
the previous one returned.  Tasks come in whole rounds (see tasks.py); the
run stops at the first round boundary after ``--seconds`` of wall time,
at least 100 tasks and the workload's FIXED_ROUNDS rounds.  Every output
is checked by checks.py outside the timed call.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
nominal host speed by the yardstick of hostspeed.py, timed between
rounds, because this host's own speed drifts by up to half within a
minute; the raw figures are printed and recorded beside them.
``peak_rss_mb`` is read at the end of round FIXED_ROUNDS: the program's
memo tables grow with every new input, so a peak read after a fixed
amount of work does not rise when a faster program fits more rounds in.
``--trace 1`` runs FIXED_ROUNDS rounds untraced, then
the same rounds again with the tracer of tracer.py installed, and prints
the per-layer metrics (raw times).  The round count does not depend on
``--seconds``, the host or the program's speed, so every per-layer total
counts the same tasks and a faster program cannot raise a call count.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the same figures
for a reader.  A full record, with the environment, goes to
``bench/results/<workload>-seed<seed>-trace<t>.json`` and the traced
run's spans to ``bench/results/<workload>-seed<seed>-spans.jsonl``.

``--list`` prints a seed's first round of tasks with counts per kind and
size class, and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tasks
from hostspeed import NOMINAL_S, reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_TASKS = 100
SETUP_RUNS = 7
# rounds of a --trace 1 run, and the round after which peak_rss_mb is
# read; with their checks they take 15 to 30 s untraced on a 2-core Xeon
# VM, so a --trace 0 run of 35 s passes them and a --trace 1 run ends
# within about a minute
FIXED_ROUNDS = {"layering": 20, "closed-form": 40, "trees": 30}
PROBE_TIMEOUT_S = 60


def _import_cli():
    if not (SRC / "hypercatalan" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'hypercatalan'}")
    sys.path.insert(0, str(SRC))
    from hypercatalan import cli

    return cli


def _probe(workload: str, seed: int) -> None:
    """Set-up of one fresh process: import the CLI and make the first task."""
    _import_cli()
    next(tasks.rounds(workload, seed))
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, host scale) from process start until the first task is ready.

    One entry per fresh process; the scale comes from the yardstick
    timed just before and just after the process.
    """
    runs = []
    for _ in range(SETUP_RUNS):
        argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
                "--workload", workload, "--seed", str(seed)]
        before = reference_seconds()
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        runs.append((elapsed, 2 * NOMINAL_S / (before + reference_seconds())))
    return runs


# -- the closed loop ----------------------------------------------------------


class Outcome:
    """One task's timing; no reference to the task, so that a run's own
    bookkeeping stays small beside the program's memory."""

    __slots__ = ("latency", "stdout_bytes", "error", "scale")

    def __init__(self, latency: float, stdout_bytes: int, error: str | None):
        self.latency = latency
        self.stdout_bytes = stdout_bytes
        self.error = error
        self.scale = 1.0  # host scale of the task's round

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


def call_cli(cli_main, argv) -> tuple:
    """(exit code, stdout, seconds, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli_main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a task that raises is a failed task
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    return rc, out.getvalue(), latency, error


def run_task(cli_main, task: tasks.Task, check) -> Outcome:
    rc, text, latency, error = call_cli(cli_main, task.argv)
    if error is None:
        try:
            check(task, rc, text)
        except Exception as exc:  # a checker that cannot parse the output rejects it
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        error = f"{task.line()[:160]}: {error}"
    return Outcome(latency, len(text.encode()), error)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(cli_main, round_lists, seconds: float, check, tracer=None,
               min_rounds: int = 0) -> tuple[list[Outcome], int, float | None]:
    """Whole rounds until `seconds` of wall time, MIN_TASKS tasks and
    `min_rounds` rounds have passed.

    The yardstick is timed before every round and after the last; each
    outcome's scale is NOMINAL_S over the mean of the timings around its
    round.  Returns the outcomes, the number of rounds run and the peak
    RSS at the end of round `min_rounds` (None when it is 0).
    """
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    n_rounds = 0
    rss = None
    ref = reference_seconds()
    for round_list in round_lists:
        n_rounds += 1
        first = len(outcomes)
        for task in round_list:
            if tracer is not None:
                tracer.task_id = len(outcomes)
            outcomes.append(run_task(cli_main, task, check))
        after = reference_seconds()
        for o in outcomes[first:]:
            o.scale = 2 * NOMINAL_S / (ref + after)
        ref = after
        if n_rounds == min_rounds:
            rss = peak_rss_mb()
        if (time.perf_counter() - start >= seconds and len(outcomes) >= MIN_TASKS
                and n_rounds >= min_rounds):
            break
    return outcomes, n_rounds, rss


# -- metrics ------------------------------------------------------------------


def _latency_metrics(lat: list[float]) -> dict:
    lat = sorted(lat)
    return {
        "tasks_per_s": (len(lat) / sum(lat), "1/s"),
        "task_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "task_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
    }


def end_to_end(outcomes: list[Outcome], setup: list[tuple[float, float]],
               rss: float) -> tuple[dict, dict]:
    """Host-scaled end-to-end metrics, and the raw figures beside them."""
    metrics = {
        **_latency_metrics([o.scaled for o in outcomes]),
        "peak_rss_mb": (rss, "MiB"),
        "setup_s": (statistics.median(t * k for t, k in setup), "s"),
    }
    raw = {
        **_latency_metrics([o.latency for o in outcomes]),
        "setup_s": (statistics.median(t for t, _ in setup), "s"),
    }
    p90 = metrics["task_p90_ms"][0] / 1e3
    return metrics, {
        "fail_frac": sum(o.error is not None for o in outcomes) / len(outcomes),
        "samples": len(outcomes),
        "beyond_p90": sum(o.scaled > p90 for o in outcomes),
        "host_scale_median": statistics.median(o.scale for o in outcomes),
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "peak_rss_mb_at_end": peak_rss_mb(),
        "setup_runs": [{"s": t, "scale": k} for t, k in setup],
    }


def clear_caches() -> None:
    for fn in _caches():
        fn.cache_clear()


def _caches(prefix: str = "hypercatalan.") -> list:
    """Every memoized function (anything with cache_clear) in the program's modules."""
    return [
        fn
        for name, mod in list(sys.modules.items())
        if mod is not None and name.startswith(prefix)
        for fn in vars(mod).values()
        if callable(getattr(fn, "cache_clear", None))
    ]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


LAYERS = ("cli", "core", "series", "subdigon", "raney", "catpow")


def per_layer(tracer, traced: list[Outcome], untraced: list[Outcome],
              declared: dict[str, str]) -> dict:
    """Per-layer metrics in declared order.

    A declared name ``<layer>.<function>.<calls|s|self_s>`` of a wrapped
    function is read from its span totals; the others are computed here.
    """
    st, c = tracer.stats, tracer.counts
    m = {}
    for name, unit in declared.items():
        key, field = name.rsplit(".", 1)
        if key in st:
            m[name] = (getattr(st[key], field), unit)
    m["cli.self_s"] = (st["cli.main"].self_s, "s")
    m["cli.stdout_bytes"] = (sum(o.stdout_bytes for o in traced), "B")
    for name in ("series.pairs_tried", "series.pairs_in_level", "series.terms_out",
                 "series.beta_terms", "series.types_out", "subdigon.subdigons_out",
                 "raney.lists_out", "raney.symbols_in", "raney.rotations_tried",
                 "raney.rotations_found"):
        m[name] = (c[name], "count")
    m["series.pair_yield"] = (_ratio(c["series.pairs_in_level"], c["series.pairs_tried"]), "ratio")
    m["raney.rotation_yield"] = (
        _ratio(c["raney.rotations_found"], c["raney.rotations_tried"]), "ratio")
    hits = misses = entries = 0
    for fn in _caches("hypercatalan.subdigon"):
        info = fn.cache_info()
        hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
    m["subdigon.cache_lookups"] = (hits + misses, "count")
    m["subdigon.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["subdigon.cache_entries"] = (entries, "count")
    for layer in LAYERS:
        errors = sum(s.errors for k, s in st.items() if k.startswith(layer + "."))
        m[f"{layer}.errors"] = (errors, "count")
    traced_wall = sum(o.latency for o in traced)
    untraced_wall = sum(o.latency for o in untraced)
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead_ratio"] = (_ratio(traced_wall, untraced_wall), "ratio")
    m["trace.coverage"] = (_ratio(sum(s.self_s for s in st.values()), traced_wall), "ratio")
    order = {name: i for i, name in enumerate(declared)}
    return dict(sorted(m.items(), key=lambda kv: order.get(kv[0], len(order))))


def layer_separation(workload: str, stats) -> tuple[dict, dict]:
    """(enforced checks, reported checks) on the traced run's call counts."""
    enforced, reported = {}, {}
    if workload in ("closed-form", "trees"):
        enforced["series.mul_truncated.calls == 0"] = stats["series.mul_truncated"].calls == 0
    if workload == "layering":
        enforced["subdigon.* and raney.* calls == 0"] = all(
            s.calls == 0 for k, s in stats.items() if k.startswith(("subdigon.", "raney."))
        )
        top = max(stats, key=lambda k: stats[k].self_s)
        reported[f"largest self time is series.mul_truncated (found {top})"] = (
            top == "series.mul_truncated"
        )
    return enforced, reported


# -- environment and reporting ------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, n_tasks: int, n_rounds: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tasks": n_tasks,
        "rounds": n_rounds,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _first_rounds(args, n: int):
    return (tasks.round_tasks(args.workload, args.seed, r) for r in range(n))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hypercatalan CLI benchmark")
    ap.add_argument("--workload", choices=tasks.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true", help="print the first round and exit")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.list:
        print(tasks.listing(args.workload, args.seed, 1))
        return 0
    if args.probe:
        _probe(args.workload, args.seed)
        return 0

    declared = declared_metrics(args.trace)
    cli = _import_cli()
    from checks import check

    from tracer import Tracer

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        clear_caches()
        n_rounds = FIXED_ROUNDS[args.workload]
        untraced, _, _ = run_rounds(cli.main, _first_rounds(args, n_rounds), float("inf"), check)
        # the traced pass replays the same tasks from the same (empty) caches
        clear_caches()
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, _ = run_rounds(cli.main, _first_rounds(args, n_rounds), float("inf"),
                                   check, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
        metrics = per_layer(tracer, traced, untraced, declared)
        enforced, reported = layer_separation(args.workload, tracer.stats)
        outcomes = untraced + traced
        extra = {"layer_separation": enforced, "reported_checks": reported,
                 "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}
        correct = all(enforced.values())
    else:
        setup = measure_setup(args.workload, args.seed)
        outcomes, n_rounds, rss = run_rounds(cli.main, tasks.rounds(args.workload, args.seed),
                                             args.seconds, check,
                                             min_rounds=FIXED_ROUNDS[args.workload])
        metrics, extra = end_to_end(outcomes, setup, rss)
        correct = True

    failures = [o.error for o in outcomes if o.error is not None]
    correct = correct and not failures
    env = environment(args, len(outcomes), n_rounds)
    record = {**env, "correct": correct, "failures": failures[:50], **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if {k: u for k, (_, u) in metrics.items()} != declared:
        raise SystemExit("error: emitted metrics differ from those BENCHMARK.json declares")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for line in failures[:10]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    if args.trace:
        for name, ok in {**extra["layer_separation"], **extra["reported_checks"]}.items():
            print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    else:
        print(f"{'fail_frac':<36} {extra['fail_frac']:>16.6g} ratio "
              f"(base: {len(outcomes)} tasks attempted)")
        print(f"latency samples {extra['samples']}, beyond p90 {extra['beyond_p90']}; "
              f"set-up runs {len(setup)}; median host scale {extra['host_scale_median']:.4g}")
        for name, r in extra["raw"].items():
            print(f"{'raw ' + name:<36} {r['value']:>16.6g} {r['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
