"""Benchmark of ``skeintails verify``: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  The seed generates the workload's suite (see
suites.py).  The run is a closed loop with one client: one verify process
at a time, the next one spawned after the previous one exits.

--trace 0 measures the end-to-end metrics.  Each round spawns the
empty-suite command (``setup_s``), then ``verify SUITE --jobs 1``
(``wall_s``, ``peak_rss_mib``), then ``verify SUITE --jobs 2``
(``jobs2_wall_s``).  Rounds repeat while another one fits in the time
budget; every metric is the median over the run.

--trace 1 measures the per-layer metrics.  Each round spawns one untraced
``--jobs 1`` process and one traced process (spans.py), which wraps each
layer's public functions from the outside.  Times are medians over the
traced processes, counts must repeat exactly between them, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

Every verify process is gated: exit code 0, a report with
``"passed": true``, every case ``pass`` in suite order, and the same
stdout bytes as every other process of the run.  The last line of stdout
is one JSON object: correct, attempted and failed cases, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import spans
import suites

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170  # a process still running then is killed, so the run ends in time
MIN_SETUP_SAMPLES = 7


def spawn(argv: list[str], env: dict, out_dir: Path, tag: str,
          timeout: float) -> tuple[float, int, float, bytes]:
    """Run one process to exit; return wall seconds, exit code, max RSS MiB, stdout."""
    stdout_path = out_dir / f"{tag}.stdout"
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out_dir / f"{tag}.stderr"),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killer = threading.Timer(max(timeout, 0.0), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, stdout_path.read_bytes()


class Run:
    """State of one benchmark run: the suite, the gate, and every sample."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.out_dir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.suite_path, self.empty_path, self.suite = suites.write_suites(
            workload, seed, self.out_dir
        )
        self.case_ids = [c["id"] for c in self.suite["cases"]]
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{old}" if old else src)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stdout_sha: str | None = None
        self.samples: dict[str, list[float]] = {}

    def _gate(self, tag: str, code: int, stdout: bytes, report_path: Path, ids: list[str]) -> None:
        """Count the cases of one verify process and record what is wrong with it."""
        self.attempted += len(ids)
        try:
            report = json.loads(report_path.read_text())
            got = [c["id"] for c in report["cases"]]
            n_bad = sum(c["status"] != "pass" for c in report["cases"])
        except (OSError, ValueError, KeyError, TypeError):
            report, got, n_bad = {}, [], len(ids)
        bad = n_bad + max(0, len(ids) - len(got))
        self.failed += bad
        if code != 0 or bad or report.get("passed") is not True or got != ids:
            self.problems.append(f"{tag}: exit {code}, {bad} of {len(ids)} cases not passed")
        if ids:
            sha = hashlib.sha256(stdout).hexdigest()
            if self.stdout_sha is None:
                self.stdout_sha = sha
            elif sha != self.stdout_sha:
                self.problems.append(f"{tag}: stdout differs from the first verify process")
        elif stdout != b"0/0 cases passed\n":
            self.problems.append(f"{tag}: unexpected empty-suite output {stdout[:80]!r}")

    def verify(self, kind: str, suite: Path, jobs: int = 1) -> tuple[float, float]:
        """One verify process; ``kind`` names it ('setup', 'jobs1', 'traced', ...)."""
        self.count += 1
        tag = f"{self.count:03d}-{kind}"
        report_path = self.out_dir / f"{tag}.report.json"
        if kind == "traced":
            argv = [sys.executable, str(Path(__file__).with_name("spans.py")), str(suite),
                    str(self.out_dir / f"{tag}.spans"), str(report_path)]
        else:
            argv = [sys.executable, "-m", "skeintails.cli", "verify", str(suite),
                    "--jobs", str(jobs), "--out", str(report_path)]
        wall, code, rss, stdout = spawn(argv, self.env, self.out_dir, tag,
                                        self.deadline - time.perf_counter())
        ids = self.case_ids if suite == self.suite_path else []
        self._gate(tag, code, stdout, report_path, ids)
        return wall, rss


def rounds(seconds: float, body) -> None:
    """Call body() at least once, and again while another call fits in the budget."""
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        body()
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - t0 + longest > seconds:
            return


def quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"


def end_to_end(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    setup, wall1, wall2, rss = [], [], [], []

    def body():
        setup.append(run.verify("setup", run.empty_path)[0])
        w, r = run.verify("jobs1", run.suite_path, 1)
        wall1.append(w)
        rss.append(r)
        wall2.append(run.verify("jobs2", run.suite_path, 2)[0])

    rounds(seconds, body)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run.verify("setup", run.empty_path)[0])
    run.samples = {"setup_s": setup, "wall_s": wall1, "jobs2_wall_s": wall2, "peak_rss_mib": rss}
    for name, xs in run.samples.items():
        print(f"  {name:13s} {quartiles(xs)}  samples {[round(x, 4) for x in xs]}")
    return {
        "wall_s": (statistics.median(wall1), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "jobs2_wall_s": (statistics.median(wall2), "s"),
    }


def per_layer(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    untraced, traced, recorded = [], [], []

    def body():
        untraced.append(run.verify("jobs1", run.suite_path, 1)[0])
        traced.append(run.verify("traced", run.suite_path)[0])
        path = run.out_dir / f"{run.count:03d}-traced.spans"
        try:
            recorded.append(spans.Spans.load(str(path)))
        except (OSError, ValueError, EOFError) as exc:
            run.problems.append(f"{path.name}: {exc}")

    rounds(seconds, body)
    run.samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    if not recorded:
        raise SystemExit("perfbench: no traced process wrote its spans")
    reports = [spans.layer_report(sp) for sp in recorded]
    for k in [k for k in reports[0] if not spans.is_time(k)]:
        if len({r[k] for r in reports}) > 1:
            run.problems.append(f"count {k} differs between traced runs: "
                                f"{[r[k] for r in reports]}")
    metrics = spans.median_report(reports)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"  untraced wall {quartiles(untraced)}")
    print(f"  traced wall   {quartiles(traced)}")
    first = reports[0]
    print(f"  layer self time, first traced run (wall {traced[0]:.4f} s):")
    total = 0.0
    for layer in spans.LAYERS:
        total += first[f"{layer}.self_s"]
        print(f"    {layer:16s} {first[f'{layer}.self_s']:9.4f} s")
    print(f"    {'outside cli.main':16s} {traced[0] - total:9.4f} s  (start-up, import, span write)")
    print(f"    {'sum':16s} {traced[0]:9.4f} s")
    groups = spans.group_self_times(recorded[0])
    print("  largest span groups by self time, first traced run: " + ", ".join(
        f"{k} {v:.4f} s" for k, v in list(groups.items())[:8]))
    print("  computed from call arguments: " + ", ".join(
        f"{k}={first[k]}" for k in spans.COMPUTED))
    return {k: (v, "s" if spans.is_time(k) else "count")
            for k, v in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suites.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skeintails" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'skeintails'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.trace)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for case in run.suite["cases"]:
        print(f"  case {case['id']}: {case['check']} {json.dumps(case['params'], sort_keys=True)}")
    run.verify("warmup", run.empty_path)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(run, args.seconds)

    correct = not run.problems
    for p in run.problems:
        print(f"  FAILED {p}")
    print(f"  verify stdout sha256 {run.stdout_sha}")
    print(f"  fail_ratio {run.failed}/{run.attempted}")
    for k, (v, unit) in metrics.items():
        print(f"  {k} = {v} {unit}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, suite=run.suite,
                  stdout_sha256=run.stdout_sha, problems=run.problems, samples=run.samples)
    (run.out_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
