"""End-to-end benchmark runner (see README.md beside this file).

Three ways in, one protocol:

- ``run.py --seed 0`` -- every workload: timed children, then one
  traced child each; prints every metric by name and writes
  ``out/results.json``.  ``--quick``, ``--workload`` and ``--repeats``
  narrow it.
- ``run.py --workload W --seed N --seconds S --trace 0|1`` -- the
  ``BENCHMARK.json`` contract: one workload, and the last stdout line
  is one JSON object (end-to-end metrics for ``--trace 0``, per-layer
  metrics for ``--trace 1``).
- ``run.py --child W ...`` -- internal: one fresh interpreter that
  builds, runs and summarises one workload and prints one JSON line.

The parent runs one child at a time and waits for it, so nothing is
left running and heap growth or import caches never carry between
repeats.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: a child that has not finished by then is killed and counted failed
CHILD_TIMEOUT_S = 150


# -- child -------------------------------------------------------------------

def layer_metrics(rec, summary: dict, wall: float) -> Dict[str, float]:
    """Everything the traced child itself can say about its layers."""
    from layers import BUILDERS
    region = rec.totals()
    whole = rec.totals(("setup", "run"))
    out: Dict[str, float] = {}
    for name in whole:
        calls, self_s = (whole if name in BUILDERS else region).get(
            name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out.update(rec.phase_tallies.get("run", {}))
    runs = out.get("core.agent.run.calls", 0)
    out["core.agent.run.clean_ratio"] = (
        out.get("core.agent.clean_run.calls", 0) / runs if runs else 0.0)
    episodes = sorted(rec.durations_ms("chaos.run_episode"))
    if episodes:
        cuts = statistics.quantiles(episodes, n=100, method="inclusive")
        out["chaos.episode_ms_p50"] = cuts[49]
        out["chaos.episode_ms_p70"] = cuts[69]
    out["unattributed_s"] = wall - sum(s for _c, s in region.values())
    out.update({k: v for k, v in summary.items() if k != "detail"})
    return out


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    tracing = contextlib.nullcontext()
    if args.traced:
        from layers import traced
        tracing = traced()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch, tracing as rec:
        workload = WORKLOADS[args.child](args.seed, args.size, scratch)
        workload.setup()
        ready = time.monotonic()
        gc.collect()
        if rec is not None:
            rec.begin_phase("run")
        cpu0, t0 = time.process_time(), time.perf_counter()
        workload.run()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        summary = workload.summary()
        failures = workload.failures(summary)
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    result = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "invariant_failures": failures,
    }
    if rec is not None:
        result["layers"] = layer_metrics(rec, summary, wall)
        trace = rec.to_json()
        trace.update(workload=args.child, seed=args.seed, wall_s=wall)
        (OUT / f"trace-{args.child}.json").write_text(json.dumps(trace))
    # read last: the peak includes summarising, which every run pays
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


# -- parent ------------------------------------------------------------------

def spawn(workload: str, seed: int, size: str, traced: bool) -> dict:
    """One fresh child, waited for.  Returns its result dict, or
    ``{"error": ...}`` when it did not exit 0 with one."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", workload,
           "--seed", str(seed), "--size", size]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, PYTHONHASHSEED="1" if traced else "0")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no JSON result on stdout"}
    result["setup_s"] = result.pop("ready_monotonic") - started
    return result


@functools.cache
def src_loc() -> int:
    return sum(len(path.read_text().splitlines())
               for path in (ROOT / "src" / "repro").rglob("*.py"))


def measure(name: str, spec: dict, *, seed: int, size: str, seconds: float,
            repeats: int, trace: Optional[int]) -> dict:
    """All children of one workload and the checks on them.

    ``trace`` 0: timed children only; 1: one timed + the traced child;
    None: ``repeats`` timed + the traced child.  Timed children keep
    coming until ``repeats`` have run and their timed regions add up
    to ``seconds``.
    """
    if trace == 1:
        repeats, seconds = 1, 0.0
    failures: List[str] = []
    attempted = 0

    def checked(result: dict, label: str) -> Optional[dict]:
        nonlocal attempted
        attempted += 2          # (a) exits 0 with a result, (b) invariant
        if "error" in result:
            failures.append(f"{label}: {result['error']}")
            failures.append(f"{label}: invariant not evaluated")
            return None
        failures.extend(f"{label}: {f}"
                        for f in result["invariant_failures"])
        return result

    timed: List[dict] = []
    runs = 0
    while runs < repeats or sum(r["wall_s"] for r in timed) < seconds:
        runs += 1
        result = checked(spawn(name, seed, size, False), f"timed #{runs}")
        if result is None:
            break
        timed.append(result)

    out: dict = {"digest": None, "e2e": {}, "layers": {}}
    if timed:
        attempted += 1          # (c) one digest across timed children
        digests = sorted({r["digest"] for r in timed})
        if len(digests) > 1:
            failures.append(f"timed digests differ: {digests}")
        out["digest"] = timed[0]["digest"]
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in timed]
            out["e2e"][metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "median": statistics.median(values),
                "min": min(values), "max": max(values), "n": len(values)}

    if trace != 0 and timed:
        traced = checked(spawn(name, seed, size, True), "traced")
        attempted += 1          # (d) shims + another hash seed change nothing
        if traced is None:
            failures.append("traced: digest not compared")
        else:
            if traced["digest"] != out["digest"]:
                failures.append(f"traced digest {traced['digest']} != "
                                f"timed {out['digest']}")
            got = traced["layers"]
            wall = out["e2e"]["wall_s"]["median"]
            events = got.get("sim.events", 0)
            got["sim.us_per_event"] = 1e6 * wall / events if events else 0.0
            got["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / wall - 1)
            got["src_loc"] = src_loc()
            out["traced_wall_s"] = traced["wall_s"]
            out["layers"] = {m["name"]: got.get(m["name"], 0)
                             for m in spec["per_layer"]}
    out.update(ops_attempted=attempted, ops_failed=len(failures),
               failures=failures)
    return out


def manifest(args, size: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             text=True, stdout=subprocess.PIPE)
        if got.returncode == 0:
            commit = got.stdout.strip()
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {"commit": commit, "seed": args.seed, "argv": sys.argv[1:],
            "python": sys.version.split()[0], "nproc": nproc,
            "loadavg_1m": load, "noisy": load > nproc - 1,
            "size": size, "src_loc": src_loc()}


def show(name: str, got: dict, units: Dict[str, str]) -> None:
    ok = got["ops_attempted"] - got["ops_failed"]
    print(f"\n== {name}  digest {str(got['digest'])[:16]}  "
          f"ops {ok}/{got['ops_attempted']} ok, "
          f"ops_failed {got['ops_failed']}")
    for metric, row in got["e2e"].items():
        print(f"  {metric:<44} {row['unit']:<6} {row['median']:>12.4f}  "
              f"min {row['min']:.4f}  max {row['max']:.4f}  n {row['n']}")
    for metric, value in got["layers"].items():
        if value:
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {metric:<44} {units[metric]:<6} {shown:>12}")
    for failure in got["failures"]:
        print(f"  FAILED {failure}")


def parent_main(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: {ROOT / 'src' / 'repro'} is missing: nothing to "
              f"benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        unknown = sorted(set(args.workload) - set(names))
        if unknown:
            print(f"run.py: unknown workload(s) {unknown}; "
                  f"BENCHMARK.json names {names}", file=sys.stderr)
            return 2
        names = args.workload
    if args.trace is not None and len(names) != 1:
        print("run.py: --trace takes exactly one --workload",
              file=sys.stderr)
        return 2
    size, repeats = ("quick", 1) if args.quick else ("full", 3)
    if args.repeats is not None:
        repeats = args.repeats
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.quick:
        seconds = 0.0

    doc = {"manifest": manifest(args, size), "workloads": {}}
    if doc["manifest"]["noisy"]:
        print(f"noisy: loadavg_1m {doc['manifest']['loadavg_1m']:.2f} > "
              f"nproc - 1 = {doc['manifest']['nproc'] - 1}; "
              f"treat timings as unresolved")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name in names:
        got = measure(name, spec, seed=args.seed, size=size,
                      seconds=seconds, repeats=repeats, trace=args.trace)
        doc["workloads"][name] = got
        show(name, got, units)
    doc["manifest"]["digests"] = {name: got["digest"] for name, got
                                  in doc["workloads"].items()}
    out_path = Path(args.out) if args.out else OUT / "results.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out_path}")

    failed = sum(got["ops_failed"] for got in doc["workloads"].values())
    if args.trace is not None:
        got = doc["workloads"][names[0]]
        if args.trace == 0:
            metrics = {m: {"value": row["median"], "unit": row["unit"]}
                       for m, row in got["e2e"].items()}
        else:
            metrics = {m: {"value": v, "unit": units[m]}
                       for m, v in got["layers"].items()}
        if not metrics:
            return 1            # nothing measured: no result line
        print(json.dumps({"correct": failed == 0,
                          "attempted": got["ops_attempted"],
                          "failed": got["ops_failed"], "metrics": metrics}))
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed (default 0)")
    ap.add_argument("--workload", action="append",
                    help="run only this workload (repeatable)")
    ap.add_argument("--seconds", type=float,
                    help="keep adding timed children until their timed "
                         "regions add up to this (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="contract mode: 0 = timed children only, 1 = one "
                         "timed + the traced child; prints the result "
                         "object as the last line")
    ap.add_argument("--repeats", type=int,
                    help="minimum timed children (default 3; 1 with "
                         "--quick)")
    ap.add_argument("--quick", action="store_true",
                    help="small sizes, 1 timed + 1 traced child, every "
                         "check, < 40 s")
    ap.add_argument("--out", help="results file (default out/results.json)")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--size", default="full", choices=("full", "quick"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
