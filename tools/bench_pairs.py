"""Run the tvk benchmark in alternating parent/change pairs and summarise.

    python tools/bench_pairs.py PARENT CHANGE LABEL WORKLOADS SEEDS

PARENT and CHANGE are two checkouts of the repository. WORKLOADS is a
comma-separated list of ``tvkbench`` workloads and SEEDS a comma-separated
list of at least two seeds, one pair of runs per seed and workload. Pair k
runs the parent's ``BENCHMARK.json`` command (``python3 tvkbench/run.py``)
with ``--workload W --seed S --seconds T --trace 0`` in each checkout, the
parent first when k is even and the change first when k is odd. T is that
file's ``run_seconds``, and its end-to-end metrics and their bounds are
the ones summarised.

Writes ``BENCH_<LABEL>.json`` into CHANGE, with every run and, per workload
and metric, each side's median and quartiles, the number of pairs the
change won (ties count for neither side) and whether the change's median
stays within the bound. Prints the same summary.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ENV_PREFIX = "tvkbench env: "


def run_once(command: list, checkout: str, workload: str, seed: int,
             seconds: float):
    """(environment, result) of one untraced benchmark run in ``checkout``."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in lines
               if line.startswith(ENV_PREFIX))
    return env, json.loads(lines[-1])


def summarise(parent: list, change: list, better: str, bound: float) -> dict:
    def stats(values):
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": med, "q1": q1, "q3": q3}

    sign = 1.0 if better == "higher" else -1.0
    p, c = stats(parent), stats(change)
    ratio = c["median"] / p["median"]
    worse_by = sign * (1.0 - ratio)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    return {"better": better, "parent": p, "change": c,
            "median_ratio": ratio, "change_worse_by": worse_by,
            "bound": bound, "within_bound": worse_by <= bound,
            "change_better_in": f"{wins}/{len(parent)}",
            "medians_differ_by_more_than_parent_iqr":
                abs(c["median"] - p["median"]) > p["q3"] - p["q1"]}


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    parent_dir, change_dir, label = argv[:3]
    workloads = argv[3].split(",")
    seeds = [int(s) for s in argv[4].split(",")]
    if len(seeds) < 2:
        print("quartiles need at least two seeds", file=sys.stderr)
        return 2
    with open(os.path.join(parent_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    sides = {"parent": parent_dir, "change": change_dir}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    env = None
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                env, res = run_once(bench["command"], sides[side], w, seed,
                                    seconds)
                row = {"seed": seed, "correct": res["correct"],
                       "attempted": res["attempted"], "failed": res["failed"]}
                row.update({m["name"]: res["metrics"][m["name"]]["value"]
                            for m in metrics})
                runs[w][side].append(row)
                print(f"pair {k} {w} {side}: " + ", ".join(
                    f"{m['name']} {row[m['name']]:.4g}" for m in metrics),
                    flush=True)

    out = {
        "label": label,
        "what": f"{len(seeds)} alternating parent/change pairs per workload; "
                "the parent runs are the baseline",
        "command": " ".join(bench["command"]) + " --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "order": f"pair k (k = 0..{len(seeds) - 1}, seed = seeds[k]): parent "
                 "first when k is even, change first when k is odd",
        "host": f"{os.cpu_count()} CPUs, one BLAS thread (set by "
                "tvkbench/run.py)",
        "environment": env,
        "workloads": {},
    }
    for w in workloads:
        par, chg = runs[w]["parent"], runs[w]["change"]
        summary = {m["name"]: summarise([r[m["name"]] for r in par],
                                        [r[m["name"]] for r in chg],
                                        m["better"], m["bound"])
                   for m in metrics}
        out["workloads"][w] = {
            "seeds": seeds, "runs": runs[w], "summary": summary,
            "failed_ops": {"parent": sum(r["failed"] for r in par),
                           "change": sum(r["failed"] for r in chg)},
            "all_correct": all(r["correct"] for r in par + chg)}
        for name, s in summary.items():
            p, c = s["parent"], s["change"]
            print(f"{w} {name}: parent {p['median']:.4g} "
                  f"[{p['q1']:.4g}, {p['q3']:.4g}], change {c['median']:.4g} "
                  f"[{c['q1']:.4g}, {c['q3']:.4g}], ratio "
                  f"{s['median_ratio']:.3f}, change better in "
                  f"{s['change_better_in']}")
    path = os.path.join(change_dir, f"BENCH_{label}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
