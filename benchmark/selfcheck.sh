#!/usr/bin/env bash
# A/A check: does the benchmark agree with itself?
#
#   benchmark/selfcheck.sh [--runs N] [--seconds T] [--workload W]...
#
# Builds once, then makes two sets (A and B) of N invocations of the same
# binary per workload (default N = 5, alternating A, B, A, B, ...). Run i of
# each set uses seed i, the way the benchmark contract's driver varies the
# seed. Prints, per workload and end-to-end metric, both medians, both
# quartile pairs, the spread (interquartile range over median) of each set,
# the relative difference of the medians, and the bound from BENCHMARK.json.
#
# Exits nonzero if a median differs by more than its bound, if a spread
# other than setup_s's exceeds its bound, if any virtual-clock metric
# (sim_*) differs at all between the A and B run of one seed, if
# host_peak_bytes differs by more than 2 % between them, or if any run
# fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec python3 - "$CARGO_TARGET_DIR/release/svm-benchmark" "$here/../BENCHMARK.json" "$here/out" "$@" <<'PY'
import functools, json, statistics, subprocess, sys

print = functools.partial(print, flush=True)

exe, spec_path, out_dir, *args = sys.argv[1:]
spec = json.load(open(spec_path))
runs, seconds, workloads = 5, spec["run_seconds"], []
it = iter(args)
for a in it:
    if a == "--runs":
        runs = int(next(it))
    elif a == "--seconds":
        seconds = float(next(it))
    elif a == "--workload":
        workloads.append(next(it))
    else:
        sys.exit(f"selfcheck: unknown option {a!r}")
workloads = workloads or [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m for m in spec["end_to_end"]}
# Identical for one seed whatever the host does: the simulation is a pure
# function of its inputs.
EXACT = [n for n in bounds if n.startswith("sim_")]
# Nearly so: one driver thread allocates deterministically, but when an
# exiting node thread frees its last bytes relative to the driver's next
# allocation is up to the host.
PEAK_TOLERANCE = 0.02


def invoke(workload, seed):
    p = subprocess.run(
        [exe, "--out-dir", out_dir, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
        sys.exit(f"selfcheck: {workload} seed {seed} exited with {p.returncode}")
    r = json.loads(p.stdout.strip().splitlines()[-1])
    if not r["correct"] or r["failed"]:
        sys.exit(f"selfcheck: {workload} seed {seed}: {r['failed']} of {r['attempted']} failed")
    return {k: v["value"] for k, v in r["metrics"].items()}


def quartiles(v):
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


bad = []
for w in workloads:
    a, b = [], []
    for seed in range(1, runs + 1):
        first, second = (a, b) if seed % 2 else (b, a)
        first.append(invoke(w, seed))
        second.append(invoke(w, seed))
    print(f"\n{w}: 2 sets x {runs} runs, seeds 1..{runs}, {seconds} s each")
    print(f"  {'metric':<20} {'median A':>14} {'median B':>14} {'diff':>8} "
          f"{'spread A':>9} {'spread B':>9} {'bound':>6}   quartiles A | B")
    for name, m in bounds.items():
        va, vb = [r[name] for r in a], [r[name] for r in b]
        (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
        worse = (bm - am) / am if m["better"] == "lower" else (am - bm) / am
        sa, sb = (a3 - a1) / am, (b3 - b1) / bm
        print(f"  {name:<20} {am:>14.6g} {bm:>14.6g} {100 * worse:>+7.2f}% "
              f"{100 * sa:>8.2f}% {100 * sb:>8.2f}% {100 * m['bound']:>5.0f}%"
              f"   {a1:.6g}..{a3:.6g} | {b1:.6g}..{b3:.6g}")
        if abs(worse) > m["bound"]:
            bad.append(f"{w}/{name}: medians differ by {100 * worse:+.2f}% (bound {100 * m['bound']:.0f}%)")
        if name != "setup_s" and max(sa, sb) > m["bound"]:
            bad.append(f"{w}/{name}: spread {100 * max(sa, sb):.2f}% exceeds the bound")
        if name in EXACT and va != vb:
            bad.append(f"{w}/{name}: differs between two runs of the same seed")
        if name == "host_peak_bytes" and any(
                abs(x - y) > PEAK_TOLERANCE * x for x, y in zip(va, vb)):
            bad.append(f"{w}/{name}: two runs of the same seed differ by more than 2 %")

print()
for line in bad:
    print("FAIL", line)
print("selfcheck:", "FAILED" if bad else "OK")
sys.exit(1 if bad else 0)
PY
