#!/usr/bin/env python3
"""The repository's benchmark: build, run one workload, report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs the `perfbench` binary:

  --trace 0  untraced passes for --seconds; reports the end_to_end metrics
             of BENCHMARK.json.
  --trace 1  an untraced pass, a traced pass and PC-sampled passes for
             --seconds; reports the per_layer metrics of BENCHMARK.json,
             including the host-time split by module (host.share.*),
             prints the per-layer table and the bottleneck resource.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero without that line if the build fails, the simulation
stalls, an ODAFS workload returns wrong bytes, or a determinism check
fails.
"""
import argparse
import collections
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Host-time shares of the simulator: one per src/<module>/ directory that a
# workload runs, "libc" for the C and C++ runtime (shared libraries and
# standard-library code compiled into the executable) and "other" for the
# rest. "bench" is the benchmark's own code (input generation, output
# checks), reported as its share of all samples.
MODULES = ["sim", "mem", "net", "nic", "msg", "rpc", "nas", "cache", "fs",
           "crypto", "common", "obs", "host", "core", "fault"]
NS_RE = re.compile(r"ordma::(\w+)::")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found; cannot build")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log(f"perfbench: build failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.isfile(exe) else None


def module_of(frames):
    """Module of one sampled address from its inline chain, innermost frame
    first, as (function, file) pairs. The innermost frame whose source
    file lies in src/<module>/ names the module; perfbench/ is "bench".
    Otherwise the code is the C++ standard library: a template
    instantiated for an ordma type counts for that type's namespace, any
    other is "libc"."""
    for fn, path in frames:
        _, sep, rest = path.rpartition("/src/")
        if sep and "/" in rest:
            return rest.split("/", 1)[0]
        if os.path.basename(os.path.dirname(path)) == "perfbench":
            # The allocation counter is a thin wrapper around malloc.
            return "libc" if path.endswith("alloc_count.cc") else "bench"
    if not frames or frames[0][0] == "??":
        return "other"
    m = NS_RE.search(frames[0][0])
    return m.group(1) if m else "libc"


def host_shares(samples_path):
    """Fold the sampler's histogram into {module: share of samples}."""
    counts = collections.Counter()
    exe = None
    pcs = {}
    with open(samples_path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "exe":
                exe = line[4:].strip() or None
            elif parts[0] == "pc":
                pcs[parts[1]] = int(parts[2])
            elif parts[0] == "lib":
                counts["libc"] += int(parts[2])
            elif parts[0] == "unknown":
                counts["other"] += int(parts[1])
    if pcs:
        addrs = list(pcs)
        res = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", exe],
                             input="\n".join("0x" + a for a in addrs) + "\n",
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=120, check=True)
        # Output per address: "0x<addr>", then a function line and a
        # file:line line per frame, from the innermost inlined frame out.
        chains = {}
        cur = None
        lines = res.stdout.splitlines()
        i = 0
        while i < len(lines):
            ln = lines[i]
            if ln.startswith("0x"):
                cur = format(int(ln, 16), "x")
                chains[cur] = []
                i += 1
                continue
            path = lines[i + 1].rsplit(":", 1)[0] if i + 1 < len(lines) else ""
            chains[cur].append((ln, os.path.normpath(path)))
            i += 2
        for a, n in pcs.items():
            counts[module_of(chains.get(format(int(a, 16), "x"), []))] += n
    # Shares of the simulator's host time: the benchmark's own samples
    # (input generation, output checks) are left out of the denominator
    # and reported as their share of all samples.
    total = sum(counts.values())
    bench = counts.pop("bench", 0)
    sim_total = total - bench
    shares = dict.fromkeys(MODULES + ["libc", "other"], 0.0)
    for m, n in counts.items():
        # Directories outside MODULES (e.g. policy, db) count as other.
        shares[m if m in shares else "other"] += n / sim_total
    shares["bench"] = bench / total if total else 0.0
    return shares, total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload {args.workload}")
        return 2

    exe = build()
    if exe is None:
        return 2

    samples = os.path.join(build_dir(), f"samples.{args.workload}.txt")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--mode", "layers" if args.trace else "plain"]
    if args.trace:
        cmd += ["--samples", samples]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in "
            f"{RUN_TIMEOUT_S} s")
        return 3
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log(f"perfbench: binary exited with {res.returncode}")
        return res.returncode or 3
    for ln in lines[:-1]:
        print(ln)
    result = json.loads(lines[-1])
    got = result["metrics"]

    if args.trace:
        shares, nsamples = host_shares(samples)
        for m, v in shares.items():
            got["host.share." + m] = v
        print(f"host-time samples: {nsamples} at 10 kHz, "
              f"{shares['bench']:.1%} in the benchmark's own code; of the "
              f"simulator's, {1 - shares['other']:.1%} in named modules "
              f"and libc")
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    metrics = {}
    missing = []
    for m in wanted:
        if m["name"] not in got:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got[m["name"]], "unit": m["unit"]}
    if missing:
        log(f"perfbench: binary did not report {', '.join(missing)}")
        return 3

    if args.trace:
        print(f"per-layer metrics, {args.workload}, seed {args.seed}:")
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
