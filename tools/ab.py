#!/usr/bin/env python3
"""A/B two builds of the cost ledger, in alternating pairs.

Each pair runs the parent and the change once each on one workload, the
side that goes first alternating from pair to pair. Every run's last JSON
line is read, and so is the growth of three `getrusage(RUSAGE_CHILDREN)`
counters across it: `ru_minflt` (minor page faults: a row that moves
together with its faults is an allocator-placement suspect, not a CPU one),
`ru_nvcsw` and `ru_nivcsw` (voluntary and involuntary context switches: a
threaded row that moves together with them is a hand-off suspect). The
three are printed, lower is better, and gated by nothing.

For every workload x metric it prints the parent's median (q1-q3), the
change's median (q1-q3), the ratio of the medians and the pairs the change
won. A metric is *resolved* when the change wins at least 9 in 10 pairs
and the medians lie further apart than the parent's interquartile range.
It exits non-zero if any run reads `correct: false` or fails, or if any
measured workload's end-to-end metric (those the repository's
`BENCHMARK.json` lists under `end_to_end`) has a change median worse
than the parent's by more than that metric's `bound`. With `--claim WORKLOAD:METRIC` it also exits
non-zero unless that metric resolves: the gate a claimed gain is held to,
checked before the change is proposed.

Before the pairs run it prints the byte size of each hot function in the
two binaries (`nm -S --demangle`), side by side: a function inlined,
outlined or grown on one side only can move a row with no change to the
code that row runs. An absent symbol prints as `inlined`, sizes that
differ are marked `DIFFERS`, and a missing `nm` is said and skipped. The
sizes gate nothing.

    python3 tools/ab.py --parent A/ledger --change B/ledger \\
        --workloads sharded_flowlet serial_flowlet --pairs 10 --seed 3 --seconds 10 \\
        --claim serial_flowlet:norm_pkts_per_s

Standard library only.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys

# The rusage counters read around each run, by the name they print as.
RUSAGE = {"minflt": "ru_minflt", "nvcsw": "ru_nvcsw", "nivcsw": "ru_nivcsw"}

# The end-to-end metrics BENCHMARK.json bounds, with their better side,
# and the rusage counters.
METRICS = [
    ("norm_pkts_per_s", "higher"),
    ("setup_s", "lower"),
    ("peak_rss_mb", "lower"),
] + [(name, "lower") for name in RUSAGE]


# The hot functions whose sizes are printed on both sides, by label, each
# with the pattern its demangled symbol names match in full. A generic
# method matches every monomorph, each listed with its own size.
HOT = [
    ("banzai::slot::exec", r"banzai::slot::exec"),
    ("banzai::wire::BoundParser::parse_into", r"banzai::wire::BoundParser::parse_into"),
    ("banzai::switch::admitting::{{closure}}", r"banzai::switch::admitting::\{\{closure\}\}"),
    ("banzai::switch::parsing::{{closure}}", r"banzai::switch::parsing::\{\{closure\}\}"),
    ("banzai::switch::Switch<..>::cycle", r"<?banzai::switch::Switch<.*>>?::cycle"),
    ("banzai::switch::Switch<..>::drain_burst", r"<?banzai::switch::Switch<.*>>?::drain_burst"),
]


def hot_sizes(binary):
    """`{label: sorted byte sizes}` of the hot functions in `binary`."""
    out = subprocess.run(
        ["nm", "-S", "--demangle", binary], capture_output=True, text=True, check=True
    ).stdout
    sizes = {label: [] for label, _ in HOT}
    for line in out.splitlines():
        # `address size type name`; undefined symbols carry no size.
        m = re.match(r"[0-9a-f]+ ([0-9a-f]+) \w (.*)$", line)
        for label, pattern in HOT if m else []:
            if re.fullmatch(pattern, m.group(2)):
                sizes[label].append(int(m.group(1), 16))
    return {label: sorted(found) for label, found in sizes.items()}


def print_hot_sizes(parent, change):
    """Prints the hot functions' sizes in the two binaries, side by side."""
    try:
        sides = [hot_sizes(parent), hot_sizes(change)]
    except FileNotFoundError:
        print("hot-function sizes: nm is missing; carrying on without them", flush=True)
        return
    except subprocess.CalledProcessError as e:
        print(f"hot-function sizes: nm failed on {e.cmd[-1]}; carrying on", flush=True)
        return
    print(f"hot-function sizes (bytes, nm -S --demangle) {'parent':>17} | change")
    for label, _ in HOT:
        p, c = (", ".join(map(str, side[label])) or "inlined" for side in sides)
        print(f"  {label:46} {p:>14} | {c}{'  DIFFERS' if p != c else ''}", flush=True)


def rusage():
    """The children's rusage counters, by the name they print as."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {name: getattr(usage, field) for name, field in RUSAGE.items()}


def run_once(binary, workload, seed, seconds):
    """One ledger run: its metrics, with the rusage counters added, and `correct`."""
    before = rusage()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True,
        text=True,
    )
    after = rusage()
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{binary} {workload}: exit {proc.returncode}\n{proc.stderr}")
        return None, False
    doc = json.loads(lines[-1])
    # Each metric is `{"value": v, "unit": u}`.
    metrics = {name: m["value"] for name, m in doc.get("metrics", {}).items()}
    metrics.update({name: after[name] - before[name] for name in RUSAGE})
    return metrics, bool(doc.get("correct"))


def quartiles(xs):
    """(q1, median, q3) of a sample; a sample of one is its own quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    if abs(x) >= 1e5:
        return f"{x / 1e6:.3f}M"
    if abs(x) >= 100:
        return f"{x:.0f}"
    return f"{x:.4g}"


def bounds(path):
    """`{metric: (better, bound)}` for the end-to-end metrics of `path`."""
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent's ledger binary")
    ap.add_argument("--change", required=True, help="the change's ledger binary")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument(
        "--claim",
        metavar="WORKLOAD:METRIC",
        help="exit non-zero unless this metric resolves on this workload",
    )
    args = ap.parse_args()
    gates = bounds(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in args.workloads):
        ap.error(f"--claim {args.claim}: expected WORKLOAD:METRIC, WORKLOAD one of --workloads")

    print_hot_sizes(args.parent, args.change)
    ok = True
    claimed = False
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                binary = args.parent if side == "parent" else args.change
                metrics, correct = run_once(binary, workload, args.seed, args.seconds)
                if metrics is None or not correct:
                    sys.stderr.write(f"{workload}: {side} pair {pair}: correct: false\n")
                    ok = False
                runs[side].append(metrics or {})
                # Every run's raw values, so that none is lost to a summary.
                raw = {name: (metrics or {}).get(name) for name, _ in METRICS}
                print(f"# {workload} pair {pair + 1} {side} {json.dumps(raw)}", file=sys.stderr, flush=True)

        print(f"{workload} (seed {args.seed}, {args.pairs} pairs, {args.seconds} s)")
        for name, better in METRICS:
            pairs = [
                (p[name], c[name])
                for p, c in zip(runs["parent"], runs["change"])
                if p.get(name) is not None and c.get(name) is not None
            ]
            if not pairs:
                continue
            ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
            (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(ps), quartiles(cs)
            if better == "higher":
                wins = sum(c > p for p, c in pairs)
            else:
                wins = sum(c < p for p, c in pairs)
            ratio = cmed / pmed if pmed else float("nan")
            resolved = wins * 10 >= 9 * len(pairs) and abs(cmed - pmed) > (pq3 - pq1)
            # Past its bound on the wrong side: what the gate refuses.
            worse = False
            if name in gates:
                side, bound = gates[name]
                limit = pmed * (1 - bound if side == "higher" else 1 + bound)
                worse = cmed < limit if side == "higher" else cmed > limit
            print(
                f"  {name:16} parent {fmt(pmed)} ({fmt(pq1)}-{fmt(pq3)})"
                f"  change {fmt(cmed)} ({fmt(cq1)}-{fmt(cq3)})"
                f"  ratio {ratio:.3f}  wins {wins}/{len(pairs)}"
                f"{'  resolved' if resolved else ''}{'  PAST ITS BOUND' if worse else ''}",
                flush=True,
            )
            if worse:
                ok = False
            if (workload, name) == claim:
                claimed = resolved
    if claim and not claimed:
        print(f"claim {args.claim}: not resolved", flush=True)
    sys.exit(0 if ok and (claimed or not claim) else 1)


if __name__ == "__main__":
    main()
