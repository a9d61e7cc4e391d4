"""momentlab benchmark: one seeded, closed-loop, single-process workload per run.

    python3 bench/run.py --workload {scenarios,polytopes,pointwise} \
        --seed N --seconds S --trace {0,1}

Workloads (one client; the next item starts when the previous verdict returns):
  scenarios  the committed scenarios/*.json through cli.run_scenario, the path
             a `momentlab run` user waits on; the only workload where sampler,
             reporting and cli do real work.
  polytopes  seeded random bounded slices, d = 3..6, half over Q and half over
             Q(sqrt2): moment image, local-cones and hull identities, contact
             cone; dominated by double description and Fourier-Motzkin.
  pointwise  seeded random skew forms and subspaces (dim 1..8), per-stratum
             cleanness / slice / dphi identities on small slices, and the
             product-model points; dominated by elimination (linalg.rref).

--trace 0 times the workload for --seconds with tracing off and prints the
end-to-end metrics.  --trace 1 replays the first pattern period of inputs
untraced for about a third of --seconds, then twice traced; both traced passes
must give identical counts.  It prints the per-layer metrics.  Either way
every output is checked: certified identities per item, the recorded SHA-256
of every scenario output file, a digest of the first period's verdicts at the
default seed, and (polytopes) a sympy brute-force vertex oracle outside the
timed window.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.

Times are reported at reference speed.  A shared host's speed can drift by
up to ~1.7x over seconds (on a 2-vCPU Xeon VM the probe below took 2.8 ms to
4.8 ms within minutes, with CPU time tracking wall time), which would swamp
any regression bound.  So a fixed exact-arithmetic probe, independent of momentlab, is timed
between consecutive items, and each item's wall time is scaled by
PROBE_REF_S over the mean of the probes on either side of it.  The raw wall
medians are printed alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
WORKLOADS = ("scenarios", "polytopes", "pointwise")
SCENARIOS = ("segment", "quasifold", "product_counterexample", "circle_nonconvex",
             "deformation")
# untimed warm-up items before the timed window
WARMUP = {"scenarios": 5, "polytopes": 4, "pointwise": 20}
SETUP_REPEATS = 7
PROBE_REF_S = 0.003


_PROBE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(7)]
                 for i in range(7)]


def probe() -> float:
    """Seconds for a fixed Gauss-Jordan elimination on Fractions (stdlib only),
    the same kind of work as the engine; about PROBE_REF_S at reference speed."""
    t0 = time.perf_counter()
    for _ in range(3):
        a = [row[:] for row in _PROBE_MATRIX]
        for c in range(7):
            p = next(i for i in range(c, 7) if a[i][c] != 0)
            a[c], a[p] = a[p], a[c]
            a[c] = [x / a[c][c] for x in a[c]]
            for i in range(7):
                if i != c and a[i][c] != 0:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return time.perf_counter() - t0


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def pin_environment() -> dict:
    """Serial engine defaults and single-threaded numpy, before any import."""
    os.environ.pop("MOMENTLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "momentlab" / "__init__.py").is_file():
        fail(f"no momentlab sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy
    import momentlab

    if Path(momentlab.__file__).resolve().parent != SRC / "momentlab":
        fail(f"imported momentlab from {momentlab.__file__}, not from {SRC}")
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def measure_setup() -> float:
    """Median time of a fresh `import momentlab.cli`, which a CLI user pays on
    every run, at reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import momentlab.cli"], cwd=ROOT, env=env,
                       check=True)
        dt = time.perf_counter() - t0
        after = probe()
        times.append(dt * 2 * PROBE_REF_S / (before + after))
        before = after
    return statistics.median(times)


class Workload:
    """The seeded input stream, the timed call and the untimed verdict."""

    def __init__(self, name: str, seed: int, out: Path):
        import workloads as w

        self.name, self.out, self.w = name, out, w
        rng = random.Random(f"{name}:{seed}")
        if name == "scenarios":
            paths = sorted((ROOT / "scenarios").glob("*.json"))
            if sorted(p.stem for p in paths) != sorted(SCENARIOS):
                fail("scenarios/ does not hold the five committed scenarios")
            self.stream, self.period = w.scenario_stream(rng, paths), len(paths)
        elif name == "polytopes":
            self.stream, self.period = w.polytope_stream(rng), len(w.POLYTOPE_PATTERN)
        else:
            self.stream, self.period = w.pointwise_stream(rng), len(w.POINTWISE_PATTERN)
        self.drawn: list = []
        self.expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}

    def input(self, i: int):
        while len(self.drawn) <= i:
            self.drawn.append(next(self.stream))
        return self.drawn[i]

    def key(self, i: int):
        """Scenario inputs repeat (by file); generated inputs are all distinct."""
        return self.input(i)["path"].stem if self.name == "scenarios" else i

    def prepare(self, raw) -> None:
        if self.name == "scenarios":
            d = self.out / raw["path"].stem
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)

    def run(self, raw):
        if self.name == "scenarios":
            return self.w.scenario_item(raw, self.out / raw["path"].stem)
        if self.name == "polytopes":
            return self.w.polytope_item(raw)
        return self.w.pointwise_item(raw)

    def verdict(self, raw, result):
        if self.name != "scenarios":
            return result
        stem = raw["path"].stem
        got = self.w.output_digests(self.out / stem)
        want = self.expected.get("scenario_files", {}).get(stem)
        self.w.check(want is None or got == want, f"{stem}: output digests differ from record")
        return got


class Runner:
    """Runs items, keeps verdicts per distinct input, counts failures."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.verdicts: dict = {}
        self.failed = 0
        self.errors: list[str] = []
        self.last_probe = probe()

    def item(self, i: int):
        """Run input i; return (wall seconds, ok)."""
        wl = self.wl
        raw = wl.input(i)
        wl.prepare(raw)
        t0 = time.perf_counter()
        try:
            result = wl.run(raw)
            dt = time.perf_counter() - t0
            v = wl.verdict(raw, result)
            key = wl.key(i)
            wl.w.check(self.verdicts.setdefault(key, v) == v, f"input {key}: verdict changed")
        except Exception as exc:  # a failed item is counted, and the run goes on
            self.failed += 1
            self.errors.append(f"input {i}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, False
        return dt, True

    def timed(self, i: int):
        """Run input i; return (wall s, reference-speed s, ok), scaling by the
        probes taken just before and just after the item."""
        dt, ok = self.item(i)
        after = probe()
        ref = dt * 2 * PROBE_REF_S / (self.last_probe + after)
        self.last_probe = after
        return dt, ref, ok

    def verdict_digest(self) -> str:
        """Digest of the first period's verdicts, running any not yet run."""
        keys = []
        for i in range(self.wl.period):
            if self.wl.key(i) not in self.verdicts:
                self.item(i)
            keys.append(self.wl.key(i))
        ordered = [self.verdicts.get(k) for k in keys]
        return hashlib.sha256(json.dumps(ordered, sort_keys=True).encode()).hexdigest()


def run_oracle(runner: Runner) -> None:
    """Brute-force vertices (sympy, outside the timed window) against the
    engine's enumerate_vertices, on the first period of polytopes inputs."""
    import oracle
    from momentlab import polyhedra

    wl = runner.wl
    for i in range(wl.period):
        raw = wl.input(i)
        try:
            P = wl.w.build_slice(raw).moment_polytope()
            verts, _ = polyhedra.enumerate_vertices(P)
            engine = {tuple((e.coeffs[0], e.coeffs[1] if len(e.coeffs) > 1 else 0)
                            for e in v) for v in verts}
            wl.w.check(engine == oracle.vertices(raw), f"oracle: vertices of input {i}")
        except Exception as exc:
            runner.failed += 1
            runner.errors.append(f"oracle input {i}: {type(exc).__name__}: {exc}")


def quantile(xs: list[float], q: float) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(runner: Runner, seconds: float, setup_s: float):
    """Closed loop for `seconds` after the warm-up, tracing off."""
    wl = runner.wl
    for i in range(WARMUP[wl.name]):
        runner.item(i)
    samples, attempted = [], 0
    runner.last_probe = probe()
    deadline = time.perf_counter() + seconds
    # whole pattern periods only, so the mix of inputs is the same every run
    for i in itertools.count(WARMUP[wl.name]):
        wall, ref, ok = runner.timed(i)
        attempted += 1
        if ok:
            samples.append((ref * 1e3, wall * 1e3, wl.input(i)["field"], wl.key(i)))
        if attempted % wl.period == 0 and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = [s[0] for s in samples]
    by_field = {f: [s[0] for s in samples if s[2] == f] for f in ("q", "sqrt2")}
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (1e3 * len(ms) / sum(ms), "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (quantile(ms, 0.90), "ms"),
        "items_per_s.q": (1e3 * len(by_field["q"]) / sum(by_field["q"]), "1/s"),
        "items_per_s.sqrt2": (1e3 * len(by_field["sqrt2"]) / sum(by_field["sqrt2"]), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = [s[1] for s in samples]
    notes = {"item_p50_ms": f"n={len(ms)}; wall {statistics.median(wall):.4g} ms",
             "item_p90_ms": f"n={len(ms)}; wall {quantile(wall, 0.90):.4g} ms"}
    for f, xs in by_field.items():
        notes[f"items_per_s.{f}"] = f"n={len(xs)}"
        notes[f"item_p50_ms.{f}"] = f"{statistics.median(xs):.4f} ms (n={len(xs)})"
    if wl.name == "scenarios":
        for stem in SCENARIOS:
            xs = [s[0] for s in samples if s[3] == stem]
            notes[f"report_ms.{stem}"] = f"{statistics.median(xs):.4f} ms (n={len(xs)})"
    return metrics, notes, attempted


def per_layer(runner: Runner, seconds: float):
    """The first period untraced for about a third of `seconds`, then twice
    traced; counts of the two traced passes must agree."""
    import tracer as spans

    wl = runner.wl
    prefix = range(wl.period)
    attempted, passes, per_key = 0, [], {}
    runner.last_probe = probe()
    deadline = time.perf_counter() + seconds / 3
    while not passes or time.perf_counter() < deadline:
        total = 0.0
        for i in prefix:
            _, ref, _ = runner.timed(i)
            attempted += 1
            total += ref
            per_key.setdefault(wl.key(i), []).append(ref)
        passes.append(total)
    traced = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        # the probe touches no momentlab code, so tracing does not slow it
        probes = [probe()]
        try:
            total = 0.0
            for i in prefix:
                dt, _ = runner.item(i)
                attempted += 1
                total += dt
                probes.append(probe())
        finally:
            tracer.uninstall()
        # one factor per pass: a span cannot be split between probes
        scale = PROBE_REF_S / statistics.median(probes)
        traced.append((tracer, tracer.summary(), total * scale, scale))
    (tracer, first, total, scale), (_, second, _, _) = traced
    layers = spans.layer_metrics(first)
    again = spans.layer_metrics(second)
    for name, (value, unit) in layers.items():
        if unit == "count" and again[name][0] != value:
            runner.failed += 1
            runner.errors.append(f"traced counts differ: {name} {value} != {again[name][0]}")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{wl.name}.jsonl")
    metrics = {k: (float(v) * scale if u == "s" else int(v), u) for k, (v, u) in layers.items()}
    for stem in SCENARIOS:
        xs = per_key.get(stem)
        metrics[f"report_ms.{stem}"] = (statistics.median(xs) * 1e3 if xs else 0.0, "ms")
    metrics["trace.overhead_s"] = (total - statistics.median(passes), "s")
    notes = {"spans": f"{first['spans']} in the first traced pass, written to "
                      f"{OUT.name}/spans-{wl.name}.jsonl; times at reference speed "
                      f"(factor {scale:.3f})"}
    return metrics, notes, attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's digests as the expected ones (default seed only)")
    args = ap.parse_args(argv)
    env = pin_environment()
    if args.workload == "polytopes" and importlib.util.find_spec("sympy") is None:
        fail("sympy is required for the polytopes vertex oracle")
    if args.record and args.seed != DEFAULT_SEED:
        fail(f"--record needs the default seed {DEFAULT_SEED}")

    setup_s = measure_setup() if args.trace == 0 else None
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        wl = Workload(args.workload, args.seed, run_dir)
        runner = Runner(wl)
        if args.trace == 0:
            metrics, notes, attempted = end_to_end(runner, args.seconds, setup_s)
        else:
            metrics, notes, attempted = per_layer(runner, args.seconds)
        digest = runner.verdict_digest()
        if args.workload == "polytopes":
            run_oracle(runner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    expected = wl.expected
    if args.record:
        expected.setdefault("verdict_digest", {})[args.workload] = digest
        if args.workload == "scenarios":
            expected["scenario_files"] = {k: runner.verdicts[k] for k in SCENARIOS}
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED:
        want = expected.get("verdict_digest", {}).get(args.workload)
        if want != digest:
            runner.failed += 1
            runner.errors.append(f"verdict digest {digest} != recorded {want}")

    print(f"# momentlab bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} commit={env['commit']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit:6s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:32s} {note}")
    attempted = max(attempted, 1)
    print(f"  {'error_rate':32s} {runner.failed / attempted:>14.6g} ratio  "
          f"({runner.failed} of {attempted})")
    for e in runner.errors[:20]:
        print(f"  ERROR {e}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
