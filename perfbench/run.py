"""learcov benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is the checkout's ``src``
tree, imported by fresh interpreters with ``PYTHONPATH=src``. Inputs are
generated from ``--seed`` by ``gen.py`` (numpy only). With ``--trace 0`` the
run times whole ops and prints the end-to-end metrics; with ``--trace 1`` it
replays the ops in-process with spans and prints the per-layer metrics.
Every op's output is checked (see ``oracle.py``); the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Work files go to ``.bench_build/perfbench``. See README.md for the design.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

END_TO_END = {
    "op_per_ref": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "python.startup_s": "s",
    "import.learcov_s": "s",
    "dataio.read_s": "s",
    "dataio.read_rows_per_s": "1/s",
    "dataio.read_peak_mb": "MB",
    "dataio.write_s": "s",
    "dataio.write_rows_per_s": "1/s",
    "sim.simulate_s": "s",
    "sim.subjects_per_s": "1/s",
    "estimation.data_build_s": "s",
    "estimation.profile_call_ms": "ms",
    "estimation.fit_s": "s",
    "estimation.fit_peak_mb": "MB",
    "estimation.compare_s": "s",
    "estimation.nm_iterations": "count",
    "estimation.scan_failures": "count",
    "estimation.scan_ok_ratio": "ratio",
    "core.matrix_us": "us",
    "reparam.check_ms": "ms",
    "jsonio.dumps_ms": "ms",
    "cli.residual_s": "s",
    "trace.overhead_ms": "ms",
}
# Per-command names for the printed table.
STEP_NAMES = {
    "fit": "cli_fit_s", "simulate": "cli_simulate_s", "check": "cli_check_s",
}
STARTUP_REPS = 5
IMPORT_REPS = 3
CLI_REPS_TRACED = 3
CHILD_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fixed work that never touches learcov, in the proportions of an op: a
# fresh interpreter imports numpy and scipy, parses CSV text and runs small
# Cholesky solves. Timed next to every op, it measures how fast the machine
# is at that moment; ``op_per_ref`` divides the op by it.
REFERENCE_WORK = r"""
import csv, io
import numpy as np
import scipy.optimize, scipy.special
rng = np.random.default_rng(0)
text = "\n".join(f"s{i // 8},{i % 8 + 1},{v!r}"
                 for i, v in enumerate(rng.standard_normal(20000).tolist()))
rows = [(r[0], float(r[1]), float(r[2])) for r in csv.reader(io.StringIO(text))]
a = rng.standard_normal((8, 8))
g = a @ a.T + 8 * np.eye(8)
for _ in range(4000):
    np.linalg.solve(np.linalg.cholesky(g), a)
"""


class BenchError(Exception):
    """The run cannot produce a result (missing program, crashed child)."""


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Starts child interpreters on the checkout's src tree and times them."""

    def __init__(self, root, workdir):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ)
        self.env.pop("LEARCOV_THREADS", None)
        # Single-threaded BLAS: learcov's matrices are small, and on a shared
        # 2-core machine BLAS threads add contention noise, not speed.
        self.env.update({k: "1" for k in BLAS_THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([os.environ["PYTHONPATH"]]
                                           if os.environ.get("PYTHONPATH") else []))
        self.count = 0

    def run(self, argv):
        """Run to completion; return (wall seconds, exit code, max RSS MB, stdout)."""
        self.count += 1
        out_path = os.path.join(self.workdir, f"child{self.count}.out")
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child, then re-raise
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(out_path + ".err", "rb") as fh:
                sys.stderr.write(fh.read().decode(errors="replace")[-2000:])
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, stdout

    def reference(self):
        """Wall seconds of one run of REFERENCE_WORK."""
        elapsed, code, _, _ = self.run([sys.executable, "-c", REFERENCE_WORK])
        if code != 0:
            raise BenchError(f"the reference work exited with {code}")
        return elapsed

    def inproc(self, *args):
        """Run a perfbench/inproc.py command; return (seconds, JSON lines)."""
        elapsed, code, _, stdout = self.run(
            [sys.executable, os.path.join(HERE, "inproc.py"), *map(str, args)])
        if code != 0:
            raise BenchError(f"inproc.py {args[0]} exited with {code}")
        return elapsed, [json.loads(line) for line in stdout.splitlines()]


def cli_steps(workload, wd):
    """The CLI commands of one op, as (step, argv) pairs."""
    py = [sys.executable, "-m", "learcov"]
    data = os.path.join(wd, "data.csv")
    if workload == "fit-large":
        return [("fit", py + ["fit", "--input", data, "--design", "intercept-time"])]
    sim = os.path.join(wd, "sim.csv")
    return [("simulate", py + ["simulate", "--spec", os.path.join(wd, "spec.json"),
                               "--out", sim]),
            ("check", py + ["check-special-case", "--input", sim])]


class HashStore:
    """sha256 of every output, per program source, inputs, seed and step.

    Kept across runs in the checkout so a later run of the same code and
    seed must reproduce earlier bytes.
    """

    def __init__(self, path, prefix):
        self.path, self.prefix = path, prefix
        try:
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except FileNotFoundError:
            self.known = {}

    def check(self, step, sha):
        key = f"{self.prefix}/{step}"
        if self.known.setdefault(key, sha) != sha:
            return [f"{step}: output differs from an earlier run of this code and seed"]
        return []

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


class Checker:
    """Correctness of CLI op outputs; verdicts are cached by output hash."""

    def __init__(self, wd, manifest, store):
        self.wd, self.m, self.store = wd, manifest, store
        self.verdicts = {}
        self._dataset = None

    def dataset(self):
        if self._dataset is None:
            self._dataset = oracle.read_csv(os.path.join(self.wd, "data.csv"),
                                            self.m["design"])
        return self._dataset

    def check(self, step, code, stdout):
        if code != 0 or stdout.startswith(b"E_"):
            return [f"{step} exited {code}: {stdout[:80]!r}"]
        sha = sha256_bytes(stdout)
        problems = self.store.check(step, sha)
        if step == "simulate":
            with open(os.path.join(self.wd, "sim.csv"), "rb") as fh:
                csv_sha = sha256_bytes(fh.read())
            problems += self.store.check("simulate.csv", csv_sha)
            if ("simulate.csv", csv_sha) not in self.verdicts:
                self.verdicts["simulate.csv", csv_sha] = oracle.check_simulated_csv(
                    os.path.join(self.wd, "sim.csv"), self.m["spec"])
            problems += self.verdicts["simulate.csv", csv_sha]
        if (step, sha) not in self.verdicts:
            self.verdicts[step, sha] = self._check_doc(step, stdout)
        return problems + self.verdicts[step, sha]

    def _check_doc(self, step, stdout):
        try:
            doc = json.loads(stdout)
        except ValueError:
            return [f"{step}: stdout is not JSON"]
        command = {"check": "check-special-case"}.get(step, step)
        if (not isinstance(doc, dict) or doc.get("schema_version") != 1
                or doc.get("command") != command):
            return [f"{step}: not a schema-1 {command} document"]
        crit = self.m["criterion"]
        if step == "fit":
            return oracle.check_fit(doc, self.dataset(), "lear", crit)
        if step == "simulate":
            spec = self.m["spec"]
            got = (doc.get("n_subjects"), doc.get("n_obs"), doc.get("seed"))
            want = (spec["n_subjects"], self.m["rows"], spec["seed"])
            return [] if got == want else [f"simulate reports {got}, expected {want}"]
        return oracle.check_special_case_doc(doc)


def summarize(values):
    """Median, mean, extremes, the highest percentile with ten samples
    beyond it, and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "mean": statistics.fmean(values),
           "min": values[0], "max": values[-1], "n": n}
    if n > 10:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = values[min(n - 1, int(pct / 100 * n))]
    return out


def run_loop(seconds, op, min_ops=3):
    """Closed loop, one op in flight: start another while the mean pass so
    far still fits the window. Returns what ``op`` returned per pass."""
    times = []
    start = time.perf_counter()
    while len(times) < min_ops or (
        (time.perf_counter() - start) * (len(times) + 1) / len(times) <= seconds
    ):
        times.append(op(len(times)))
    return times


def measure(workload, seconds, runner, wd, checker):
    """Untraced run: for ``seconds``, each pass times the reference work,
    one op and one set-up.

    The ops' total time is divided by the references' total, which cancels
    the speed of the machine over the run (see README). Set-up samples are
    interleaved with the ops so that both see the same periods of the
    machine.
    """
    reference, setup = [], []
    steps = {}  # step -> times
    peaks = []
    problems = []

    def op(_):
        reference.append(runner.reference())
        total, peak, found = 0.0, 0.0, []
        for step, argv in cli_steps(workload, wd):
            elapsed, code, rss, stdout = runner.run(argv)
            found += checker.check(step, code, stdout)
            steps.setdefault(step, []).append(elapsed)
            total += elapsed
            peak = max(peak, rss)
        peaks.append(peak)
        problems.append(found)
        setup.append(runner.inproc("setup", workload, wd)[0])
        return total

    op_times = run_loop(seconds, op)

    metrics = {
        "op_per_ref": sum(op_times) / sum(reference),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(peaks),
    }
    detail = {
        "setup_s": summarize(setup),
        "op_s": summarize(op_times),
        "reference_s": summarize(reference),
        "op_per_ref_each": summarize([t / r for t, r in zip(op_times, reference)]),
        "setup_per_ref_each": summarize([t / r for t, r in zip(setup, reference)]),
        "op_samples_s": op_times,
        "reference_samples_s": reference,
        "setup_samples_s": setup,
        **{STEP_NAMES[s]: summarize(v) for s, v in steps.items()},
    }
    return metrics, problems, detail


def measure_traced(workload, seconds, runner, wd, checker, spans_path):
    """Traced run: in-process replay with spans, layer probes, CLI residual."""
    _, lines = runner.inproc("trace", workload, wd, seconds, spans_path)
    t = lines[-1]
    metrics = dict(t["metrics"])
    problems = [t["problems"]]

    replayed = {}
    for step, sha in t["outputs"]:
        replayed.setdefault(step, set()).add(sha)
    for step, shas in replayed.items():
        problems.append([] if len(shas) == 1 else [f"replayed {step} output varies"])
        problems[-1] += checker.store.check(step, next(iter(shas)))

    startup = [runner.run([sys.executable, "-c", "pass"])[0]
               for _ in range(STARTUP_REPS)]
    imports = [runner.inproc("import")[1][-1]["import_s"] for _ in range(IMPORT_REPS)]
    steps = cli_steps(workload, wd)
    cli = []
    for _ in range(CLI_REPS_TRACED):
        total, found = 0.0, []
        for step, argv in steps:
            elapsed, code, _, stdout = runner.run(argv)
            found += checker.check(step, code, stdout)
            total += elapsed
        problems.append(found)
        cli.append(total)

    metrics["python.startup_s"] = statistics.median(startup)
    metrics["import.learcov_s"] = statistics.median(imports)
    # What the CLI adds to the same op replayed in-process without spans.
    metrics["cli.residual_s"] = (statistics.median(cli)
                                 - len(steps) * metrics["import.learcov_s"]
                                 - t["untraced_op_s"])
    metrics["trace.overhead_ms"] = (t["traced_op_s"] - t["untraced_op_s"]) * 1e3
    detail = {
        "replayed_ops": t["ops"],
        "spans": t["spans"],
        "spans_file": spans_path,
        "traced_op_s": t["traced_op_s"],
        "untraced_op_s": t["untraced_op_s"],
        "self_time_per_op_s": t["self_time_per_op_s"],
        "cli_op_s": summarize(cli),
    }
    return metrics, problems, detail


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "learcov")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(sha256_bytes(fh.read()).encode())
    return h.hexdigest()


def git_sha(root):
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def provenance(root, manifest, load_before, samples):
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "blas": blas,
        "thread_env_of_caller": {k: os.environ.get(k)
                                 for k in (*BLAS_THREAD_VARS, "LEARCOV_THREADS")},
        "thread_env_of_children": {**{k: "1" for k in BLAS_THREAD_VARS},
                                   "LEARCOV_THREADS": None},
        "git_sha": git_sha(root),
        "learcov_src_sha256": source_digest(root),
        "inputs": manifest["files"],
        "samples": samples,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "learcov", "__init__.py")):
        print("perfbench: src/learcov not found; run from the root of a learcov "
              "checkout", file=sys.stderr)
        return 2

    load_before = list(os.getloadavg())
    base = os.path.join(".bench_build", "perfbench")
    # Fixed per workload and seed: the simulate command prints its --out path.
    wd = os.path.join(base, "work", f"{args.workload}-{args.seed}")
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        manifest = gen.generate(args.workload, args.seed, wd)
        inputs = sha256_bytes(json.dumps(manifest, sort_keys=True).encode())
        store = HashStore(os.path.join(base, "hashes.json"),
                          f"{source_digest(root)}/{inputs}/{args.workload}/{args.seed}")
        checker = Checker(wd, manifest, store)
        runner = Runner(root, wd)
        if args.trace:
            spans_path = os.path.join(results, f"spans-{name}.json")
            metrics, problems, detail = measure_traced(
                args.workload, args.seconds, runner, wd, checker, spans_path)
            units = PER_LAYER
        else:
            metrics, problems, detail = measure(
                args.workload, args.seconds, runner, wd, checker)
            units = END_TO_END
        store.save()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    samples = {"ops_checked": attempted, **{
        k: v["n"] for k, v in detail.items() if isinstance(v, dict) and "n" in v}}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "detail": detail,
        "failed_frac": failed / attempted,
        "problems": sorted({p for found in problems for p in found}),
        "provenance": provenance(root, manifest, load_before, samples),
    }
    with open(os.path.join(results, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for key, value in metrics.items():
        print(f"{key:30s} {value:16.6g} {units[key]}")
    print(f"{'failed_frac':30s} {failed / attempted:16.6g} ratio "
          f"({failed} of {attempted} ops)")
    for key, value in detail.items():
        print(f"# {key}: {json.dumps(value)}")
    for p in record["problems"]:
        print(f"# problem: {p}")
    print("# provenance: " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
