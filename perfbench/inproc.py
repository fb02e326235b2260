"""The benchmark's in-process side: runs inside a child interpreter that has
the checkout's ``src`` on its path and calls learcov's public functions.

    python3 perfbench/inproc.py setup WORKLOAD WORKDIR
    python3 perfbench/inproc.py import
    python3 perfbench/inproc.py trace WORKLOAD WORKDIR SECONDS SPANS_PATH

Each command prints JSON lines on stdout; the last line is its result.
"""
from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import json
import os
import statistics
import sys
import threading
import time

from run import run_loop


def _manifest(workdir):
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def cmd_setup(workload, workdir):
    """Import learcov and load the workload input; the parent times this."""
    import learcov

    m = _manifest(workdir)
    if "data" in m["files"]:
        learcov.read_long_csv(os.path.join(workdir, "data.csv"), design=m["design"])
    else:
        learcov.load_sim_spec(os.path.join(workdir, "spec.json"))
    _emit({"ok": True})


def cmd_import():
    t0 = time.perf_counter()
    import learcov  # noqa: F401
    _emit({"import_s": time.perf_counter() - t0})


def fit_doc(result):
    return {"schema_version": 1, "command": "fit", **result.to_dict()}


def oracle_dataset(data):
    import oracle
    return oracle.Dataset((s.times, s.y, s.X) for s in data.subjects)


# --------------------------------------------------------------------------
# traced run


class PeakRss:
    """Peak resident-set growth above the value on entry, sampled from
    /proc/self/statm every 2 ms by a helper thread (Linux only).

    On entry, garbage is collected and glibc returns free heap pages to the
    system, so memory the probed call reuses from earlier calls still counts.
    """

    def __init__(self):
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak_mb = 0.0
        try:
            self._trim = ctypes.CDLL("libc.so.6").malloc_trim
        except (OSError, AttributeError):
            self._trim = None

    def _rss(self):
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self.page

    def _sample(self):
        while not self._stop.wait(0.002):
            self._peak = max(self._peak, self._rss())

    def __enter__(self):
        gc.collect()
        if self._trim is not None:
            self._trim(0)
        self._base = self._peak = self._rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._peak = max(self._peak, self._rss())
        self.peak_mb = (self._peak - self._base) / 2 ** 20
        return False


class Replay:
    """One workload's op replayed through learcov's public functions."""

    def __init__(self, workload, workdir):
        import learcov
        from learcov._jsonio import dumps

        self.lc, self.dumps = learcov, dumps
        self.workload = workload
        self.m = _manifest(workdir)
        self.path = lambda name: os.path.join(workdir, name)
        self.outputs = []  # (step, text) of every replayed op
        self.data = None  # the dataset the layer probes use
        self.doc = None  # document the op prints, for the dumps probe
        self.read_path = os.path.relpath(self.path(
            "sim.csv" if workload == "simulate-check" else "data.csv"))

    def op(self, tracer):
        lc, m = self.lc, self.m
        with tracer.span("op"):
            if self.workload == "simulate-check":
                out = self.read_path
                with tracer.span("dataio.load_spec"):
                    spec = lc.load_sim_spec(self.path("spec.json"))
                with tracer.span("sim.simulate"):
                    data = lc.simulate(spec)
                with tracer.span("dataio.write"):
                    lc.write_long_csv(out, data)
                with tracer.span("jsonio.dumps"):
                    text = self.dumps({
                        "schema_version": 1, "command": "simulate",
                        "n_subjects": data.n_subjects, "n_obs": data.n_obs,
                        "seed": spec.seed, "out": out,
                    }, indent=2)
                self.outputs.append(("simulate", text + "\n"))
                with tracer.span("dataio.read"):
                    data = lc.read_long_csv(out, design=m["design"])
                with tracer.span("reparam.check"):
                    report = lc.check_special_case(data.grid)
                with tracer.span("jsonio.dumps"):
                    text = self.dumps({
                        "schema_version": 1, "command": "check-special-case",
                        "eligible": report.eligible,
                        "equally_spaced": report.equally_spaced,
                        "integer_distances": report.integer_distances,
                        "dmin_is_one": report.dmin_is_one,
                        "spacing": report.spacing,
                    }, indent=2)
                self.outputs.append(("check", text + "\n"))
                self.data, self.doc = data, None
                return
            with tracer.span("dataio.read"):
                data = lc.read_long_csv(self.read_path, design=m["design"])
            with tracer.span("estimation.fit"):
                result = lc.fit(data, "lear", m["criterion"])
            doc = fit_doc(result)
            with tracer.span("jsonio.dumps"):
                text = self.dumps(doc, indent=2)
            self.outputs.append(("fit", text + "\n"))
            self.data, self.doc = data, doc


def _median_ms(func, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        func()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


COMPARE_PROBE_SUBJECTS = 1000


def cmd_trace(workload, workdir, seconds, spans_path):
    import oracle
    from spans import NullTracer, Tracer

    replay = Replay(workload, workdir)
    lc, m = replay.lc, replay.m
    tracer = Tracer()
    untraced = []

    def op(i):
        tracer.op = f"op{i}"
        t0 = time.perf_counter()
        replay.op(tracer)
        traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        replay.op(NullTracer())
        untraced.append(time.perf_counter() - t0)
        return traced + untraced[-1]

    replay.op(NullTracer())  # warm-up: lazy imports and first-call costs
    run_loop(seconds, op, min_ops=1)
    traced_ops = tracer.durations("op")
    metrics = {}

    def on_path(name):
        values = tracer.durations(name, "op")
        return statistics.median(values) if values else None

    # Layer probes, spanned under op "probe". Probes time one call, or
    # report the median of a few calls where one call is too short to time.
    tracer.op = "probe"
    data = replay.data
    criterion = m["criterion"]

    def probe(name, func, peak=False):
        with tracer.span(name), PeakRss() if peak else contextlib.nullcontext() as rss:
            t0 = time.perf_counter()
            value = func()
            elapsed = time.perf_counter() - t0
        return value, elapsed, rss

    write_s = on_path("dataio.write")
    if write_s is None:
        csv_path = os.path.relpath(replay.path("probe.csv"))
        _, write_s, _ = probe("dataio.write", lambda: lc.write_long_csv(csv_path, data))
    # Timings come from unsampled calls; peaks from separate calls under
    # PeakRss, whose sampling thread would add to a timing.
    _, _, rss = probe(
        "dataio.read", lambda: lc.read_long_csv(replay.read_path, design=m["design"]), True)
    read_s = on_path("dataio.read")
    metrics["dataio.read_s"] = read_s
    metrics["dataio.read_rows_per_s"] = data.n_obs / read_s
    metrics["dataio.read_peak_mb"] = rss.peak_mb
    metrics["dataio.write_s"] = write_s
    metrics["dataio.write_rows_per_s"] = data.n_obs / write_s

    sim_s = on_path("sim.simulate")
    if sim_s is None:
        spec = lc.load_sim_spec(replay.path("spec.json"))
        _, sim_s, _ = probe("sim.simulate", lambda: lc.simulate(spec))
    metrics["sim.simulate_s"] = sim_s
    metrics["sim.subjects_per_s"] = m["spec"]["n_subjects"] / sim_s

    metrics["estimation.data_build_s"] = _median_ms(
        lambda: lc.RepeatedMeasuresData(data.subjects), 3) / 1e3
    d_range = data.grid.d_max - data.grid.d_min
    metrics["estimation.profile_call_ms"] = _median_ms(
        lambda: lc.profile_estimates(data, (0.5, d_range), criterion), 5)

    fit_s = on_path("estimation.fit")
    if fit_s is None:
        _, fit_s, _ = probe("estimation.fit", lambda: lc.fit(data, "lear", criterion))
    result, _, rss = probe("estimation.fit", lambda: lc.fit(data, "lear", criterion), True)
    metrics["estimation.fit_s"] = fit_s
    metrics["estimation.fit_peak_mb"] = rss.peak_mb
    metrics["estimation.nm_iterations"] = result.iterations
    metrics["estimation.scan_failures"] = result.n_scan_failures
    metrics["estimation.scan_ok_ratio"] = 1.0 - result.n_scan_failures / 441

    sub = lc.RepeatedMeasuresData(data.subjects[:COMPARE_PROBE_SUBJECTS])
    report, metrics["estimation.compare_s"], _ = probe(
        "estimation.compare", lambda: lc.compare_parameterizations(sub, criterion))
    compare_doc = json.loads(replay.dumps(report.to_dict()))

    longest = max(range(data.n_subjects), key=lambda i: data.subjects[i].p)
    params = lc.LearParams(1.0, 0.5, d_range)
    metrics["core.matrix_us"] = 1e3 * _median_ms(
        lambda: lc.cholesky_lower(lc.lear_covariance(params, data.grid, longest)), 200)

    check_s = on_path("reparam.check")
    metrics["reparam.check_ms"] = (
        check_s * 1e3 if check_s is not None
        else _median_ms(lambda: lc.check_special_case(data.grid), 3))
    doc = replay.doc or fit_doc(result)
    metrics["jsonio.dumps_ms"] = _median_ms(lambda: replay.dumps(doc, indent=2), 20)

    tracer.write(spans_path)
    n_ops = len(traced_ops)
    _emit({
        "metrics": metrics,
        "traced_op_s": statistics.median(traced_ops),
        "untraced_op_s": statistics.median(untraced),
        "ops": n_ops,
        "self_time_per_op_s": {k: v / n_ops for k, v in tracer.self_times("op").items()},
        "spans": len(tracer.spans),
        "outputs": [[step, hashlib.sha256(text.encode()).hexdigest()]
                    for step, text in replay.outputs],
        "problems": (oracle.check_fit(json.loads(replay.dumps(result.to_dict())),
                                      oracle_dataset(data), "lear", criterion)
                     + oracle.check_compare(compare_doc, oracle_dataset(sub), criterion)),
    })


def main(argv):
    cmd = argv[0]
    if cmd == "setup":
        cmd_setup(argv[1], argv[2])
    elif cmd == "import":
        cmd_import()
    elif cmd == "trace":
        cmd_trace(argv[1], argv[2], float(argv[3]), argv[4])
    else:
        raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
