"""The three benchmark workloads and the checks on every op.

Each workload is built from a seed: its constructor loads a generated
config, builds the models and generates the seeded inputs (this is what
``setup_s`` times in a fresh interpreter), and `run` executes the
workload's fixed job once, checking every op. optocool receives only the
generated inputs.

Every call into optocool goes through a module attribute (``oc.simulate``,
``cli.main``), never a name bound at import, so the tracer's wrappers see
it.

A failed check is recorded with a label and a reason and the job goes on.
Labels in `KNOWN_DEFECTS` are discrepancies of the program that are known
and kept visible on purpose; any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import optocool as oc
from optocool import cli
from optocool import config as occonfig

KNOWN_DEFECTS = {
    "noise-budget-double-count":
        "noise-budget adds the readout noise twice to the total column",
    "quad-shaped-high-gain":
        "quad raises NumericalError on a shaped imprecision at high gain",
    "analytic-closure":
        "numeric variance more than 2% from the analytic form at g <= g_opt",
}

NON_FINITE_CELL = re.compile(r"nan|inf", re.IGNORECASE)


@dataclass
class JobResult:
    """One execution of a workload's fixed job.

    op_s      : latencies of the ops that enter the percentiles, s
    attempted : every checked op, percentile ops and once-per-job calls
    failures  : (label, reason) of every failed check
    counters  : workload-side totals (bytes written, CLI exit errors, ...)
    clock     : a `hostclock.HostClock` that probes the host after every
                op and at the marked job boundaries, or None (no probes)
    norm_wall_s, norm_op_s : wall_s and op_s at the clock's reference host
                speed; equal to the measured times when there is no clock
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    op_s: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    clock: object = None
    norm_wall_s: float = 0.0
    norm_op_s: list = field(default_factory=list)

    def op_done(self, seconds):
        """Record one op's latency, then probe the host."""
        self.op_s.append(seconds)
        self.norm_op_s.append(seconds * self.lap())

    def lap(self):
        """Close a clock segment; returns its host-speed factor (1 without)."""
        return 1.0 if self.clock is None else self.clock.lap()

    def fail(self, label, reason):
        self.failures.append((label, reason))

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    @contextlib.contextmanager
    def guard(self, where):
        """Count an exception escaping the op as a failure; the job goes on."""
        try:
            yield
        except Exception as exc:  # op boundary: record the reason, keep running
            self.fail("exception", f"{where}: {type(exc).__name__}: "
                      f"{str(exc)[:160]}")


class _Tags:
    """Sets the tracer tag around an op; a no-op in untraced runs."""

    def __init__(self, tracer):
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self, tag):
        if self.tracer is None:
            yield
            return
        before = self.tracer.tag
        self.tracer.tag = tag
        try:
            yield
        finally:
            self.tracer.tag = before


def _stratified_log(rng, lo, hi, n, spread=1.0):
    """One log-uniform draw in each of n equal log strata of [lo, hi].

    ``spread`` < 1 draws from that central fraction of each stratum only.
    """
    edges = np.linspace(math.log10(lo), math.log10(hi), n + 1)
    width = np.diff(edges)
    offset = 0.5 * (1.0 - spread) + spread * rng.random(n)
    return 10.0 ** (edges[:-1] + offset * width)


def _replace_once(text, old, new):
    if text.count(old) != 1:
        raise RuntimeError(f"default config has no unique line {old!r}")
    return text.replace(old, new)


def _rel_dev(value, reference):
    return abs(value / reference - 1.0)


class Workload:
    """Base of the workloads: seeded setup stages and one timed job."""

    name = ""
    why = ""
    exposes = ""
    unchanged = ""

    def __init__(self, seed, smoke, workdir):
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        self.cfg = self.load_config()
        t1 = time.perf_counter()
        self.build_models()
        t2 = time.perf_counter()
        self.make_inputs()
        t3 = time.perf_counter()
        self.stage_s = {"config": t1 - t0, "build": t2 - t1, "inputs": t3 - t2}

    def load_config(self):
        raise NotImplementedError

    def build_models(self):
        raise NotImplementedError

    def make_inputs(self):
        raise NotImplementedError

    def job(self, result, tag):
        raise NotImplementedError

    def validate(self, tracer=None):
        """Checks made once per run outside the timed jobs; None if none."""
        return None

    def run(self, tracer=None, clock=None):
        """Execute the job once; with a clock, wall_s leaves out its probes."""
        result = JobResult(clock=clock)
        if tracer is not None:
            tracer.tag = "job"
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if clock is not None:
            clock.start()
        self.job(result, _Tags(tracer))
        if clock is None:
            result.wall_s = result.norm_wall_s = time.perf_counter() - t0
        else:
            clock.lap()
            result.wall_s = clock.measured_s
            result.norm_wall_s = clock.normalised_s
        result.cpu_s = time.process_time() - cpu0
        return result


# -- freqdomain ------------------------------------------------------------


class Freqdomain(Workload):
    name = "freqdomain"
    why = ("closed_loop_variance on a seeded gain x noise grid, plus "
           "optimal_gain and the cascade planner: scalar quad callbacks into "
           "cooling and resonator dominate")
    exposes = "ROADMAP item 2 (vectorised band integrals)"
    unchanged = "ROADMAP item 3 (LTI simulator fast path)"

    # Shaped imprecision: a flat floor with a 1/f^2 ASD rise below 2.5 Hz on
    # a 200-point log grid that covers the [f0/10, 10 f0] integration band.
    # quad fails on it for nearly every g above about 1.7e4 and for some g
    # down to 8e3, so the shaped point of the top gain stratum shows that
    # defect in every job of seeds 1-10.
    SHAPE_CORNER_HZ = 2.5
    SHAPE_BAND_HZ = (0.4, 50.0)
    SHAPE_POINTS = 200
    # Gains come from the central tenth of each of 8 log strata of [1, 1e5].
    # Op cost falls steeply with g and 24 ops sample it sparsely: drawing
    # over half of each stratum moved op p50 by about 10% between seeds, on
    # top of the host's own noise.
    GAIN_SPREAD = 0.1

    def load_config(self):
        # the cascade g0 below need more than the default 100 mW
        text = _replace_once(occonfig.DEFAULT_CONFIG,
                             "damage_threshold = 100 mW",
                             "damage_threshold = 20 W")
        return occonfig.parse_config(text, "freqdomain")

    def build_models(self):
        cfg = self.cfg
        self.res = cfg.resonator()
        self.chain = cfg.chain()
        self.hli = cfg.hli()
        self.fpi = cfg.fpi()
        self.cascade_base = cfg.cascade_config()

    def make_inputs(self):
        rng = self.rng
        levels, gains, n_g0 = (2, 3, 1) if self.smoke else (3, 8, 4)
        self.asds = _stratified_log(rng, 2e-13, 1e-10, levels)
        f0 = self.res.omega0 / (2.0 * math.pi)
        freq = np.logspace(math.log10(self.SHAPE_BAND_HZ[0]),
                           math.log10(self.SHAPE_BAND_HZ[1]), self.SHAPE_POINTS)

        def shape(f):
            return np.sqrt(1.0 + (self.SHAPE_CORNER_HZ / f) ** 4)

        thermal_force = float(self.res.thermal_force_psd(self.res.omega0))
        self.points = []
        for i, asd in enumerate(self.asds):
            for j, g in enumerate(_stratified_log(rng, 1.0, 1e5, gains,
                                                   self.GAIN_SPREAD)):
                kind = ("flat", "shaped", "external")[(i + j) % 3]
                imprecision = asd ** 2
                external = None
                if kind == "shaped":
                    imprecision = oc.SpectrumRecord(
                        2.0 * math.pi * freq, asd * shape(freq) / shape(f0),
                        "asd", "m/rtHz")
                elif kind == "external":
                    external = thermal_force * 10.0 ** rng.uniform(-1.0, 1.0)
                self.points.append((kind, float(asd), float(g), imprecision,
                                    external))
        self.g0s = _stratified_log(rng, 1.0, 300.0, n_g0).tolist()

    def job(self, result, tag):
        res = self.res
        g_opt = {}
        with tag("optimal_gain"):
            for asd in self.asds:
                result.attempted += 1
                g_opt[asd] = 0.0
                with result.guard(f"optimal_gain asd {asd:.3g}"):
                    got = oc.optimal_gain(res, asd ** 2)
                    g_opt[asd] = got.closed_form
                    if _rel_dev(got.minimized, got.closed_form) > 0.02:
                        result.fail("optimal-gain", f"asd {asd:.3g}: minimised "
                                    f"{got.minimized:.6g} vs {got.closed_form:.6g}")

        for index, (kind, asd, g, imprecision, external) in enumerate(self.points):
            result.attempted += 1
            setup = oc.CoolingSetup(res, g, imprecision_psd=imprecision,
                                    external_force_psd=external)
            where = f"op {index} ({kind}, asd {asd:.3g}, g {g:.4g})"
            t0 = time.perf_counter()
            try:
                with tag("variance"):
                    out = oc.closed_loop_variance(setup)
            except Exception as exc:  # op boundary: record the reason, keep running
                result.op_done(time.perf_counter() - t0)
                known = kind == "shaped" and isinstance(exc, oc.NumericalError)
                result.fail("quad-shaped-high-gain" if known else "exception",
                            f"{where}: {type(exc).__name__}: {str(exc)[:120]}")
                continue
            result.op_done(time.perf_counter() - t0)
            self._check_variance(result, out, g <= g_opt[asd], where)

        self._cascade(result, tag)

    @staticmethod
    def _check_variance(result, out, closure, where):
        for route in ("numeric", "analytic"):
            r = getattr(out, route)
            if not (math.isfinite(r.variance) and r.variance > 0.0):
                result.fail("variance", f"{where}: {route} total {r.variance!r}")
                return
            parts = r.thermal + r.feedthrough + r.external
            if _rel_dev(parts, r.variance) > 1e-12:
                result.fail("variance-parts", f"{where}: {route} parts "
                            f"{parts!r} vs total {r.variance!r}")
                return
        if closure:
            dev = _rel_dev(out.numeric.variance, out.analytic.variance)
            if dev > 0.02:
                result.fail("analytic-closure", f"{where}: numeric/analytic "
                            f"- 1 = {dev:.4f}")

    def _cascade(self, result, tag):
        res, hli = self.res, self.hli
        s_n = float(np.asarray(hli.imprecision_psd_at(res.omega0)))
        g_opt = oc.optimal_gain(res, s_n).closed_form
        single = oc.effective_temperature(res, g_opt,
                                          oc.noise_temperature(res, s_n))
        with tag("cascade"):
            for g0 in self.g0s:
                result.attempted += 1
                with result.guard(f"cascade g0 {g0:.4g}"):
                    self._check_cascade(result, g0, g_opt, single)
                result.lap()

    def _check_cascade(self, result, g0, g_opt, single):
        res, hli = self.res, self.hli
        ccfg = replace(self.cascade_base, initial_gain=g0, power=None)
        schedule = oc.plan_cascade(ccfg, self.chain, res, hli, self.fpi)
        cmp = oc.compare_single_step(g_opt, ccfg, self.chain, res, hli,
                                     self.fpi)
        times = np.logspace(math.log10(schedule.stages[0].duration / 100),
                            math.log10(schedule.total_time), 400)
        samples = [schedule.variance_at(t) for t in times]
        where = f"cascade g0 {g0:.4g}"
        if _rel_dev(schedule.final_t_eff, single) > 0.05:
            result.fail("cascade", f"{where}: final T_eff "
                        f"{schedule.final_t_eff:.6g} K vs single step "
                        f"{single:.6g} K")
        elif not 0.1 <= cmp.reciprocity <= 10.0:
            result.fail("cascade", f"{where}: reciprocity "
                        f"{cmp.reciprocity:.4g}")
        elif not all(math.isfinite(v) and v > 0.0 for v in samples):
            result.fail("cascade", f"{where}: non-finite variance_at")


# -- langevin --------------------------------------------------------------


class Langevin(Workload):
    name = "langevin"
    why = ("seeded Langevin runs of the off, derivative (g=15) and chain "
           "controllers on the q100 preset, closed by monte_carlo_variance: "
           "the per-sample loop dominates")
    exposes = "ROADMAP item 3 (LTI simulator fast path)"
    unchanged = "ROADMAP item 2 (vectorised band integrals)"

    G_OPT = 15.0              # acceptance 09: imprecision puts g_opt here
    BANDPASS_QUALITY = 0.3    # acceptance 09
    CONTROLLERS = ("off", "derivative", "chain")
    SAMPLES_PER_PERIOD = {"off": 100, "derivative": 200, "chain": 200}

    # The job: equal seed counts and equal step counts per controller, so
    # op latency sorts by per-step cost (off < derivative < chain) and each
    # percentile sits inside one controller's cluster.
    JOB_SEEDS = 16
    JOB_STEPS = 40_000
    SMOKE_JOB_SEEDS = 2

    # The closure, once per run: the Monte-Carlo mean must land within 10%
    # of the band integral. off has no cooling and needs 16 x 400k steps
    # for a 3% standard error; the cooled loops relax 16x faster but carry
    # a ~4% discretisation bias, so 16 x 125k steps keep their 2% standard
    # error well inside the remaining margin.
    CLOSURE_SEEDS = 16
    CLOSURE_STEPS = {"off": 400_000, "derivative": 125_000, "chain": 125_000}
    SMOKE_CLOSURE_SEEDS = 10   # monte_carlo_variance's minimum
    SMOKE_CLOSURE_STEPS = 40_000  # off needs 20 relaxation times

    def load_config(self):
        base = occonfig.parse_config(occonfig.DEFAULT_CONFIG, "langevin-base")
        res = base.sim_resonator()
        gamma = float(res.damping_rate(res.omega0))
        x_th0 = oc.cooling.open_loop_thermal_variance(res)
        asd = math.sqrt(4.0 * x_th0 / (gamma * self.G_OPT ** 2))
        # a 1 W feedback beam whose DAC gain puts the chain loop at g_opt too
        unit = oc.FeedbackChain(
            eoam=oc.Eoam(half_wave_voltage=base.get("chain", "half_wave_voltage"),
                         max_power=1.0, damage_threshold=10.0),
            dac_gain=1.0, wavelength=base.get("hli", "wavelength"))
        dac = self.G_OPT / unit.gain_factor(res)
        text = occonfig.DEFAULT_CONFIG
        for old, new in (
                ("imprecision_asd = 5e-12 m/rtHz", f"imprecision_asd = {asd!r} m/rtHz"),
                ("max_power = 1.16 mW", "max_power = 1 W"),
                ("damage_threshold = 100 mW", "damage_threshold = 10 W"),
                ("dac_gain = auto", f"dac_gain = {dac!r} V/rad"),
                ("bandpass_quality = 10",
                 f"bandpass_quality = {self.BANDPASS_QUALITY!r}")):
            text = _replace_once(text, old, new)
        return occonfig.parse_config(text, "langevin")

    def build_models(self):
        cfg = self.cfg
        self.res = cfg.sim_resonator()
        self.hli = cfg.hli()
        self.chain = cfg.chain()
        self.s_n = cfg.imprecision_psd()
        self.base_sim = cfg.sim_config()

    def _sim(self, ctrl, steps, seed):
        dt = 1.0 / (self.SAMPLES_PER_PERIOD[ctrl] * self.res.omega0 / (2.0 * math.pi))
        return replace(self.base_sim, duration=steps * dt, dt=dt, seed=seed,
                       controller=ctrl,
                       gain=self.G_OPT if ctrl == "derivative" else 0.0)

    def make_inputs(self):
        seeds = self.rng.integers(1, 2 ** 40, size=(2, len(self.CONTROLLERS)))
        smoke = self.smoke
        self.job_seeds = self.SMOKE_JOB_SEEDS if smoke else self.JOB_SEEDS
        self.closure_seeds = self.SMOKE_CLOSURE_SEEDS if smoke else self.CLOSURE_SEEDS
        self.job_runs, self.closure_runs = {}, {}
        for i, ctrl in enumerate(self.CONTROLLERS):
            self.job_runs[ctrl] = self._sim(ctrl, self.JOB_STEPS, int(seeds[0, i]))
            steps = self.SMOKE_CLOSURE_STEPS if smoke else self.CLOSURE_STEPS[ctrl]
            self.closure_runs[ctrl] = self._sim(ctrl, steps, int(seeds[1, i]))
        self.segment = 2 ** 13
        self.first_variance = {}

    def _chain_for(self, ctrl):
        return self.chain if ctrl == "chain" else None

    def _gain(self, ctrl):
        if ctrl == "derivative":
            return self.G_OPT
        if ctrl == "chain":
            return self.chain.gain_factor(self.res)
        return 0.0

    def validate(self, tracer=None):
        """Monte-Carlo closure of each controller, once per run."""
        result = JobResult()
        tag = _Tags(tracer)
        for ctrl in self.CONTROLLERS:
            result.attempted += 1
            with tag(f"validate.{ctrl}"), result.guard(f"{ctrl} closure"):
                self._closure(result, ctrl)
        return result

    def _closure(self, result, ctrl):
        sim = self.closure_runs[ctrl]
        mc = oc.monte_carlo_variance(sim, self.res, self.closure_seeds,
                                     chain=self._chain_for(ctrl), hli=self.hli)
        ref = oc.closed_loop_variance(oc.CoolingSetup(
            self.res, self._gain(ctrl), self.s_n)).numeric.variance
        # one seed-run again: its estimate must match monte_carlo_variance's bit for bit
        again = oc.steady_state_variance(oc.simulate(
            sim, self.res, chain=self._chain_for(ctrl), hli=self.hli))
        result.counters[f"closure.{ctrl}"] = mc.mean / ref
        if again != mc.per_seed[0]:
            result.fail("reproducibility", f"{ctrl}: seed {sim.seed} gives "
                        f"{again!r}, monte_carlo_variance {mc.per_seed[0]!r}")
        elif _rel_dev(mc.mean, ref) > 0.10:
            result.fail("mc-closure", f"{ctrl}: Monte-Carlo mean {mc.mean:.5g} "
                        f"vs band integral {ref:.5g}")
        elif not mc.stationary:
            result.fail("stationarity", f"{ctrl}: monte_carlo_variance flags "
                        "the steady window as drifting")

    def job(self, result, tag):
        for ctrl in self.CONTROLLERS:
            with tag(ctrl):
                for k in range(self.job_seeds):
                    self._seed_run(result, ctrl, k)

    def _seed_run(self, result, ctrl, k):
        """simulate, steady-state variance and Welch PSD of one seed."""
        sim = self.job_runs[ctrl]
        seed = sim.seed + k
        where = f"{ctrl} seed {seed}"
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            with result.guard(where):
                trace = oc.simulate(replace(sim, seed=seed), self.res,
                                    chain=self._chain_for(ctrl), hli=self.hli)
                var = oc.steady_state_variance(trace)
                rec = oc.estimate_psd(trace.x, trace.sample_rate, self.segment)
                first = self.first_variance.setdefault((ctrl, k), var)
                if not np.all(np.isfinite(trace.x)):
                    result.fail("trace", f"{where}: non-finite position")
                elif not (math.isfinite(var) and var > 0.0):
                    result.fail("trace", f"{where}: steady-state variance {var!r}")
                elif not np.all(np.isfinite(rec.values)):
                    result.fail("psd", f"{where}: non-finite PSD")
                elif var != first:
                    result.fail("reproducibility", f"{where}: variance {var!r} "
                                f"differs from the first job's {first!r}")
        finally:
            result.op_done(time.perf_counter() - t0)


# -- artifacts -------------------------------------------------------------


class Artifacts(Workload):
    name = "artifacts"
    why = ("the CLI in-process: simulate writes trace.csv, psd reads it back, "
           "plus every summary command once: CSV formatting, writing and "
           "reading in cli and spectrum dominate")
    exposes = ("ROADMAP items 1 and 5 (run.json sidecar, non-finite checks in "
               "the CSV writers)")
    unchanged = ("ROADMAP item 3 (simulate is about 4% of the job); item 2 "
                 "moves only the cool sweep share")

    SIM_DURATION_S = 20.0   # 9,440 samples, 0.65 MB of trace.csv
    ROUND_TRIPS = 24

    def load_config(self):
        self.readout_noise = float(10.0 ** self.rng.uniform(2.5, 3.5))
        text = occonfig.DEFAULT_CONFIG
        for old, new in (
                ("readout_noise_asd = 0 Hz/rtHz",
                 f"readout_noise_asd = {self.readout_noise!r} Hz/rtHz"),
                ("duration = 300 s", f"duration = {self.SIM_DURATION_S!r} s")):
            text = _replace_once(text, old, new)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "config.ini"
        self.config_path.write_text(text)
        return occonfig.load_config(self.config_path)

    def build_models(self):
        cfg = self.cfg
        self.res = cfg.resonator()
        self.fpi = cfg.fpi()
        self.quiet_fpi = replace(self.fpi, readout_noise=None)
        self.hli = cfg.hli()

    def make_inputs(self):
        rng = self.rng
        n = 2 if self.smoke else self.ROUND_TRIPS
        self.sim_seeds = rng.integers(1, 2 ** 40, size=n).tolist()
        self.sweep_gains = ",".join(
            repr(float(g)) for g in _stratified_log(rng, 1.0, 1e5, 3, 0.5))

    # -- helpers ----------------------------------------------------------

    def _cli(self, result, argv):
        """Run one CLI command in-process; returns (exit code, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(self.config_path)] + argv)
        if code != 0:
            result.add("cli.errors", 1)
        return code, err.getvalue().strip()

    @staticmethod
    def _dir_bytes(directory):
        return sum(p.stat().st_size for p in directory.iterdir())

    @staticmethod
    def _data_lines(path):
        return [line for line in path.read_text().splitlines()
                if line and not line.startswith("#")]

    def _finite_csv(self, path):
        """None when every data cell is finite, else the offending line."""
        for line in self._data_lines(path):
            if NON_FINITE_CELL.search(line):
                return line[:80]
        return None

    # -- the job ----------------------------------------------------------

    def _round_trip(self, result, tag, k, seed):
        """simulate then psd; returns the artifact bytes or None on failure."""
        sim_dir = self.run_dir / f"rt{k}" / "sim"
        psd_dir = self.run_dir / f"rt{k}" / "psd"
        trace = sim_dir / "trace.csv"
        result.attempted += 1
        t0 = time.perf_counter()
        with tag("simulate"):
            code_sim, err_sim = self._cli(result, ["--out", str(sim_dir),
                                                   "--seed", str(seed), "simulate"])
        with tag("psd"):
            code_psd, err_psd = self._cli(result, ["--out", str(psd_dir), "psd",
                                                   "--input", str(trace)])
        result.op_done(time.perf_counter() - t0)
        where = f"round trip {k} seed {seed}"
        if code_sim != 0 or code_psd != 0:
            result.fail("exit-code", f"{where}: simulate {code_sim} "
                        f"({err_sim}), psd {code_psd} ({err_psd})")
            return None
        artifacts = None
        with result.guard(where):
            artifacts = self._check_round_trip(result, where, sim_dir, psd_dir)
        return artifacts

    def _check_round_trip(self, result, where, sim_dir, psd_dir):
        trace = sim_dir / "trace.csv"
        sim_bytes = self._dir_bytes(sim_dir)
        result.add("cli.simulate_bytes_written", sim_bytes)
        result.add("cli.bytes_written", sim_bytes + self._dir_bytes(psd_dir))
        result.add("cli.psd_bytes_read", trace.stat().st_size)
        psd = psd_dir / "psd_x_m.csv"
        steps = int(re.search(r"^steps = (\d+)$",
                              (sim_dir / "simulate.txt").read_text(), re.M).group(1))
        for path in (trace, psd):
            bad = self._finite_csv(path)
            if bad is not None:
                result.fail("non-finite-cell", f"{where}: {path.name}: {bad}")
                return None
        rows = len(self._data_lines(trace)) - 1
        if rows != steps:
            result.fail("trace-rows", f"{where}: {rows} rows for {steps} steps")
            return None
        return [p.read_bytes() for p in (trace, sim_dir / "simulate.txt", psd)]

    def job(self, result, tag):
        self.run_dir = self.workdir / "job"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        first = None
        for k, seed in enumerate(self.sim_seeds):
            artifacts = self._round_trip(result, tag, k, seed)
            if k == 0:
                first = artifacts
        # the rerun of round trip 0 writes to the same paths, so every byte
        # (headers included) must come out identical
        again = self._round_trip(result, tag, 0, self.sim_seeds[0])
        if first is not None and again is not None and again != first:
            result.fail("byte-identity", "rerun of round trip 0 differs")

        with tag("summary"):
            for argv, check in (
                    (["paper-report"], None),
                    (["chain", "report"], None),
                    (["cool", "optimum"], self._check_optimum),
                    (["cascade", "run"], self._check_cascade),
                    (["susceptibility"], None),
                    (["noise-budget"], self._check_noise_budget),
                    (["cool", "sweep", "--gains", self.sweep_gains],
                     self._check_sweep)):
                self._summary(result, argv, check)
                result.lap()
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def _summary(self, result, argv, check):
        name = "-".join(a for a in argv if not a.startswith("-") and "," not in a)
        out = self.run_dir / "summary" / name
        result.attempted += 1
        code, err = self._cli(result, ["--out", str(out)] + argv)
        if code != 0:
            result.fail("exit-code", f"{name}: exit {code} ({err})")
            return
        result.add("cli.bytes_written", self._dir_bytes(out))
        for path in sorted(out.glob("*.csv")):
            bad = self._finite_csv(path)
            if bad is not None:
                result.fail("non-finite-cell", f"{name}: {path.name}: {bad}")
                return
        if check is not None:
            with result.guard(name):
                problem = check(out)
                if problem is not None:
                    result.fail(*problem)

    @staticmethod
    def _values(path):
        values = {}
        for line in path.read_text().splitlines():
            key, sep, value = line.partition(" = ")
            if sep and not line.startswith("#"):
                values[key.strip()] = value.strip()
        return values

    def _check_optimum(self, out):
        v = self._values(out / "cool_optimum.txt")
        closed = float(v["g_opt_closed_form"])
        minimised = float(v["g_opt_numeric_minimizer"])
        if _rel_dev(minimised, closed) > 0.02:
            return ("optimal-gain", f"cool optimum: minimised {minimised:.6g} "
                    f"vs closed form {closed:.6g}")
        return None

    def _check_cascade(self, out):
        v = self._values(next(out.glob("cascade_g*.txt")))
        s_n = self.cfg.imprecision_psd()
        g_opt = oc.optimal_gain(self.res, s_n).closed_form
        single = oc.effective_temperature(self.res, g_opt,
                                          oc.noise_temperature(self.res, s_n))
        final = float(v["final_t_eff_K"])
        recip = float(v["reciprocity_product"])
        if _rel_dev(final, single) > 0.05:
            return ("cascade", f"cascade run: final T_eff {final:.6g} K vs "
                    f"single step {single:.6g} K")
        if not 0.1 <= recip <= 10.0:
            return ("cascade", f"cascade run: reciprocity {recip:.4g}")
        return None

    def _check_noise_budget(self, out):
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in self._data_lines(out / "noise_budget.csv")[1:]])
        freq, total = rows[:, 0], rows[:, 1]
        omega = 2.0 * math.pi * freq
        g = self.cfg.get("cooling", "gain")
        expected = np.sqrt(
            self.quiet_fpi.output_spectrum(self.res, g, omega=omega).values ** 2
            + self.fpi.noise_asd(omega) ** 2)
        dev = np.abs(total / expected - 1.0)
        if np.max(dev) > 1e-9:
            i = int(np.argmin(freq))
            return ("noise-budget-double-count",
                    f"noise-budget: {int(np.sum(dev > 1e-9))}/{dev.size} rows "
                    f"off, worst {np.max(dev):.3f}; at {freq[i]:.4g} Hz total "
                    f"{total[i]:.5g} vs {expected[i]:.5g} Hz/rtHz "
                    f"(readout noise {self.readout_noise:.4g})")
        return None

    def _check_sweep(self, out):
        path = next(out.glob("cool_sweep_noise*.csv"))
        for line in self._data_lines(path)[1:]:
            g, t_eff, x2, thermal, feed = (float(c) for c in line.split(","))
            if not (t_eff > 0.0 and x2 > 0.0):
                return ("variance", f"cool sweep g {g:g}: T_eff {t_eff!r}")
            if _rel_dev(thermal + feed, x2) > 1e-12:
                return ("variance-parts", f"cool sweep g {g:g}: parts "
                        f"{thermal + feed!r} vs total {x2!r}")
        return None


WORKLOADS = {w.name: w for w in (Freqdomain, Langevin, Artifacts)}


def percentile_rank(n, beyond=10):
    """Highest whole percentile with at least ``beyond`` of n ops above it.

    Returns (percentile, 1-based nearest rank); None when n <= beyond.
    """
    if n <= beyond:
        return None
    p = (100 * (n - beyond)) // n
    return p, max(1, math.ceil(p * n / 100))


def op_stats(op_s):
    """(p50 ms, tail ms, tail percentile) of a list of op latencies, s."""
    ordered = sorted(op_s)
    p50 = statistics.median(ordered) * 1e3
    rank = percentile_rank(len(ordered))
    if rank is None:
        return p50, ordered[-1] * 1e3, 100
    p, r = rank
    return p50, ordered[r - 1] * 1e3, p
