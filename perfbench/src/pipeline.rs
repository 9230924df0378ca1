//! The three workloads, each one pass over its applications on the
//! calling thread: every layer is reached through its public function
//! and timed from outside. No call here spawns a thread (`run_pair*` and
//! `run_matrix` are never used; the tuner runs with `threads: 1` and the
//! simulator with one shard).

use std::collections::BTreeMap;

use mempar::{cluster_program, locality_profile, machine_summary, Locality, MissProfile};
use mempar_bench::scaled_l2;
use mempar_ir::{HomePolicy, Program, SimMem};
use mempar_sim::{run_program_with, MachineConfig, SimOptions, SimResult, Topology};
use mempar_stats::Utilization;
use mempar_transform::ClusterReport;
use mempar_tune::{SearchStats, TuneOptions, Tuner};
use mempar_workloads::{
    em3d, fft, latbench, lu, mp3d, mst, App, Em3dParams, FftParams, LatbenchParams, LuParams,
    Mp3dParams, MstParams, Workload,
};

use crate::calib::HostSpeed;
use crate::trace::Spans;

/// Which pipeline a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure 3(a): base vs clustered on 8–16 CC-NUMA cores, analytic
    /// locality.
    Fig3Mp,
    /// Figure 3(b): base vs clustered on one core, measured locality.
    Fig3UpMeasured,
    /// `tune --mode mp`: the composition tuner over the MP apps, one
    /// score memo per pass.
    TuneMp,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "fig3-mp" => Some(Kind::Fig3Mp),
            "fig3-up-measured" => Some(Kind::Fig3UpMeasured),
            "tune-mp" => Some(Kind::TuneMp),
            _ => None,
        }
    }

    /// Input scale of the workload (1.0 = the paper's Table 2 sizes).
    pub fn default_scale(self) -> f64 {
        match self {
            Kind::Fig3Mp => 0.2,
            Kind::Fig3UpMeasured => 0.2,
            Kind::TuneMp => 0.01,
        }
    }

    /// Back-to-back set-ups of the whole workload that make one `setup_s`
    /// sample, or 0 when the set-up inside each pass is the sample. One
    /// set-up of `tune-mp` takes tens of milliseconds, too short to time
    /// alone on a shared host; sixteen take a few tenths of a second.
    pub fn setup_reps(self) -> u32 {
        match self {
            Kind::Fig3Mp | Kind::Fig3UpMeasured => 0,
            Kind::TuneMp => 16,
        }
    }

    /// The applications, in the paper's order.
    pub fn apps(self) -> Vec<App> {
        match self {
            Kind::Fig3UpMeasured => App::all().to_vec(),
            Kind::Fig3Mp | Kind::TuneMp => App::all()
                .into_iter()
                .filter(|a| a.runs_multiprocessor())
                .collect(),
        }
    }

    fn multiprocessor(self) -> bool {
        self != Kind::Fig3UpMeasured
    }
}

/// Lower-case application key used in metric names.
pub fn app_key(app: App) -> &'static str {
    match app {
        App::Latbench => "latbench",
        App::Em3d => "em3d",
        App::Erlebacher => "erlebacher",
        App::Fft => "fft",
        App::Lu => "lu",
        App::Mp3d => "mp3d",
        App::Mst => "mst",
        App::Ocean => "ocean",
    }
}

/// Builds `app` at `scale`. Seeded generators get their catalog seed
/// plus `seed`, so seed 0 gives the canonical inputs; Erlebacher and
/// Ocean are seedless grids and ignore it.
pub fn build_app(app: App, scale: f64, seed: u64) -> Workload {
    match app {
        App::Latbench => {
            let p = LatbenchParams::scaled(scale);
            latbench(LatbenchParams {
                seed: p.seed.wrapping_add(seed),
                ..p
            })
        }
        App::Em3d => {
            let p = Em3dParams::scaled(scale);
            em3d(Em3dParams {
                seed: p.seed.wrapping_add(seed),
                ..p
            })
        }
        App::Fft => {
            let p = FftParams::scaled(scale);
            fft(FftParams {
                seed: p.seed.wrapping_add(seed),
                ..p
            })
        }
        App::Lu => {
            let p = LuParams::scaled(scale);
            lu(LuParams {
                seed: p.seed.wrapping_add(seed),
                ..p
            })
        }
        App::Mp3d => {
            let p = Mp3dParams::scaled(scale);
            mp3d(Mp3dParams {
                seed: p.seed.wrapping_add(seed),
                ..p
            })
        }
        App::Mst => {
            let p = MstParams::scaled(scale);
            mst(MstParams {
                seed: p.seed.wrapping_add(seed),
                ..p
            })
        }
        App::Erlebacher | App::Ocean => app.build(scale),
    }
}

/// Home policy for the machine's topology (as the experiment layer
/// picks it).
pub fn home_policy(cfg: &MachineConfig) -> HomePolicy {
    match cfg.topology {
        Topology::Numa => HomePolicy::BlockPerArray,
        Topology::SmpBus => HomePolicy::Centralized,
    }
}

/// Final state of one simulated program, kept for the oracle check.
#[derive(Debug)]
pub struct Final {
    /// The program that ran.
    pub prog: Program,
    /// Its statistics.
    pub result: SimResult,
    /// Fingerprint of its final memory image.
    pub fingerprint: u64,
    /// Its output arrays.
    pub outputs: Vec<Vec<u64>>,
}

/// Tuner figures for one application.
#[derive(Debug, Clone)]
pub struct TuneFigures {
    /// Search totals as the tuner reports them.
    pub stats: SearchStats,
    /// Memo hits this tune added to the shared memo.
    pub memo_hits: u64,
    /// Memo misses this tune added to the shared memo.
    pub memo_misses: u64,
    /// Cycles of the untransformed program.
    pub base_cycles: u64,
    /// Cycles of the paper-default driver's output.
    pub default_cycles: u64,
    /// Cycles of the winner as the tuner scored it.
    pub tuned_cycles: u64,
    /// Which source won.
    pub winner: String,
    /// Seconds spent scoring candidates (sum of the slices).
    pub score_s: f64,
    /// Candidates whose output diverged from the base program.
    pub oracle_failures: usize,
}

/// Everything one application produced in one pass.
#[derive(Debug)]
pub struct AppRun {
    /// Which application.
    pub app: App,
    /// The workload as built.
    pub workload: Workload,
    /// Simulated processors.
    pub nprocs: usize,
    /// Home policy of the memory images.
    pub policy: HomePolicy,
    /// Host seconds of the application's part of the pass, bookkeeping
    /// and calibration excluded.
    pub raw_wall_s: f64,
    /// The same in reference seconds (see `calib`).
    pub wall_s: f64,
    /// Reference seconds before the first simulated cycle.
    pub setup_s: f64,
    /// Reference seconds inside `run_program_with`.
    pub sim_s: f64,
    /// Mean host slowdown over the application's segments.
    pub slowdown: f64,
    /// The untransformed program's run.
    pub base: Final,
    /// The clustered program, or the tuned winner.
    pub best: Final,
    /// The transform driver's report (Figure 3 workloads).
    pub cluster: Option<ClusterReport>,
    /// `(accesses, sampled)` of the reuse pre-pass (measured locality).
    pub reuse: Option<(u64, u64)>,
    /// Tuner figures (tune workload).
    pub tune: Option<TuneFigures>,
}

impl AppRun {
    /// Percent execution-time reduction, base to clustered or tuned.
    pub fn reduction_pct(&self) -> f64 {
        let base = self.base.result.cycles as f64;
        100.0 * (base - self.best.result.cycles as f64) / base
    }

    /// One line of every simulated statistic this application produced.
    pub fn digest_line(&self) -> String {
        let mut s = format!("{} procs={}", app_key(self.app), self.nprocs);
        for (tag, f) in [("base", &self.base), ("best", &self.best)] {
            s.push_str(&format!(
                " | {tag} cycles={} retired={} mem={:016x} {:?}",
                f.result.cycles, f.result.retired, f.fingerprint, f.result.counters
            ));
        }
        if let Some(t) = &self.tune {
            s.push_str(&format!(
                " | tune base={} default={} tuned={} winner={}",
                t.base_cycles, t.default_cycles, t.tuned_cycles, t.winner
            ));
        }
        s
    }
}

/// One pass over a workload's applications.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per-application results.
    pub apps: Vec<AppRun>,
}

impl Pass {
    /// Host seconds of the pass: the sum of the applications' parts.
    pub fn raw_wall_s(&self) -> f64 {
        self.apps.iter().map(|a| a.raw_wall_s).sum()
    }

    /// Reference seconds of the pass.
    pub fn wall_s(&self) -> f64 {
        self.apps.iter().map(|a| a.wall_s).sum()
    }

    /// Mean host slowdown over the pass's applications.
    pub fn slowdown(&self) -> f64 {
        self.apps.iter().map(|a| a.slowdown).sum::<f64>() / self.apps.len() as f64
    }

    /// Sum of the applications' set-up times, in reference seconds.
    pub fn setup_s(&self) -> f64 {
        self.apps.iter().map(|a| a.setup_s).sum()
    }

    /// Retired simulated instructions per reference microsecond (MIPS)
    /// inside `run_program_with`.
    pub fn sim_mips(&self) -> f64 {
        let retired: u64 = self
            .apps
            .iter()
            .map(|a| a.base.result.retired + a.best.result.retired)
            .sum();
        let secs: f64 = self.apps.iter().map(|a| a.sim_s).sum();
        retired as f64 / secs / 1e6
    }

    /// The simulated-statistics digest: one line per application.
    pub fn digest(&self) -> String {
        self.apps.iter().map(|a| a.digest_line() + "\n").collect()
    }
}

/// Runs `prog` on the fresh image `mem`, returning its final state, the
/// simulation's host seconds and the seconds spent copying its outputs.
fn simulate(
    spans: &mut Spans,
    name: &'static str,
    app: &'static str,
    prog: Program,
    mut mem: SimMem,
    cfg: &MachineConfig,
    w: &Workload,
) -> (Final, f64, f64) {
    let (result, secs) = spans.time(name, app, || {
        run_program_with(&prog, &mut mem, cfg, SimOptions::default())
    });
    let ((fingerprint, outputs), c) = spans.time("bench.check", app, || {
        (mem.fingerprint(), w.read_outputs(&mem))
    });
    let f = Final {
        prog,
        result,
        fingerprint,
        outputs,
    };
    (f, secs, c)
}

/// One application after set-up: everything made before its first
/// simulated cycle.
struct Setup {
    w: Workload,
    nprocs: usize,
    cfg: MachineConfig,
    policy: HomePolicy,
    profile: MissProfile,
    /// `(accesses, sampled)` of the reuse pre-pass (measured locality).
    reuse: Option<(u64, u64)>,
    /// The clustered program, its report and the base and clustered
    /// memory images (Figure 3 workloads; the tuner makes its own).
    clustered: Option<(Program, ClusterReport, SimMem, SimMem)>,
    /// Host seconds of the set-up.
    secs: f64,
}

/// Sets up `app` for `kind`: build, locality profile and, on the Figure 3
/// workloads, the clustering transform and the memory images.
fn set_up(kind: Kind, app: App, scale: f64, seed: u64, spans: &mut Spans) -> Setup {
    let key = app_key(app);
    let (w, build_s) = spans.time("workloads.build", key, || build_app(app, scale, seed));
    let nprocs = if kind.multiprocessor() {
        w.mp_procs.max(1)
    } else {
        1
    };
    let cfg = MachineConfig::base_simulated(nprocs, scaled_l2(w.l2_bytes, scale));
    let policy = home_policy(&cfg);
    let (locality, layer) = if kind == Kind::Fig3UpMeasured {
        (Locality::Measured, "obs.reuse_prepass")
    } else {
        (Locality::Analytic, "analysis.profile")
    };
    let ((profile, reuse), profile_s) =
        spans.time(layer, key, || locality_profile(&w, &cfg, locality));
    let mut secs = build_s + profile_s;
    let clustered = if kind == Kind::TuneMp {
        None
    } else {
        let ((prog, report), cluster_s) = spans.time("transform.cluster", key, || {
            let mut p = w.program.clone();
            let r = cluster_program(&mut p, &machine_summary(&cfg), &profile);
            (p, r)
        });
        let ((base_mem, clust_mem), mem_s) = spans.time("workloads.mem_image", key, || {
            (
                w.memory_with_policy(nprocs, policy),
                w.memory_with_policy(nprocs, policy),
            )
        });
        secs += cluster_s + mem_s;
        Some((prog, report, base_mem, clust_mem))
    };
    Setup {
        w,
        nprocs,
        cfg,
        policy,
        profile,
        reuse: reuse.map(|r| (r.accesses, r.sampled)),
        clustered,
        secs,
    }
}

/// Reference seconds of one set-up of every application of `kind`,
/// averaged over `reps` back-to-back set-ups with no simulation between
/// them.
pub fn setup_sample(
    kind: Kind,
    scale: f64,
    seed: u64,
    reps: u32,
    spans: &mut Spans,
    host: &mut HostSpeed,
) -> f64 {
    let mut secs = 0.0;
    for _ in 0..reps {
        for app in kind.apps() {
            secs += set_up(kind, app, scale, seed, spans).secs;
        }
    }
    secs / reps as f64 / calibrate(spans, host)
}

/// Ends a timed segment: samples the host speed (in a `bench.calibrate`
/// span) and returns the segment's slowdown.
fn calibrate(spans: &mut Spans, host: &mut HostSpeed) -> f64 {
    spans.time("bench.calibrate", "", || host.lap()).0
}

/// One application's host time, segment by segment. Each segment ends
/// with a calibration sample and is divided by its slowdown.
#[derive(Default)]
struct AppClock {
    raw_s: f64,
    ref_s: f64,
    slowdown_sum: f64,
    segments: u32,
}

impl AppClock {
    /// Ends a segment that began at `t0` and spent `skip_s` host seconds
    /// on the benchmark's bookkeeping; returns its slowdown.
    fn lap(&mut self, spans: &mut Spans, host: &mut HostSpeed, t0: f64, skip_s: f64) -> f64 {
        let raw = spans.now() - t0 - skip_s;
        let k = calibrate(spans, host);
        self.raw_s += raw;
        self.ref_s += raw / k;
        self.slowdown_sum += k;
        self.segments += 1;
        k
    }
}

/// Runs one pass of `kind` at `scale` with inputs from `seed`. Every
/// timed segment (set-up, search, each simulation) ends with a host-speed
/// sample, outside the segment's time.
pub fn run_pass(
    kind: Kind,
    scale: f64,
    seed: u64,
    spans: &mut Spans,
    host: &mut HostSpeed,
) -> Pass {
    spans.open("pass", "");
    let mut pass = Pass::default();
    // One tuner per pass: the memo is shared across the pass's
    // applications, as `tune` shares it, and starts cold every pass.
    let tuner = Tuner::new(TuneOptions {
        threads: 1,
        ..TuneOptions::default()
    });
    let (mut prev_hits, mut prev_misses) = (0, 0);
    for app in kind.apps() {
        let key = app_key(app);
        let mut clock = AppClock::default();
        spans.open("app", key);
        let t0 = spans.now();
        let s = set_up(kind, app, scale, seed, spans);
        let setup_s = s.secs / clock.lap(spans, host, t0, 0.0);
        let (w, cfg, nprocs) = (&s.w, &s.cfg, s.nprocs);
        let (base_mem, best_prog, best_mem, cluster, tune) = match s.clustered {
            Some((prog, report, base_mem, clust_mem)) => {
                (base_mem, prog, clust_mem, Some(report), None)
            }
            None => {
                let t0 = spans.now();
                let mem_at = |n: usize| w.memory_with_policy(n, s.policy);
                let ((tuned, report), _) = spans.time("tune.search", key, || {
                    tuner.tune_program(&w.name, &w.program, cfg, &s.profile, &mem_at)
                });
                // The memo's totals are running totals over the shared
                // memo, not per tune; the per-application figures are
                // the deltas.
                let hits = report.stats.memo_hits - prev_hits;
                let misses = report.stats.memo_misses - prev_misses;
                (prev_hits, prev_misses) = (report.stats.memo_hits, report.stats.memo_misses);
                // Replay the base program and the winner once each: the
                // digest, the oracle and `sim_mips` need their final state.
                let ((base_mem, tuned_mem), _) = spans.time("workloads.mem_image", key, || {
                    (mem_at(nprocs), mem_at(nprocs))
                });
                let score_us: u64 = report.candidates.iter().map(|c| c.dur_us).sum();
                let k = clock.lap(spans, host, t0, 0.0);
                let figures = TuneFigures {
                    stats: report.stats,
                    memo_hits: hits,
                    memo_misses: misses,
                    base_cycles: report.base_cycles,
                    default_cycles: report.default_cycles,
                    tuned_cycles: report.tuned_cycles,
                    winner: report.winner.clone(),
                    score_s: score_us as f64 / 1e6 / k,
                    oracle_failures: report.oracle_failures.len(),
                };
                (base_mem, tuned, tuned_mem, None, Some(figures))
            }
        };
        let t0 = spans.now();
        let (base, base_s, c1) =
            simulate(spans, "sim.base", key, w.program.clone(), base_mem, cfg, w);
        let base_s = base_s / clock.lap(spans, host, t0, c1);
        let t0 = spans.now();
        let (best, best_s, c2) = simulate(spans, "sim.clustered", key, best_prog, best_mem, cfg, w);
        let best_s = best_s / clock.lap(spans, host, t0, c2);
        spans.close();
        pass.apps.push(AppRun {
            app,
            nprocs,
            policy: s.policy,
            raw_wall_s: clock.raw_s,
            wall_s: clock.ref_s,
            setup_s,
            sim_s: base_s + best_s,
            slowdown: clock.slowdown_sum / clock.segments as f64,
            base,
            best,
            cluster,
            reuse: s.reuse,
            tune,
            workload: s.w,
        });
    }
    spans.close();
    pass
}

/// Per-layer counts of one pass that are not host times, by metric name.
pub fn layer_counts(pass: &Pass) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut add = |k: &str, v: f64| *m.entry(k.to_string()).or_insert(0.0) += v;
    let (mut uaj_nests, mut uaj_sum) = (0u64, 0u64);
    let mut retired = 0u64;
    let mut sim_cycles_cores = 0u64;
    let (mut bus, mut bank) = (Utilization::default(), Utilization::default());
    let (mut occ_weighted, mut occ_cycles) = (0.0, 0u64);
    let (mut data, mut sync, mut total) = (0.0, 0.0, 0.0);
    for a in &pass.apps {
        if let Some((acc, sampled)) = a.reuse {
            add("obs.reuse_accesses", acc as f64);
            add("obs.reuse_sampled", sampled as f64);
        }
        if let Some(r) = &a.cluster {
            for d in &r.decisions {
                add("transform.scalar_replaced", d.scalar_replaced as f64);
                if d.uaj_degree > 1 {
                    uaj_nests += 1;
                    uaj_sum += d.uaj_degree as u64;
                }
            }
        }
        if let Some(t) = &a.tune {
            add("tune.enumerated", t.stats.enumerated as f64);
            add("tune.pruned_illegal", t.stats.pruned_illegal as f64);
            add("tune.pruned_predicted", t.stats.pruned_predicted as f64);
            add("tune.scored", t.stats.scored as f64);
            add("tune.memo_hits", t.memo_hits as f64);
            add("tune.memo_misses", t.memo_misses as f64);
        }
        for f in [&a.base, &a.best] {
            let r = &f.result;
            let c = &r.counters;
            add("sim.l1_misses", c.l1_misses as f64);
            add("sim.l2_read_misses", c.l2_read_misses as f64);
            add("sim.coalesced", c.coalesced as f64);
            add("sim.remote_misses", c.remote_misses as f64);
            add("sim.cache_to_cache", c.cache_to_cache as f64);
            add("sim.invalidations", c.invalidations as f64);
            add("sim.upgrades", c.upgrades as f64);
            add("sim.writebacks", c.writebacks as f64);
            retired += r.retired;
            sim_cycles_cores += r.cycles * a.nprocs as u64;
            bus.record(r.bus_util.busy, r.bus_util.total);
            bank.record(r.bank_util.busy, r.bank_util.total);
            occ_weighted += r.occupancy.mean_read_occupancy() * r.occupancy.cycles() as f64;
            occ_cycles += r.occupancy.cycles();
            for b in &r.breakdowns {
                data += b.data;
                sync += b.sync;
                total += b.total();
            }
        }
        add(
            &format!("app.{}.reduction_pct", app_key(a.app)),
            a.reduction_pct(),
        );
    }
    add("transform.uaj_nests", uaj_nests as f64);
    add(
        "transform.mean_uaj_degree",
        if uaj_nests == 0 {
            0.0
        } else {
            uaj_sum as f64 / uaj_nests as f64
        },
    );
    add("sim.retired", retired as f64);
    add("sim.core_cycles", sim_cycles_cores as f64);
    add("sim.bus_util", bus.fraction());
    add("sim.bank_util", bank.fraction());
    add(
        "sim.mshr_read_occupancy",
        if occ_cycles == 0 {
            0.0
        } else {
            occ_weighted / occ_cycles as f64
        },
    );
    add("sim.data_stall_pct", 100.0 * data / total);
    add("sim.sync_stall_pct", 100.0 * sync / total);
    m
}
