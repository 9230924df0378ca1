//! End-to-end and per-layer wall-time benchmark of the mempar pipelines.
//!
//! ```text
//! mempar-perfbench --workload fig3-mp --seed 0 --seconds 40 --trace 0
//! ```
//!
//! Repeats one pass of the workload until `--seconds` have elapsed, then
//! checks every simulated program against the tree-walking interpreter
//! and prints the metrics. The last line of stdout is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` for what each workload and metric means.

mod calib;
mod pipeline;
mod trace;

use std::collections::BTreeMap;

use mempar_ir::{run_parallel_functional_with, run_single_with, Engine, Program};
use mempar_obs::validate_json;
use mempar_workloads::App;

use calib::HostSpeed;
use pipeline::{app_key, run_pass, AppRun, Kind, Pass};
use trace::Spans;

/// End-to-end metrics: name and unit. Printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "Mcycles"),
    ("exec_reduction_pct", "%"),
    ("paper_gap_pp", "pp"),
    ("tuned_vs_default", "x"),
    ("pass_pct", "%"),
];

/// Host-time layers: span name and the metric its self time reports.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("workloads.build", "workloads.build_s"),
    ("workloads.mem_image", "workloads.mem_image_s"),
    ("analysis.profile", "analysis.profile_s"),
    ("obs.reuse_prepass", "obs.reuse_prepass_s"),
    ("transform.cluster", "transform.cluster_s"),
    ("sim.base", "sim.base_s"),
    ("sim.clustered", "sim.clustered_s"),
    ("tune.search", "tune.search_s"),
];

/// Per-layer metrics that are not per application: name and unit.
/// Printed with `--trace 1`, followed by `app.<name>.*` for every app.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.mem_image_s", "s"),
    ("analysis.profile_s", "s"),
    ("obs.reuse_prepass_s", "s"),
    ("obs.reuse_accesses", "count"),
    ("obs.reuse_sampled", "count"),
    ("transform.cluster_s", "s"),
    ("transform.uaj_nests", "count"),
    ("transform.mean_uaj_degree", "x"),
    ("transform.scalar_replaced", "count"),
    ("sim.base_s", "s"),
    ("sim.clustered_s", "s"),
    ("sim.ns_per_instr", "ns"),
    ("sim.ns_per_core_cycle", "ns"),
    ("sim.l1_misses", "count"),
    ("sim.l2_read_misses", "count"),
    ("sim.coalesced", "count"),
    ("sim.remote_misses", "count"),
    ("sim.cache_to_cache", "count"),
    ("sim.invalidations", "count"),
    ("sim.upgrades", "count"),
    ("sim.writebacks", "count"),
    ("sim.bus_util", "fraction"),
    ("sim.bank_util", "fraction"),
    ("sim.retired", "count"),
    ("sim.mshr_read_occupancy", "mshrs"),
    ("sim.data_stall_pct", "%"),
    ("sim.sync_stall_pct", "%"),
    ("tune.search_s", "s"),
    ("tune.score_s", "s"),
    ("tune.search_other_s", "s"),
    ("tune.enumerated", "count"),
    ("tune.pruned_illegal", "count"),
    ("tune.pruned_predicted", "count"),
    ("tune.scored", "count"),
    ("tune.memo_hits", "count"),
    ("tune.memo_misses", "count"),
    ("tune.memo_hit_ratio", "fraction"),
    ("bench.check_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_slowdown", "x"),
    ("bench.raw_wall_s", "s"),
];

/// Per-application metrics, `app.<name>.<suffix>`.
const PER_APP: &[(&str, &str)] = &[("setup_s", "s"), ("sim_s", "s"), ("reduction_pct", "%")];

/// The paper's Figure 3 reductions per application, `(low, high)` in
/// percent (EXPERIMENTS.md): 3(a) multiprocessor, 3(b) uniprocessor.
fn paper_reduction(app: App, multiprocessor: bool) -> Option<(f64, f64)> {
    let v = match (app, multiprocessor) {
        (App::Em3d, true) => (9.0, 9.0),
        (App::Erlebacher, true) => (14.0, 14.0),
        (App::Fft, true) => (13.0, 13.0),
        (App::Lu, true) => (22.0, 22.0),
        (App::Mp3d, true) => (30.0, 30.0),
        (App::Ocean, true) => (5.0, 5.0),
        (App::Em3d, false) => (11.0, 11.0),
        (App::Erlebacher, false) => (15.0, 20.0),
        (App::Fft, false) => (18.0, 18.0),
        (App::Lu, false) => (45.0, 45.0),
        (App::Mp3d, false) => (26.0, 26.0),
        (App::Mst, false) => (48.0, 48.0),
        (App::Ocean, false) => (49.0, 49.0),
        _ => return None,
    };
    Some(v)
}

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mempar-perfbench --workload <fig3-mp|fig3-up-measured|tune-mp> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <f>] [--trace-out <path>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scale, mut trace_out) =
        (None, 0u64, 10.0f64, false, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--scale" => scale = Some(value.parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace-out" => trace_out = Some(value),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let kind = Kind::parse(&workload).unwrap_or_else(|| usage());
    let scale = scale.unwrap_or(kind.default_scale());
    if !(seconds > 0.0 && scale > 0.0) {
        usage();
    }
    Args {
        kind,
        workload,
        seed,
        seconds,
        trace,
        scale,
        trace_out,
    }
}

/// Where a number came from: host, build and run parameters.
fn provenance(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "workload={} nproc={nproc} cpu=\"{cpu}\" profile={profile} scale={} seed={} threads=1",
        a.workload, a.scale, a.seed
    )
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Final memory fingerprint and outputs of `prog` under the tree-walking
/// interpreter (parallel functional interleaving on a multiprocessor).
fn interp_final(a: &AppRun, prog: &Program) -> (u64, Vec<Vec<u64>>) {
    let w = &a.workload;
    let mut mem = w.memory_with_policy(a.nprocs, a.policy);
    if a.nprocs > 1 {
        run_parallel_functional_with(prog, &mut mem, a.nprocs, Engine::Interp);
    } else {
        run_single_with(prog, &mut mem, Engine::Interp);
    }
    (mem.fingerprint(), w.read_outputs(&mem))
}

/// The oracle: one `(passed, what)` per check of the first pass.
fn check(pass: &Pass) -> Vec<(bool, String)> {
    let mut checks = Vec::new();
    for a in &pass.apps {
        let w = &a.workload;
        let key = app_key(a.app);
        let (base_fp, base_out) = interp_final(a, &w.program);
        checks.push((
            a.base.fingerprint == base_fp,
            format!("{key}: base memory differs from the interpreter"),
        ));
        let (best_fp, _) = interp_final(a, &a.best.prog);
        checks.push((
            a.best.fingerprint == best_fp,
            format!("{key}: transformed memory differs from the interpreter"),
        ));
        checks.push((
            a.best.outputs == base_out,
            format!("{key}: transformed outputs differ from the base program's"),
        ));
        if let Some(t) = &a.tune {
            checks.push((
                a.base.result.cycles == t.base_cycles,
                format!("{key}: base cycles differ from the tuner's score"),
            ));
            checks.push((
                a.best.result.cycles == t.tuned_cycles,
                format!("{key}: winner cycles differ from the tuner's score"),
            ));
            checks.push((
                t.oracle_failures == 0,
                format!(
                    "{key}: the tuner's oracle rejected {} of {} scored candidates",
                    t.oracle_failures, t.stats.scored
                ),
            ));
        }
    }
    checks
}

/// The host-time figures of one pass. Only the first pass is kept whole
/// (for the oracle); later passes are reduced to this, so memory use
/// does not grow with the pass count.
struct Summary {
    traced: bool,
    /// Reference seconds of the pass (see `calib`).
    wall_s: f64,
    /// Host seconds of the pass.
    raw_wall_s: f64,
    /// Mean host slowdown over the pass.
    slowdown: f64,
    /// One `setup_s` sample: the pass's set-up, or the mean of
    /// `Kind::setup_reps` set-ups made after the pass.
    setup_s: f64,
    sim_mips: f64,
    score_s: f64,
    digest: String,
    /// `(app, setup_s, sim_s)` per application, in reference seconds.
    apps: Vec<(App, f64, f64)>,
    /// Self time per span name in reference seconds (traced passes only).
    self_times: BTreeMap<&'static str, f64>,
}

impl Summary {
    fn of(
        pass: &Pass,
        traced: bool,
        setup_s: f64,
        self_times: BTreeMap<&'static str, f64>,
    ) -> Self {
        Summary {
            traced,
            wall_s: pass.wall_s(),
            raw_wall_s: pass.raw_wall_s(),
            slowdown: pass.slowdown(),
            setup_s,
            sim_mips: pass.sim_mips(),
            score_s: pass
                .apps
                .iter()
                .filter_map(|a| a.tune.as_ref())
                .map(|t| t.score_s)
                .sum(),
            digest: pass.digest(),
            apps: pass
                .apps
                .iter()
                .map(|a| (a.app, a.setup_s, a.sim_s))
                .collect(),
            self_times: self_times
                .into_iter()
                .map(|(k, v)| (k, v / pass.slowdown()))
                .collect(),
        }
    }
}

/// Median of `f` over the summaries with the given trace flag.
fn med(runs: &[Summary], traced: bool, f: impl Fn(&Summary) -> f64) -> f64 {
    median(runs.iter().filter(|s| s.traced == traced).map(f).collect())
}

/// End-to-end metrics: host times are medians over the untraced passes;
/// simulated figures come from the first pass (every pass repeats them).
fn end_to_end(
    kind: Kind,
    first: &Pass,
    runs: &[Summary],
    checked: u64,
    failed: usize,
) -> BTreeMap<String, f64> {
    let mp = kind != Kind::Fig3UpMeasured;
    let apps = &first.apps;
    let n = apps.len() as f64;
    let gaps: Vec<f64> = apps
        .iter()
        .filter_map(|a| {
            let (lo, hi) = paper_reduction(a.app, mp)?;
            let r = a.reduction_pct();
            Some((lo - r).max(r - hi).max(0.0))
        })
        .collect();
    // On the Figure 3 workloads no search runs: the program the paper's
    // driver produced is the tuned one, so the ratio is exactly 1.
    let log_ratio: f64 = apps
        .iter()
        .filter_map(|a| {
            let t = a.tune.as_ref()?;
            Some((t.default_cycles as f64 / a.best.result.cycles as f64).ln())
        })
        .sum();
    let cycles: u64 = apps.iter().map(|a| a.best.result.cycles).sum();
    let values = [
        ("setup_s", med(runs, false, |s| s.setup_s)),
        ("wall_s", med(runs, false, |s| s.wall_s)),
        ("sim_mips", med(runs, false, |s| s.sim_mips)),
        ("sim_cycles", cycles as f64 / 1e6),
        (
            "exec_reduction_pct",
            apps.iter().map(|a| a.reduction_pct()).sum::<f64>() / n,
        ),
        ("paper_gap_pp", gaps.iter().sum::<f64>() / gaps.len() as f64),
        ("tuned_vs_default", (log_ratio / n).exp()),
        (
            "pass_pct",
            100.0 * (checked - failed as u64) as f64 / checked as f64,
        ),
    ];
    values
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Per-layer metrics: host times are medians over the traced passes
/// (layer times are span self times), counts come from the first pass.
fn per_layer(first: &Pass, runs: &[Summary], check_s: f64) -> BTreeMap<String, f64> {
    let mut m = pipeline::layer_counts(first);
    for &(span, metric) in LAYER_SPANS {
        let v = med(runs, true, |s| {
            s.self_times.get(span).copied().unwrap_or(0.0)
        });
        m.insert(metric.to_string(), v);
    }
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let score_s = med(runs, true, |s| s.score_s);
    let sim_s = get(&m, "sim.base_s") + get(&m, "sim.clustered_s");
    let (hits, misses) = (get(&m, "tune.memo_hits"), get(&m, "tune.memo_misses"));
    let overhead = med(runs, true, |s| s.wall_s) / med(runs, false, |s| s.wall_s) - 1.0;
    let extra = [
        ("tune.score_s", score_s),
        ("tune.search_other_s", get(&m, "tune.search_s") - score_s),
        ("tune.memo_hit_ratio", per(hits, hits + misses)),
        ("sim.ns_per_instr", per(sim_s * 1e9, get(&m, "sim.retired"))),
        (
            "sim.ns_per_core_cycle",
            per(sim_s * 1e9, get(&m, "sim.core_cycles")),
        ),
        ("bench.check_s", check_s),
        ("bench.trace_overhead_pct", 100.0 * overhead),
        (
            "bench.host_slowdown",
            median(runs.iter().map(|s| s.slowdown).collect()),
        ),
        ("bench.raw_wall_s", med(runs, false, |s| s.raw_wall_s)),
    ];
    for (k, v) in extra {
        m.insert(k.to_string(), v);
    }
    for app in App::all() {
        let key = app_key(app);
        let of = |s: &Summary, f: fn(&(App, f64, f64)) -> f64| {
            s.apps.iter().find(|a| a.0 == app).map_or(0.0, f)
        };
        m.insert(
            format!("app.{key}.setup_s"),
            med(runs, true, |s| of(s, |a| a.1)),
        );
        m.insert(
            format!("app.{key}.sim_s"),
            med(runs, true, |s| of(s, |a| a.2)),
        );
    }
    m
}

/// Every metric name and unit printed under the given trace mode.
fn metric_names(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
    }
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for app in App::all() {
        for &(suffix, u) in PER_APP {
            v.push((format!("app.{}.{suffix}", app_key(app)), u));
        }
    }
    v
}

fn main() {
    let args = parse_args();
    let prov = provenance(&args);
    println!("host: {prov}");

    // Untraced passes give the end-to-end figures. With `--trace 1`,
    // traced passes alternate with untraced ones, so both see the same
    // host conditions and their wall times give the tracing overhead.
    // A pass starts only if it is expected to end within `--seconds`.
    let min_passes = if args.trace { 2 } else { 1 };
    let mut spans = Spans::new();
    let mut host = HostSpeed::new();
    let mut first: Option<Pass> = None;
    let mut runs: Vec<Summary> = Vec::new();
    let start = spans.now();
    loop {
        let traced = args.trace && runs.len() % 2 == 1;
        spans.set_enabled(traced);
        let mark = spans.len();
        let t0 = spans.now();
        let pass = run_pass(args.kind, args.scale, args.seed, &mut spans, &mut host);
        let self_times = if traced {
            spans.self_times(mark)
        } else {
            BTreeMap::new()
        };
        let reps = args.kind.setup_reps();
        let setup_s = if reps == 0 {
            pass.setup_s()
        } else {
            spans.set_enabled(false);
            pipeline::setup_sample(
                args.kind, args.scale, args.seed, reps, &mut spans, &mut host,
            )
        };
        let pass_s = spans.now() - t0;
        let summary = Summary::of(&pass, traced, setup_s, self_times);
        eprintln!(
            "pass {}{}: wall {:.3} s (host {:.3} s, slowdown {:.3}), setup {:.3} s, {:.3} MIPS",
            runs.len(),
            if traced { " (traced)" } else { "" },
            summary.wall_s,
            summary.raw_wall_s,
            summary.slowdown,
            summary.setup_s,
            summary.sim_mips
        );
        runs.push(summary);
        first.get_or_insert(pass);
        if runs.len() >= min_passes && spans.now() - start + pass_s > args.seconds {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let peak = peak_rss_mb();

    // Every pass must reproduce the first pass's simulated statistics.
    let digest = &runs[0].digest;
    let (mut checks, check_s) = spans.time("bench.check", "", || check(&first));
    checks.push((
        runs.iter().all(|s| &s.digest == digest),
        "a later pass's simulated statistics differ from pass 0's".to_string(),
    ));
    let checked = checks.len() as u64;
    let failures: Vec<String> = checks
        .into_iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| what)
        .collect();

    for line in digest.lines() {
        println!("digest.{line}");
    }
    println!("digest {:016x}", fnv1a(digest.as_bytes()));
    for a in &first.apps {
        if let Some(t) = &a.tune {
            println!(
                "tune.{}: memo hits +{} misses +{} (shared-memo totals {} / {})",
                app_key(a.app),
                t.memo_hits,
                t.memo_misses,
                t.stats.memo_hits,
                t.stats.memo_misses
            );
        }
    }
    println!(
        "oracle: {checked} checks, {} failed, {} passes",
        failures.len(),
        runs.len()
    );
    for f in &failures {
        println!("oracle failure: {f}");
    }

    let metrics = if args.trace {
        let json = spans.chrome_json(&prov);
        if let Err(e) = validate_json(&json) {
            eprintln!("trace JSON is malformed: {e}");
            std::process::exit(1);
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
        per_layer(&first, &runs, check_s)
    } else {
        let mut m = end_to_end(args.kind, &first, &runs, checked, failures.len());
        m.insert("peak_rss_mb".to_string(), peak);
        m
    };

    let body: Vec<String> = metric_names(args.trace)
        .into_iter()
        .map(|(name, unit)| {
            let v = metrics.get(&name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {checked}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        body.join(", ")
    );
}

/// FNV-1a, for the one-line digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}
