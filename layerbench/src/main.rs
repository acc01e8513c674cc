//! `layerbench` — end-to-end and per-layer benchmark of the pax
//! workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
//!     --workload <flow|search|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up (training, fixtures, one untimed warm-up round),
//! measures its workload for `--seconds`, self-checks every operation
//! and prints one JSON result line last on stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `layerbench/README.md` for the workloads and the metric map.

mod flow;
mod report;
mod search;
mod serve;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use pax_bench::catalog::{train_entry, DatasetId, Entry};
use pax_core::explore::SearchStats;
use pax_ml::quant::ModelKind;
use pax_ml::synth_data::SynthConfig;
use report::{median, ratio, Report};
use trace::{SpanTotal, Tracer};

/// Environment toggles the program reads that would skew a run:
/// `PAX_SEARCH_SEED` overrides every NSGA-II seed, `PAX_OBS_JOURNAL`
/// adds journal I/O to every exploration, `PAX_PROPTEST_SEED` steers
/// property tests. All three are cleared before anything runs.
const CLEARED_ENV: [&str; 3] = ["PAX_SEARCH_SEED", "PAX_OBS_JOURNAL", "PAX_PROPTEST_SEED"];

/// End-to-end metrics (untraced runs), emitted by every workload. See
/// the README for what each means per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cands_per_cpu_s", "1/s"),
    ("ok_frac", "frac"),
];

/// Shard count of the serve registry: one at-rest gauge each.
pub const SERVE_SHARDS: usize = 16;

/// Per-layer metrics (traced runs), emitted by every workload; a layer
/// the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("ml.train_ms", "ms"),
        ("core.mult_cache_ms", "ms"),
        ("core.coeff_approx_ms", "ms"),
        ("bespoke.generate_ms", "ms"),
        ("synth.optimize_ms", "ms"),
        ("sim.compile_ms", "ms"),
        ("core.measure_ms", "ms"),
        ("core.prune_analyze_ms", "ms"),
        ("core.explore_ms", "ms"),
        ("core.ask_ms.grid", "ms"),
        ("core.ask_ms.nsga2", "ms"),
        ("core.tell_ms.nsga2", "ms"),
        ("core.eval_batch_ms", "ms"),
        ("netlist.fold_ms", "ms"),
        ("sim.masked_ms", "ms"),
        ("core.score_ms", "ms"),
        ("sta.retime_ms", "ms"),
        ("core.resolve_ms", "ms"),
        ("core.delta_hit_frac", "frac"),
        ("core.delta_mean_nets", "count"),
        ("core.cache_hit_frac", "frac"),
        ("core.archive_insert_us", "us"),
        ("core.hypervolume_us", "us"),
        ("serve.submit_us", "us"),
        ("serve.req_p99_us", "us"),
        ("serve.engine_p50_us", "us"),
        ("serve.engine_p99_us", "us"),
        ("serve.mean_batch", "count"),
        ("serve.occupancy", "frac"),
        ("serve.classify_us.b1", "us"),
        ("serve.classify_us.b64", "us"),
        ("sim.tape_samples_per_s", "1/s"),
        ("serve.rejected", "count"),
        ("serve.cancelled", "count"),
        ("serve.job_p50_ms", "ms"),
        ("serve.job_p99_ms", "ms"),
        ("serve.jobs_completed", "count"),
        ("serve.jobs_rejected", "count"),
        ("serve.queue_depth_at_rest", "count"),
        ("count.gates", "count"),
        ("count.designs_explored", "count"),
        ("count.designs_unique", "count"),
        ("count.fresh_evals", "count"),
        ("count.delta_folds", "count"),
        ("count.cache_hits", "count"),
        ("bench.parallelism", "frac"),
        ("bench.flow_coverage_frac", "frac"),
        ("bench.trace_overhead_frac", "frac"),
        ("bench.gen_late_p99_us", "us"),
        ("bench.eval_threads", "count"),
        ("bench.serve_workers", "count"),
        ("host.nproc", "count"),
        ("host.steal_frac", "frac"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for model in serve::MODEL_NAMES {
        v.push((format!("serve.queue_depth_at_rest.{model}"), "count"));
    }
    for shard in 0..SERVE_SHARDS {
        v.push((format!("serve.queue_depth_at_rest.shard-{shard:02}"), "count"));
    }
    v
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `flow`, `search` or `serve`.
    pub workload: String,
    /// Drives every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Small data and circuits, one set-up; for the benchmark's tests.
    pub tiny: bool,
    /// Evaluator threads and serve workers of `search` and `serve`
    /// (defaults to `nproc`); `flow` runs at the evaluator's default.
    pub threads: usize,
    /// Offered request rate of `serve`, per second (defaults to
    /// [`serve::RATE_PER_S`]; other values are for capacity sweeps).
    pub rate: f64,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
            threads: sys::nproc(),
            rate: serve::RATE_PER_S,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => opts.workload = value()?.clone(),
                "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--threads" => {
                    opts.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?
                }
                "--rate" => opts.rate = value()?.parse().map_err(|e| format!("--rate: {e}"))?,
                "--tiny" => opts.tiny = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !["flow", "search", "serve"].contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be flow, search or serve, not `{}`",
                opts.workload
            ));
        }
        if !(opts.seconds > 0.0 && opts.rate > 0.0) || opts.threads == 0 {
            return Err("--seconds, --threads and --rate must be positive".into());
        }
        Ok(opts)
    }

    /// Set-up repetitions: `setup_s` reports their median.
    pub fn setup_reps(&self) -> usize {
        if self.tiny {
            1
        } else {
            3
        }
    }
}

/// Times the set-up in process CPU: `build` runs `reps` times, the last
/// result is kept, and the reported time counts the build at its
/// median. CPU rather than wall, because the host's wall-clock speed
/// drifts far more between runs than the CPU a fixed piece of work
/// needs (see the README); the wall time goes to stderr.
pub struct Setup {
    start: Instant,
    reps: Vec<f64>,
}

impl Setup {
    fn new(start: Instant) -> Self {
        Self { start, reps: Vec::new() }
    }

    /// Runs the repeated part of the set-up.
    pub fn repeat<T>(&mut self, reps: usize, mut build: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps.max(1) {
            let c = sys::process_cpu();
            last = Some(build());
            self.reps.push((sys::process_cpu() - c).as_secs_f64());
        }
        last.expect("at least one repetition")
    }

    /// `setup_s` at the first timed operation: process CPU seconds since
    /// process start, with the repeated build counted once at its
    /// median.
    pub fn finish(&self) -> f64 {
        let total = sys::process_cpu().as_secs_f64();
        let setup_s = total - self.reps.iter().sum::<f64>() + median(&self.reps);
        eprintln!(
            "layerbench: set-up {setup_s:.3} CPU s (builds {:?} CPU s), {:.2} s wall",
            self.reps,
            self.start.elapsed().as_secs_f64()
        );
        setup_s
    }
}

/// What a workload hands back besides the metrics already recorded.
pub struct Outcome {
    pub report: Report,
    pub tracer: Tracer,
}

/// The catalog entries a workload trains, in a fixed order.
pub fn catalog_pairs(opts: &Opts, workload: &str) -> Vec<(DatasetId, ModelKind)> {
    use DatasetId::{Cardio, Pendigits, RedWine, WhiteWine};
    use ModelKind::{MlpC, MlpR, SvmC, SvmR};
    match (workload, opts.tiny) {
        ("flow", false) => DatasetId::all()
            .into_iter()
            .flat_map(|d| [MlpC, MlpR, SvmC, SvmR].map(|k| (d, k)))
            .filter(|&(d, k)| !(d == Pendigits && matches!(k, MlpR | SvmR)))
            .collect(),
        ("flow", true) => vec![(Cardio, SvmR), (RedWine, SvmR), (WhiteWine, SvmR)],
        ("search", false) => vec![(Cardio, MlpC), (Pendigits, MlpC)],
        ("search", true) => vec![(RedWine, MlpC), (RedWine, SvmC)],
        (_, false) => vec![(Cardio, MlpC), (Pendigits, MlpC), (RedWine, SvmC), (WhiteWine, SvmC)],
        (_, true) => vec![(Cardio, MlpC), (Pendigits, SvmR), (RedWine, SvmC), (WhiteWine, SvmR)],
    }
}

/// The synthetic-data configuration: the catalog's pinned default, or
/// a tenth of it for `--tiny`.
fn synth_config(opts: &Opts) -> SynthConfig {
    if opts.tiny {
        SynthConfig { size_factor: 0.1, ..SynthConfig::default() }
    } else {
        SynthConfig::default()
    }
}

/// Trains the entries sequentially; returns them with the mean
/// training wall time per entry in ms.
pub fn train_entries(opts: &Opts, pairs: &[(DatasetId, ModelKind)]) -> (Vec<Entry>, f64) {
    let cfg = synth_config(opts);
    let t = Instant::now();
    let entries: Vec<Entry> = pairs.iter().map(|&(d, k)| train_entry(d, k, &cfg)).collect();
    (entries, t.elapsed().as_secs_f64() * 1e3 / pairs.len().max(1) as f64)
}

/// Exact counts of a traced pass: these repeat bit for bit for a seed
/// (the delta/full fold split only at one evaluator thread).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub gates: u64,
    pub designs_explored: u64,
    pub designs_unique: u64,
    pub cache_hits: u64,
    pub delta_folds: u64,
    pub full_folds: u64,
    pub delta_nets: u64,
}

impl Counts {
    /// Adds one exploration's counters.
    pub fn add_search(&mut self, s: &SearchStats) {
        self.designs_explored += s.asked as u64;
        self.designs_unique += s.evaluated as u64;
        self.cache_hits += s.cache_hits as u64;
        self.delta_folds += s.telemetry.delta.delta_folds;
        self.full_folds += s.telemetry.delta.full_folds;
        self.delta_nets += s.telemetry.delta.delta_nets;
    }

    /// Records the counts and the ratios derived from them.
    pub fn record(&self, rep: &mut Report) {
        let folds = self.delta_folds + self.full_folds;
        rep.metric("count.gates", self.gates as f64);
        rep.metric("count.designs_explored", self.designs_explored as f64);
        rep.metric("count.designs_unique", self.designs_unique as f64);
        rep.metric("count.fresh_evals", folds as f64);
        rep.metric("count.delta_folds", self.delta_folds as f64);
        rep.metric("count.cache_hits", self.cache_hits as f64);
        rep.metric("core.delta_hit_frac", ratio(self.delta_folds as f64, folds as f64));
        rep.metric("core.delta_mean_nets", ratio(self.delta_nets as f64, self.delta_folds as f64));
        rep.metric(
            "core.cache_hit_frac",
            ratio(self.cache_hits as f64, self.designs_explored as f64),
        );
    }
}

/// Per-layer stage times, one value per traced pass (round, fabric
/// exploration) and metric; the median over passes is reported.
#[derive(Debug, Default)]
pub struct Stages(BTreeMap<&'static str, Vec<f64>>);

impl Stages {
    /// Adds one traced pass: the process CPU of the spans recorded
    /// during it and the candidate-phase times (`Evaluator::telemetry()`,
    /// summed over worker threads) of the explorations it ran.
    pub fn push(
        &mut self,
        spans: &BTreeMap<&'static str, SpanTotal>,
        explorations: &[SearchStats],
    ) {
        let mut pass: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, t) in spans {
            if let Some(metric) = span_metric(name) {
                *pass.entry(metric).or_default() += t.cpu_ns as f64 / 1e6;
            }
        }
        for p in explorations.iter().flat_map(|s| &s.telemetry.phases.phases) {
            if let Some(metric) = phase_metric(p.name) {
                *pass.entry(metric).or_default() += p.ns as f64 / 1e6;
            }
        }
        for (metric, ms) in pass {
            self.0.entry(metric).or_default().push(ms);
        }
    }

    /// Reports each stage's median over the traced passes.
    pub fn record(&self, rep: &mut Report) {
        for (metric, values) in &self.0 {
            rep.metric(*metric, median(values));
        }
    }
}

/// The per-layer metric a span's time goes to; spans that only give
/// the trace its structure (a study, a submit) map to none.
fn span_metric(span: &str) -> Option<&'static str> {
    Some(match span {
        "bespoke.generate" => "bespoke.generate_ms",
        "synth.optimize" => "synth.optimize_ms",
        "sim.compile" => "sim.compile_ms",
        "core.measure" => "core.measure_ms",
        "core.mult_cache" => "core.mult_cache_ms",
        "core.coeff_approx" => "core.coeff_approx_ms",
        "core.prune_analyze" => "core.prune_analyze_ms",
        "core.explore" => "core.explore_ms",
        "core.ask.grid" => "core.ask_ms.grid",
        "core.ask.nsga2" => "core.ask_ms.nsga2",
        "core.tell.nsga2" => "core.tell_ms.nsga2",
        "core.eval_batch" => "core.eval_batch_ms",
        _ => return None,
    })
}

/// The per-layer metric of each candidate phase in `EVAL_PHASES`.
fn phase_metric(phase: &str) -> Option<&'static str> {
    Some(match phase {
        "resolve" => "core.resolve_ms",
        "fold" => "netlist.fold_ms",
        "masked-sim" => "sim.masked_ms",
        "score" => "core.score_ms",
        "re-time" => "sta.retime_ms",
        _ => return None,
    })
}

/// Records the host diagnostics every result carries.
fn diagnostics(rep: &mut Report, opts: &Opts, ticks: &sys::HostTicks) {
    rep.metric("host.nproc", sys::nproc() as f64);
    rep.metric("host.steal_frac", sys::HostTicks::now().steal_frac_since(ticks));
    if rep.get("bench.eval_threads").is_none() {
        rep.metric("bench.eval_threads", opts.threads as f64);
    }
    rep.metric("peak_rss_mb", sys::peak_rss_mb());
}

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}");
            std::process::exit(2);
        }
    };
    for var in CLEARED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("layerbench: clearing {var} for this run");
            // No other thread exists yet, so no reader can race this.
            std::env::remove_var(var);
        }
    }
    let ticks = sys::HostTicks::now();
    let setup = Setup::new(start);
    let Outcome { mut report, tracer } = match opts.workload.as_str() {
        "flow" => flow::run(&opts, setup),
        "search" => search::run(&opts, setup),
        _ => serve::run(&opts, setup),
    };
    diagnostics(&mut report, &opts, &ticks);
    eprintln!(
        "layerbench: workload={} seed={} trace={} nproc={} cpu=\"{}\" eval_threads={} \
         serve_workers={} steal_frac={:.4} wall={:.2}s",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        sys::nproc(),
        sys::cpu_model(),
        report.get("bench.eval_threads").unwrap_or(0.0),
        report.get("bench.serve_workers").unwrap_or(0.0),
        report.get("host.steal_frac").unwrap_or(0.0),
        start.elapsed().as_secs_f64()
    );
    if opts.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_trace/{}-seed{}.jsonl",
            opts.workload, opts.seed
        ));
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"cpu\": \"{}\", \
             \"eval_threads\": {}}}",
            opts.workload,
            opts.seed,
            sys::nproc(),
            sys::cpu_model().replace('"', "'"),
            report.get("bench.eval_threads").unwrap_or(0.0)
        );
        if let Err(e) = tracer.write_jsonl(&path, &header) {
            eprintln!("layerbench: could not write {}: {e}", path.display());
        }
        let names = per_layer();
        let names: Vec<(&str, &'static str)> =
            names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        report.select(&names);
    } else {
        report.select(END_TO_END);
    }
    println!("{}", report.to_json());
}
