//! End-to-end CAFQA workload benchmark.
//!
//! One command runs one workload for a fixed measuring time, checks that
//! every output is correct, prints every end-to-end metric by name with
//! its unit, and ends with one JSON line:
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload h2o-sweep --seed 3 --seconds 30 --trace 0
//! ```
//!
//! Workloads (inputs are generated from `--seed`; the library receives
//! only the generated inputs):
//!
//! - `h2o-sweep` — H2O singlet points (12 qubits, FCI reference) at the
//!   `fig10_h2o --quick` search budget, each followed by a `k_max = 3`
//!   Clifford+T refinement seeded from the widened Clifford winner.
//! - `cr2-wide` — the 34-qubit Cr2 surrogate (H18 chain) at stretched
//!   spacings with the `fig12_cr2_surrogate --quick` options (windowed
//!   refits, screened polish).
//! - `serve-mixed` — rounds of mixed traffic through a fresh
//!   `CafqaServer` with default options, driven as a closed loop with a
//!   fixed in-flight window from one polling client thread.
//!
//! Every engine has one worker; the traced run's engine A/B compares it
//! with one worker per core. The molecular workloads run one point stream
//! per core, each on its own engine, so a run samples every core the host
//! lends this machine; `serve-mixed` drives one server.
//! `--workload all` runs the three in turn, each in its own process.
//!
//! The end-to-end timings read a CPU clock ([`Stopwatch`]), so time the
//! host hands this machine's cores to other guests does not count; the
//! wall-clock figures are printed alongside in the table.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs an
//! untraced pass for half the time, then repeats its operations with
//! spans around the calls into each layer's public functions, and
//! prints the per-layer metrics instead (plus the bit-identity and
//! coverage gates).
//! Seed 0 is the figure seed: the molecular workloads then walk the
//! figure binaries' bond grids and must reproduce their rows.

mod chem;
mod molecular;
mod search;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Metrics the JSON line carries on an untraced run, in order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_latency_p50_s", "s"),
    ("solves_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics the JSON line carries on a traced run. Layers a workload does
/// not run report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("chem.integrals_s", "s"),
    ("chem.scf_s", "s"),
    ("chem.active_space_s", "s"),
    ("chem.mapping_s", "s"),
    ("chem.exact_s", "s"),
    ("chem.terms", "count"),
    ("chem.scf_unconverged", "count"),
    ("search.bo_s", "s"),
    ("search.polish_s", "s"),
    ("search.bo_evals", "count"),
    ("search.polish_evals", "count"),
    ("search.batches", "count"),
    ("search.eval_s", "s"),
    ("search.surrogate_s", "s"),
    ("search.useful_frac", "ratio"),
    ("search.seeks_backward", "count"),
    ("search.seeks_restored", "count"),
    ("clifford.eval_us", "us"),
    ("clifford.polish_eval_us", "us"),
    ("clifford.term_evals_per_s", "1/s"),
    ("kt.search_s", "s"),
    ("kt.evals", "count"),
    ("kt.polish_evals", "count"),
    ("kt.t_count", "count"),
    ("kt.screened_classes", "count"),
    ("ising.classify_s", "s"),
    ("ising.solve_s", "s"),
    ("ising.routed", "count"),
    ("engine.workers", "count"),
    ("engine.speedup", "ratio"),
    ("serve.slices", "count"),
    ("serve.slices_per_job", "ratio"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.warm_starts", "count"),
    ("serve.inflight_dup_misses", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.solo_s", "s"),
    ("serve.overhead_frac", "ratio"),
    ("trace.ops", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Layer self-times compared when naming a traced run's largest layer.
/// `serve.replay_s` is the served time beyond the solo replays (the
/// slicing and resume overhead).
const LAYER_TIMES: &[&str] = &[
    "chem.integrals_s",
    "chem.scf_s",
    "chem.active_space_s",
    "chem.mapping_s",
    "chem.exact_s",
    "search.eval_s",
    "search.surrogate_s",
    "search.polish_s",
    "kt.search_s",
    "ising.classify_s",
    "ising.solve_s",
    "serve.replay_s",
];

/// The share of a traced pass's wall time the layer spans must cover.
const COVERAGE_MIN: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    H2oSweep,
    Cr2Wide,
    ServeMixed,
}

impl Workload {
    /// The layer predicted to dominate the workload's traced wall time.
    fn predicted_layer(self) -> &'static str {
        match self {
            Workload::H2oSweep => "search.surrogate_s",
            Workload::Cr2Wide => "chem.mapping_s",
            Workload::ServeMixed => "serve.replay_s",
        }
    }

    const ALL: [(&'static str, Workload); 3] = [
        ("h2o-sweep", Workload::H2oSweep),
        ("cr2-wide", Workload::Cr2Wide),
        ("serve-mixed", Workload::ServeMixed),
    ];
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload_name: &'static str,
    workload: Workload,
    /// Workload seed; 0 is the figure seed.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: cafqa-e2e-bench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

/// `--workload all`: every workload in turn with the same flags, each in
/// its own process so that each reports its own peak memory.
fn run_all(argv: &[String], name_at: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cafqa-e2e-bench: cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (name, _) in Workload::ALL {
        let mut args = argv.to_vec();
        args[name_at] = name.to_string();
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("cafqa-e2e-bench: cannot run {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let found = Workload::ALL.iter().find(|(n, _)| n == name);
                workload = Some(*found.ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }
    let (workload_name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args { workload_name, workload, seed, seconds, trace })
}

impl Args {
    /// Measuring time of the untraced pass. A traced run gives half of
    /// its time to the untraced pass and spends the rest repeating that
    /// pass's operations with spans, so it takes about as long as an
    /// untraced run.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (points, jobs) attempted in the untraced pass.
    pub attempted: u64,
    /// Operations that failed, were rejected or were cancelled.
    pub failed: u64,
    /// Correctness-gate violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// The end-to-end table: name, value (`None` when the workload has
    /// no such quantity), unit.
    pub table: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Per-layer metrics of the traced pass, keyed by [`PER_LAYER`] name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form lines printed above the table.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a gate: `ok == false` adds the violation message.
    pub fn gate(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(message());
        }
    }

    /// Adds an end-to-end table row.
    pub fn row(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        self.table.push((name, value, unit));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Records the traced pass's bookkeeping: operations, traced and
    /// untraced wall time of the same operations, the tracing overhead,
    /// and the share of the traced wall its layer spans cover (gated).
    pub fn traced_pass(&mut self, ops: usize, wall_s: f64, untraced_wall_s: f64, spans_s: f64) {
        let coverage = spans_s / wall_s;
        self.gate((COVERAGE_MIN..=1.0 + 1e-9).contains(&coverage), || {
            format!("layer spans cover {:.1}% of the traced wall time", 100.0 * coverage)
        });
        self.layer("trace.ops", ops as f64);
        self.layer("trace.wall_s", wall_s);
        self.layer("trace.untraced_wall_s", untraced_wall_s);
        self.layer("trace.overhead_s", wall_s - untraced_wall_s);
        self.layer("trace.coverage", coverage);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.table.iter().find(|(n, _, _)| *n == name).and_then(|(_, v, _)| *v)
    }
}

/// A small deterministic generator (SplitMix64) for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of a sample (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample (`None` when empty).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Mean of a sample (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// A CPU clock. On a shared virtual machine the wall clock also runs
/// while the host gives this machine's cores to other guests (steal
/// time); the CPU clocks leave that time out.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// CPU time of every thread of this process.
    Process,
    /// CPU time of the calling thread.
    Thread,
}

impl CpuClock {
    /// The clock's reading in seconds.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn seconds(self) -> f64 {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
        let id = match self {
            CpuClock::Process => 2,
            CpuClock::Thread => 3,
        };
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) for the duration of the call.
        let rc = unsafe { clock_gettime(id, &mut ts) };
        assert_eq!(rc, 0, "the {self:?} CPU clock is unavailable");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// Reads the wall clock and a CPU clock together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    clock: CpuClock,
    cpu: f64,
}

impl Stopwatch {
    /// Starts the wall clock and `clock`.
    pub fn start(clock: CpuClock) -> Self {
        Stopwatch { wall: Instant::now(), clock, cpu: clock.seconds() }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds since the start.
    pub fn cpu_s(&self) -> f64 {
        self.clock.seconds() - self.cpu
    }
}

/// Every core the host offers: the point streams of the molecular
/// workloads and the width of the engine A/B partner.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine A/B partner of the workloads' one-worker engines.
pub fn ab_engine() -> cafqa_core::ExecEngine {
    cafqa_core::ExecEngine::new(nproc())
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_line(correct: bool, report: &Report, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = argv.iter().position(|a| a == "--workload") {
        if argv.get(flag + 1).is_some_and(|name| name == "all") {
            return run_all(&argv, flag + 1);
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cafqa-e2e-bench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload {
        Workload::H2oSweep => molecular::run(molecular::Molecular::H2oSweep, &args),
        Workload::Cr2Wide => molecular::run(molecular::Molecular::Cr2Wide, &args),
        Workload::ServeMixed => serve::run(&args),
    };
    report.row("peak_rss_mb", peak_rss_mb(), "MB");
    report.gate(report.attempted > 0, || "no operation was attempted".into());

    println!(
        "== e2e {} | seed {} | {} s | trace {} | {} host core(s) ==",
        args.workload_name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for note in &report.notes {
        println!("{note}");
    }
    println!("-- end-to-end --");
    for (name, value, unit) in &report.table {
        match value {
            Some(v) => println!("{name:<26} {v:>14.6} {unit}"),
            None => println!("{name:<26} {:>14} {unit}", "n/a"),
        }
    }
    if args.trace {
        println!("-- per layer (traced pass) --");
        for (name, unit) in PER_LAYER {
            let v = report.layers.get(name).copied().unwrap_or(0.0);
            println!("{name:<26} {v:>14.6} {unit}");
        }
        let layer = |name: &str| report.layers.get(name).copied().unwrap_or(0.0);
        let replay = layer("serve.solo_s") * layer("serve.overhead_frac");
        let (largest, secs) = LAYER_TIMES
            .iter()
            .map(|&name| (name, if name == "serve.replay_s" { replay } else { layer(name) }))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("the layer list is not empty");
        println!(
            "largest layer: {largest} ({secs:.3} s of {:.3} s traced wall); predicted: {}",
            layer("trace.wall_s"),
            args.workload.predicted_layer()
        );
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, report.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let mut out = Vec::new();
        for &(name, unit) in END_TO_END {
            match report.value(name) {
                Some(v) => out.push((name, v, unit)),
                None => {
                    report.violations.push(format!("end-to-end metric {name} was not measured"))
                }
            }
        }
        out
    };
    for (name, value, _) in &metrics {
        report.gate(value.is_finite(), || format!("metric {name} is not finite ({value})"));
    }
    let metrics: Vec<(&str, f64, &str)> =
        metrics.into_iter().map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u)).collect();
    let correct = report.violations.is_empty();
    for violation in &report.violations {
        eprintln!("GATE FAILED: {violation}");
    }
    println!("correctness gates: {}", if correct { "all passed" } else { "FAILED" });
    println!("{}", json_line(correct, &report, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
