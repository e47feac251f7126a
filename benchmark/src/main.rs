//! The tero benchmark harness: one command, six workloads, an end-to-end
//! record with a per-layer budget beside it. See `README.md`.
//!
//! * no `--workload`: run every workload, untraced then traced, each in a
//!   process of its own, and write `benchmark/results/BENCH_<date>.json`;
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: one
//!   workload in this process (the form the driver calls), ending with the
//!   one-line JSON result `BENCHMARK.json` describes;
//! * `--compare <old.json> <new.json>`: verdicts against the bounds.

mod codesize;
mod compare;
mod fixture;
mod layers;
mod pipeline;
mod record;
mod serve;
mod spans;
mod stats;
mod workloads;

use fixture::Fixture;
use layers::LayerCosts;
use record::{obj, print_rows, text, Outcome, Row};
use serde_json::Value;
use spans::Spans;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use tero::core::pipeline::ExtractionMode;
use workloads::{Kind, Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Repetitions per end-to-end row, at least.
const MIN_REPS: usize = 3;
/// Worker threads and clients never exceed this, whatever the machine.
const MAX_WORKERS: usize = 4;
/// Residual of the layer budget above which it is printed as a finding.
const RESIDUAL_BOUND: f64 = 0.25;
const RESULTS_DIR: &str = "benchmark/results";

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 4242,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => opts.compare = Some((value("two records")?, value("two records")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_WORKERS)
}

/// `--seconds`, else one second for a smoke run, else `run_seconds`.
fn run_seconds(opts: &Opts, benchmark: &Value) -> Result<f64, String> {
    match opts.seconds {
        Some(seconds) => Ok(seconds),
        None if opts.smoke => Ok(1.0),
        None => benchmark["run_seconds"]
            .as_f64()
            .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string()),
    }
}

fn benchmark_json() -> Result<Value, String> {
    let raw = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// Repeat `rep` until `seconds` have passed and at least [`MIN_REPS`] are
/// in, stopping early rather than starting a repetition that would overrun.
fn repeat<T>(seconds: f64, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let before = start.elapsed().as_secs_f64();
        reps.push(rep());
        let now = start.elapsed().as_secs_f64();
        if reps.len() >= MIN_REPS && now + (now - before) > seconds {
            return reps;
        }
    }
}

struct Setup {
    fx: Fixture,
    serve: Option<serve::ServeFixture>,
}

fn set_up(w: &Workload, smoke: bool, seed: u64, workers: usize, spans: &mut Spans) -> Setup {
    let size = w.size(smoke);
    spans
        .record("setup", |spans| {
            let fx = fixture::build(w, &size, seed, spans);
            let serve = match w.kind {
                Kind::Serve { cache } => {
                    Some(serve::setup(&fx, cache, size.queries, seed, workers))
                }
                _ => None,
            };
            Setup { fx, serve }
        })
        .0
}

fn common_facts(
    setup: &Setup,
    seed: u64,
    seconds: f64,
    workers: usize,
) -> Vec<(&'static str, Value)> {
    vec![
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("workers", Value::U64(workers as u64)),
        ("world_seed", Value::U64(setup.fx.config.seed)),
        ("world_draws", Value::U64(setup.fx.draws as u64)),
        ("world_samples", Value::U64(setup.fx.world_samples as u64)),
        ("thumbnails", Value::U64(setup.fx.reference.thumbnails)),
        ("reference_run_s", Value::F64(setup.fx.reference_s)),
    ]
}

/// The untraced run: set up several times, then measure for `seconds`
/// through the public facade only.
fn run_untraced(w: &'static Workload, smoke: bool, seed: u64, seconds: f64) -> Outcome {
    let workers = workers();
    let mut spans = Spans::new(w.name, false);
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous fixture first: peak memory is of one set-up.
        drop(setup.take());
        let start = Instant::now();
        setup = Some(set_up(w, smoke, seed, workers, &mut spans));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("SETUP_REPS is at least one");
    let mut facts = common_facts(&setup, seed, seconds, workers);
    let mut rows = vec![Row::median("setup_s", "s", &setup_s)];
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());

    match &setup.serve {
        None => {
            let reps = repeat(seconds, || {
                pipeline::one_rep(&setup.fx, w.kind, seed, workers, &mut spans)
            });
            for r in &reps {
                attempted += r.attempted;
                failed += r.failed();
                failures.extend(r.check.clone().err());
            }
            let (e2e, tail) = pipeline::e2e_rows(&reps);
            rows.extend(e2e);
            facts.push(("reps", Value::U64(reps.len() as u64)));
            facts.push((
                "windows_per_rep",
                Value::U64(reps[0].windows_ms.len() as u64),
            ));
            facts.push(("tail_percentile", Value::F64(tail)));
        }
        Some(sf) => {
            let mut floor_us = Vec::new();
            let reps = repeat(seconds, || serve::one_rep(sf, &mut floor_us));
            for r in &reps {
                attempted += r.attempted;
                failed += r.failed;
                failures.extend(r.failures.iter().cloned());
            }
            let (checked, off) = serve::accuracy(&setup.fx, &sf.engine, &mut failures);
            attempted += checked;
            failed += off;
            rows.extend(serve::e2e_rows(&reps, &floor_us));
            facts.push(("reps", Value::U64(reps.len() as u64)));
            facts.push(("queries_per_pass", Value::U64(sf.queries.len() as u64)));
            facts.push(("tail_percentile", Value::F64(99.0)));
            facts.push(("checksum", text(format!("{:#018x}", sf.reference.checksum))));
            facts.push(("percentiles_checked", Value::U64(checked)));
        }
    }
    rows.push(Row::one("peak_rss_mb", "MB", fixture::peak_rss_mb()));
    rows.push(Row::one(
        "fail_ratio",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
    ));
    failures.dedup();
    Outcome {
        workload: w.name,
        traced: false,
        rows,
        attempted: attempted.max(1),
        failed,
        failures,
        facts,
    }
}

/// The layer budget of a pipeline workload: each layer's standalone cost
/// times the run's count of that layer's unit of work, as a share of the
/// run. Pooled stages (OCR, per-series analysis) are charged busy time
/// over `workers`; what is left over is the residual.
fn layer_budget(
    costs: &LayerCosts,
    fx: &Fixture,
    run_s: f64,
    windows: usize,
    workers: usize,
) -> Vec<Row> {
    let report = &fx.reference;
    let pooled = workers.max(1) as f64;
    let extract_s = match fx.mode {
        ExtractionMode::FullOcr => costs.extract_thumb_us * report.thumbnails as f64 / 1e6 / pooled,
        // Calibrated extraction has no public per-thumbnail entry point to
        // probe; its cost stays in the residual.
        ExtractionMode::Calibrated => 0.0,
    };
    let shares = [
        ("layer.share.download", costs.download_s),
        ("layer.share.extract", extract_s),
        (
            "layer.share.locate",
            costs.locate_us * report.streamers_seen as f64 / 1e6,
        ),
        (
            "layer.share.analysis",
            costs.series_us * report.streams.len() as f64 / 1e6 / pooled,
        ),
        (
            "layer.share.commit",
            costs.window_empty_us * windows as f64 / 1e6,
        ),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    let mut rows: Vec<Row> = shares
        .iter()
        .map(|(name, s)| Row::one(*name, "ratio", s / run_s))
        .collect();
    rows.push(Row::one(
        "layer.residual_share",
        "ratio",
        (run_s - attributed) / run_s,
    ));
    rows
}

/// The mesh's wire and fault counters, as the run's own registry holds
/// them. Returns `net.bytes` for the per-thumbnail ratio.
fn mesh_counter_rows(registry: &tero::obs::Registry, rows: &mut Vec<Row>) -> f64 {
    let snap = registry.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    for name in [
        "net.requests",
        "net.frames",
        "net.retries",
        "net.failovers",
        "chaos.injected.net_partition_drop",
        "chaos.injected.net_frame_drop",
        "chaos.injected.net_frame_delay",
        "chaos.injected.net_shard_kill",
    ] {
        rows.push(Row::one(name, "count", count(name)));
    }
    rows.push(Row::one("net.bytes", "bytes", count("net.bytes")));
    count("net.bytes")
}

/// The traced run: the same repetitions with the harness's spans on and
/// off (their ratio is the tracing overhead), then every layer probe.
fn run_traced(w: &'static Workload, smoke: bool, seed: u64, seconds: f64) -> Outcome {
    let workers = workers();
    let effort = if smoke { layers::SMOKE } else { layers::FULL };
    let mut spans = Spans::new(w.name, true);
    let setup = set_up(w, smoke, seed, workers, &mut spans);
    let fx = &setup.fx;
    let mut facts = common_facts(&setup, seed, seconds, workers);
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    let mut family_rows = Vec::new();
    let mut traced_run_s = None;

    if let Some(sf) = &setup.serve {
        family_rows = serve::traced_rows(sf, workers);
        attempted += 1;
    } else {
        // Pairs of repetitions, spans off and on in alternating order, for
        // half the budget.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while traced.is_empty() || start.elapsed().as_secs_f64() < seconds / 2.0 {
            let traced_first = traced.len() % 2 == 1;
            for enabled in [traced_first, !traced_first] {
                spans.set_enabled(enabled);
                let (rep, _) = spans.record("rep", |spans| {
                    pipeline::one_rep(fx, w.kind, seed, workers, spans)
                });
                attempted += rep.attempted;
                failed += rep.failed();
                failures.extend(rep.check.clone().err());
                if enabled { &mut traced } else { &mut plain }.push(rep);
            }
        }
        spans.set_enabled(true);
        // The best whole repetition of each kind: the spans are of one.
        let best = |reps: &[pipeline::Rep]| {
            Summary::of(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>()).min
        };
        let run_s = best(&traced);
        traced_run_s = Some(run_s);
        family_rows.push(Row::one(
            "trace.overhead_ratio",
            "ratio",
            run_s / best(&plain),
        ));
        facts.push(("traced_reps", Value::U64(traced.len() as u64)));
        facts.push(("traced_run_s", Value::F64(run_s)));
    }

    let cache = match w.kind {
        Kind::Serve { cache } => cache,
        _ => None,
    };
    let (mut rows, costs) = layers::standard(fx, seed, workers, effort, cache, &mut spans);
    rows.extend(family_rows);

    match (w.kind, traced_run_s) {
        (Kind::Pipeline { .. }, Some(run_s)) => {
            let windows = w.windows(&w.size(smoke)).map_or(0, |(_, timed)| timed + 1);
            rows.push(Row::one("pool.speedup_x", "x", fx.reference_s / run_s));
            let budget = layer_budget(&costs, fx, run_s, windows, workers);
            let residual = budget.last().map_or(0.0, |r| r.value);
            facts.push(("residual_bound", Value::F64(RESIDUAL_BOUND)));
            facts.push((
                "residual_within_bound",
                Value::Bool(residual.abs() <= RESIDUAL_BOUND),
            ));
            rows.extend(budget);
        }
        (
            Kind::Mesh {
                shards, windows, ..
            },
            Some(run_s),
        ) => {
            // One more sharded run for the wire counters, and one with a
            // single engine for the engine-scaling ratio.
            let cfg = |engines| pipeline::mesh_config(fx, engines, shards, windows, seed, workers);
            let (two, out) = pipeline::mesh_rep(fx, &cfg(2), &mut spans);
            let (one, _) = pipeline::mesh_rep(fx, &cfg(1), &mut spans);
            for rep in [&two, &one] {
                attempted += rep.attempted;
                failed += rep.failed();
                failures.extend(rep.check.clone().err());
            }
            let bytes = mesh_counter_rows(&out.net_registry, &mut rows);
            rows.push(Row::one(
                "net.bytes_per_thumb",
                "bytes",
                bytes / two.thumbnails.max(1) as f64,
            ));
            rows.push(Row::one("mesh.slowdown_x", "x", run_s / fx.reference_s));
            rows.push(Row::one(
                "mesh.engine_scaling_x",
                "x",
                one.run_s / two.run_s,
            ));
        }
        _ => {}
    }

    let trace_path = Path::new(RESULTS_DIR).join(format!("trace_{}.json", w.name));
    match std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&trace_path, spans.chrome_trace()))
    {
        Ok(()) => facts.push(("chrome_trace", text(trace_path.display().to_string()))),
        Err(e) => {
            failed += 1;
            failures.push(format!("{}: {e}", trace_path.display()));
        }
    }
    println!("-- {}: self time by span (ms)", w.name);
    for (name, us) in spans.self_time_us() {
        println!("{name:<34} {:>14.3}", us / 1e3);
    }
    failures.dedup();
    Outcome {
        workload: w.name,
        traced: true,
        rows,
        attempted: attempted.max(1),
        failed,
        failures,
        facts,
    }
}

/// One workload in this process, as the driver runs it.
fn run_one(opts: &Opts, name: &str) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let benchmark = benchmark_json()?;
    let seconds = run_seconds(opts, &benchmark)?;
    let outcome = if opts.trace {
        run_traced(w, opts.smoke, opts.seed, seconds)
    } else {
        run_untraced(w, opts.smoke, opts.seed, seconds)
    };
    let title = format!(
        "{} ({}, seed {}, {} s, W = {})",
        w.name,
        if outcome.traced {
            "traced: per-layer"
        } else {
            "untraced: end to end"
        },
        opts.seed,
        seconds,
        workers()
    );
    print_rows(&title, &outcome.rows);
    if let Some(residual) = record::row(&outcome.rows, "layer.residual_share") {
        let share = residual.value * 100.0;
        if share.abs() > RESIDUAL_BOUND * 100.0 {
            let finding = if share > 0.0 {
                format!("the layer budget leaves {share:.0} % of the run unexplained")
            } else {
                format!(
                    "the layers' standalone costs sum to {:.0} % more than the run",
                    -share
                )
            };
            println!(
                "FINDING {}: {finding} (bound {:.0} %)",
                w.name,
                RESIDUAL_BOUND * 100.0
            );
        }
    }
    for f in &outcome.failures {
        println!("FAILED {}: {f}", w.name);
    }
    let part = serde_json::to_string(&outcome.part_json()).map_err(|e| e.to_string())?;
    println!("RECORD {part}");
    println!("{}", outcome.contract_line(&benchmark)?);
    Ok(outcome.failed == 0)
}

fn civil_date(unix_secs: u64) -> String {
    // Days-to-civil (proleptic Gregorian), Howard Hinnant's algorithm.
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

fn commit_hash() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Run one workload in a child process; echo what it prints and return
/// its `RECORD` part and whether it exited clean.
fn run_child(
    opts: &Opts,
    w: &Workload,
    seconds: f64,
    trace: bool,
) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut part = None;
    let lines: Vec<&str> = stdout.lines().collect();
    // The last line is the driver's; the suite reads the RECORD line.
    for line in &lines[..lines.len().saturating_sub(1)] {
        match line.strip_prefix("RECORD ") {
            Some(json) => part = serde_json::from_str::<Value>(json).ok(),
            None => println!("{line}"),
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let part = part.ok_or_else(|| format!("{}: no record (exit {})", w.name, output.status))?;
    Ok((part, output.status.success()))
}

/// The one command: every workload, untraced then traced, one record.
fn run_suite(opts: &Opts) -> Result<bool, String> {
    let benchmark = benchmark_json()?;
    let seconds = run_seconds(opts, &benchmark)?;
    let mut clean = true;
    let mut parts = Vec::new();
    for w in &WORKLOADS {
        let (e2e, ok_e2e) = run_child(opts, w, seconds, false)?;
        let (layers, ok_layers) = run_child(opts, w, seconds, true)?;
        clean &= ok_e2e && ok_layers;
        parts.push((
            w.name.to_string(),
            obj(vec![
                ("why", text(w.why)),
                ("end_to_end", e2e),
                ("per_layer", layers),
            ]),
        ));
    }
    // Hot and cold serve the same store and stream: same folded answers.
    let checksum = |name: &str| {
        parts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p["end_to_end"]["facts"]["checksum"].clone())
    };
    if checksum("serve_hot") != checksum("serve_cold") {
        println!("FAILED serve_hot and serve_cold fold to different checksums");
        clean = false;
    }

    let code = codesize::count(Path::new("."));
    let code_rows = [
        ("code.lines", "lines", code.lines),
        ("code.crates", "count", code.crates),
        ("code.pub_items", "count", code.pub_items),
    ];
    println!("-- code size (src/ and crates/*/src)");
    for (name, unit, value) in code_rows {
        println!("{name:<34} {value:>14} {unit}");
    }
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let date = civil_date(now);
    let record = obj(vec![
        ("date", text(date.as_str())),
        ("commit", text(commit_hash())),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("workers", Value::U64(workers() as u64)),
        ("seed", Value::U64(opts.seed)),
        ("seconds", Value::F64(seconds)),
        ("setup_reps", Value::U64(SETUP_REPS as u64)),
        ("min_reps", Value::U64(MIN_REPS as u64)),
        ("smoke", Value::Bool(opts.smoke)),
        ("correct", Value::Bool(clean)),
        (
            "code",
            obj(code_rows
                .iter()
                .map(|&(name, _, value)| (name, Value::U64(value)))
                .collect()),
        ),
        ("workloads", Value::Object(parts)),
    ]);
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| Path::new(RESULTS_DIR).join(format!("BENCH_{date}.json")));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let pretty = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(&out, pretty + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(clean)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|opts| match (&opts.compare, &opts.workload) {
        (Some((old, new)), _) => compare::run(old, new),
        (None, Some(name)) => run_one(&opts, name),
        (None, None) => run_suite(&opts),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tero-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_are_civil() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_790_812_800), "2026-10-01");
    }

    #[test]
    fn repeat_makes_at_least_the_minimum() {
        let mut calls = 0;
        let reps = repeat(0.0, || calls += 1);
        assert_eq!(reps.len(), MIN_REPS);
    }
}
