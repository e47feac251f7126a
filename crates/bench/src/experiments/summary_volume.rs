//! §5.1 — basic data properties: volume and coverage of one deployment.
//!
//! The paper's two-year deployment processed 205 M thumbnails into 64.6 M
//! measurements, retained 58.03 M after anomaly filtering (89.8 %), across
//! 150 k users from 195 countries and 3.9 M streams. This experiment
//! reports the same funnel for a simulated deployment (scaled down) plus
//! coverage counts: locations with enough data for a distribution.
//!
//! It also prints the run's diagnostics to stderr, not to its text: the
//! metrics snapshot (text and JSON), the ledger reconciliation and the
//! flight recorder's last 48 trace records.

use crate::{header, Args, Outcome, Text};
use serde::Serialize;
use tero_core::pipeline::{ExtractionMode, Tero};
use tero_world::{World, WorldConfig};

#[derive(Serialize)]
struct Output {
    thumbnails: u64,
    measurements: u64,
    retained: usize,
    retained_pct: f64,
    users_seen: usize,
    users_located: usize,
    located_pct: f64,
    streams: usize,
    countries: usize,
    distributions_published: usize,
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut text = Text::default();
    let n = args.count("--n");
    let days = args.count("--days") as u64;
    header(&mut text, "§5.1: volume and coverage");

    let mut world = World::build(WorldConfig {
        seed: 51,
        n_streamers: n,
        days,
        ..WorldConfig::default()
    });
    let tero = Tero {
        mode: ExtractionMode::Calibrated,
        ..Tero::default()
    };
    // Experiments pay the (small) timing cost so the printed snapshot
    // includes stage latencies; production-style runs leave it off.
    tero.obs.set_timing(true);
    // Record the run in flight-recorder mode: the ring keeps only the most
    // recent spans/events, so the post-run dump stays readable at any
    // world size while still showing the tail of the pipeline.
    tero.trace.set_enabled(true);
    tero.trace.set_flight_recorder(Some(48));
    let report = tero.run(&mut world);

    let retained = report.retained_measurements();
    let streams: usize = report.streams.values().map(|s| s.len()).sum();
    let mut countries: Vec<String> = report
        .locations
        .values()
        .map(|(l, _)| l.country.clone())
        .collect();
    countries.sort();
    countries.dedup();

    let out = Output {
        thumbnails: report.thumbnails,
        measurements: report.extracted,
        retained,
        retained_pct: 100.0 * retained as f64 / report.extracted.max(1) as f64,
        users_seen: report.streamers_seen,
        users_located: report.locations.len(),
        located_pct: 100.0 * report.locations.len() as f64 / report.streamers_seen.max(1) as f64,
        streams,
        countries: countries.len(),
        distributions_published: report.distributions.len(),
    };

    writeln!(text);
    writeln!(
        text,
        "volume funnel (paper, at its scale: 205 M → 64.6 M → 58.03 M):"
    );
    writeln!(text, "  thumbnails processed:   {}", out.thumbnails);
    writeln!(text, "  measurements extracted: {}", out.measurements);
    writeln!(
        text,
        "  retained after anomaly filtering: {} ({:.1} %; paper ~89.8 %)",
        out.retained, out.retained_pct
    );
    writeln!(text);
    writeln!(text, "coverage:");
    writeln!(
        text,
        "  users located: {} of {} seen ({:.1} %; paper 2.77 % — our synthetic",
        out.users_located, out.users_seen, out.located_pct
    );
    writeln!(
        text,
        "  world is profile-denser by design, see EXPERIMENTS.md)"
    );
    writeln!(text, "  streams: {}", out.streams);
    writeln!(text, "  countries covered: {}", out.countries);
    writeln!(
        text,
        "  distributions published: {}",
        out.distributions_published
    );

    // ---- Pipeline metrics snapshot (stderr: diagnostics, not the paper) --
    let snap = tero.metrics_snapshot();
    eprintln!();
    eprintln!("pipeline metrics snapshot:");
    eprintln!("{}", snap.render_text());
    eprintln!("metrics json:");
    eprintln!("{}", snap.to_json());

    // ---- Provenance + flight recorder ----------------------------------
    // The ledger proves the funnel conserves samples: every ingested
    // thumbnail is either published or carries a typed drop reason, and
    // the totals must equal the `pipeline.funnel.*` counters above.
    eprintln!();
    match tero.trace.ledger().reconcile(&tero.obs) {
        Ok(summary) => {
            eprintln!("sample provenance (ledger, reconciled against counters):");
            eprint!("{}", summary.render_text());
        }
        Err(err) => eprintln!("provenance ledger DISAGREES with counters: {err}"),
    }
    eprintln!();
    eprintln!("flight recorder (last 48 trace records):");
    eprint!("{}", tero.trace.dump());

    Outcome::with_json(text, "summary_volume", &out)
}
