//! The paper's numbers under test: experiments called in-process at their
//! paper arguments must print exactly `results/<name>.txt` (less its
//! `[wrote …]` line) and return exactly `results/<stem>.json`, and must
//! write no file. One test an experiment, so they run side by side.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::SystemTime;

/// Every file under `results/` with its modification time.
fn results_files(results: &Path) -> BTreeMap<String, SystemTime> {
    fs::read_dir(results)
        .expect("results/")
        .flatten()
        .map(|e| {
            let modified = e.metadata().and_then(|m| m.modified()).expect("mtime");
            (e.file_name().to_string_lossy().into_owned(), modified)
        })
        .collect()
}

fn matches_results(name: &str, stem: Option<&str>) {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let before = results_files(&results);
    let (outcome, out) = tero_bench::run(&[name]).expect("runs at its defaults");
    assert_eq!(out, None);
    assert_eq!(
        results_files(&results),
        before,
        "{name} wrote under results/"
    );

    let committed = fs::read_to_string(results.join(format!("{name}.txt"))).expect("txt");
    let expected: String = committed
        .lines()
        .filter(|l| !l.starts_with("[wrote "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        outcome.text == expected,
        "{name} text differs from results/{name}.txt:\n{}",
        outcome.text
    );

    match (stem, outcome.json) {
        (None, None) => {}
        (Some(stem), Some((got_stem, json))) => {
            assert_eq!(got_stem, stem);
            let committed = fs::read_to_string(results.join(format!("{stem}.json"))).expect("json");
            assert!(
                json == committed,
                "{name} JSON differs from results/{stem}.json"
            );
        }
        (want, got) => panic!("{name}: JSON stem {want:?}, got {:?}", got.map(|j| j.0)),
    }
}

#[test]
fn tab06_07_servers_matches_results() {
    matches_results("tab06_07_servers", None);
}

#[test]
fn fig06_ocr_examples_matches_results() {
    matches_results("fig06_ocr_examples", None);
}

#[test]
fn fig13_interarrival_matches_results() {
    matches_results("fig13_interarrival", Some("fig13_interarrival"));
}

#[test]
fn fig08_unevenness_matches_results() {
    matches_results("fig08_unevenness", Some("fig08_unevenness"));
}

// ---- The command line fails loudly ---------------------------------------

fn usage_error(args: &[&str]) -> String {
    match tero_bench::run(args) {
        Ok(_) => panic!("{args:?} ran"),
        Err(usage) => usage,
    }
}

#[test]
fn an_unknown_experiment_is_refused() {
    let usage = usage_error(&["fig99_nothing"]);
    assert!(
        usage.contains("unknown experiment 'fig99_nothing'"),
        "{usage}"
    );
    assert!(usage.contains(" fig13_interarrival "), "{usage}");
    usage_error(&[]);
}

#[test]
fn an_unknown_flag_is_refused() {
    let usage = usage_error(&["fig13_interarrival", "--bogus", "1"]);
    assert!(usage.contains("takes no flag '--bogus'"), "{usage}");
    assert!(
        usage.ends_with("\nusage: experiments fig13_interarrival [--n 80] [--out dir]"),
        "{usage}"
    );
}

#[test]
fn a_flag_of_another_experiment_is_refused() {
    // `--days` and `--per` are other experiments' flags, not fig13's.
    let usage = usage_error(&["fig13_interarrival", "--days", "99", "--bogus"]);
    assert!(usage.contains("takes no flag '--days'"), "{usage}");
    let usage = usage_error(&["fig13_interarrival", "--per", "60"]);
    assert!(usage.contains("takes no flag '--per'"), "{usage}");
    let usage = usage_error(&["tab06_07_servers", "--scale", "1"]);
    assert!(usage.contains("takes no flag '--scale'"), "{usage}");
}

#[test]
fn a_missing_or_unparsable_value_is_refused() {
    let usage = usage_error(&["fig13_interarrival", "--n", "8O"]);
    assert!(usage.contains("--n 8O: not a valid value"), "{usage}");
    for bad in [&["--n"][..], &["--n", "-5"], &["--n", "80.5"], &["--out"]] {
        let args: Vec<&str> = ["fig13_interarrival"].iter().chain(bad).copied().collect();
        usage_error(&args);
    }
    let usage = usage_error(&["fig04_gaming_vs_network", "--scale", "NaN"]);
    assert!(usage.contains("--scale NaN: not a valid value"), "{usage}");
}

#[test]
fn flags_and_out_reach_the_experiment() {
    let (outcome, out) =
        tero_bench::run(&["fig07_continents", "--n", "10", "--out", "x"]).expect("runs");
    assert_eq!(out.as_deref(), Some(Path::new("x")));
    let (stem, json) = outcome.json.expect("fig07 has JSON");
    assert_eq!(stem, "fig07_continents");
    assert!(outcome.text.contains("\nshape check:"), "{}", outcome.text);
    // Ten streamers sampled: every continent's share is a multiple of 10 %.
    let value: serde_json::Value = serde_json::from_str(&json).expect("JSON");
    for i in 0..6 {
        let pct = value[i]["tero_pct"].as_f64().expect("tero_pct");
        assert_eq!(pct % 10.0, 0.0, "{json}");
    }
}
