//! Property tests for the mergeable quantile sketch behind the serving
//! layer (`tero_stats::QuantileSketch`).
//!
//! The serving determinism contract rests on three sketch properties:
//! merging is commutative and associative *in effect* (identical wire
//! bytes, whatever the merge tree — this is what makes the committed
//! sketches worker-count- and window-schedule-invariant), served
//! quantiles sit within the documented relative-error bound of the exact
//! nearest-rank values, and empty distributions answer `None` rather
//! than inventing a number. Under all three sits the wire form itself:
//! the committed bytes are a contract (`tero_stats::sketch`, *Wire
//! form*), pinned here as literals so that it does not rest on a
//! test-only reference implementation alone.

use proptest::prelude::*;
use tero::stats::{percentile_nearest_rank, QuantileSketch, DEFAULT_ALPHA};

fn sketch(values: &[f64]) -> QuantileSketch {
    QuantileSketch::from_values(values)
}

/// Integer-millisecond latencies as f64 — the sketch's real input
/// domain: the pipeline inserts OCR-extracted integer values, whose f64
/// sums are exact (< 2^53), so byte-identity holds for the *wire* bytes
/// including the running sum. Arbitrary reals would break the last ulp
/// of the sum under re-ordered addition; the bucket counts never move.
fn ms(values: &[u16]) -> Vec<f64> {
    values.iter().map(|&v| f64::from(v)).collect()
}

proptest! {
    // ---- merge algebra ----------------------------------------------------

    #[test]
    fn merge_is_commutative_in_effect(
        a in prop::collection::vec(1u16..800, 0..120),
        b in prop::collection::vec(1u16..800, 0..120),
    ) {
        let (a, b) = (ms(&a), ms(&b));
        let mut ab = sketch(&a);
        ab.merge(&sketch(&b));
        let mut ba = sketch(&b);
        ba.merge(&sketch(&a));
        prop_assert_eq!(ab.encode(), ba.encode(), "merge order changed the wire bytes");
    }

    #[test]
    fn merge_is_associative_in_effect(
        a in prop::collection::vec(1u16..800, 0..80),
        b in prop::collection::vec(1u16..800, 0..80),
        c in prop::collection::vec(1u16..800, 0..80),
    ) {
        let (a, b, c) = (ms(&a), ms(&b), ms(&c));
        // (a ∪ b) ∪ c
        let mut left = sketch(&a);
        left.merge(&sketch(&b));
        left.merge(&sketch(&c));
        // a ∪ (b ∪ c)
        let mut bc = sketch(&b);
        bc.merge(&sketch(&c));
        let mut right = sketch(&a);
        right.merge(&bc);
        prop_assert_eq!(left.encode(), right.encode(), "merge tree changed the wire bytes");

        // And both equal inserting everything into one sketch — a merge
        // of partial views is indistinguishable from the unpartitioned
        // stream, the property window commits rely on.
        let all: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(left.encode(), sketch(&all).encode());
    }

    #[test]
    fn insert_order_is_irrelevant(
        values in prop::collection::vec(1u16..800, 0..150),
    ) {
        let values = ms(&values);
        let forward = sketch(&values);
        let reversed: Vec<f64> = values.iter().rev().copied().collect();
        prop_assert_eq!(forward.encode(), sketch(&reversed).encode());
        // Round-trip stability: decode(encode(s)) re-encodes identically.
        let decoded = QuantileSketch::decode(&forward.encode()).unwrap();
        prop_assert_eq!(forward.encode(), decoded.encode());
    }

    // ---- accuracy ---------------------------------------------------------

    #[test]
    fn quantiles_within_documented_bound(
        values in prop::collection::vec(0.5f64..800.0, 1..200),
        p in 0.0f64..100.0,
    ) {
        let s = sketch(&values);
        let served = s.quantile(p).unwrap();
        let exact = percentile_nearest_rank(&values, p).unwrap();
        let bound = s.relative_error_bound();
        prop_assert!(
            (served - exact).abs() <= bound * exact + 1e-9,
            "p{}: served {} vs exact {} exceeds relative bound {}",
            p, served, exact, bound
        );
        prop_assert!((DEFAULT_ALPHA - 0.01).abs() < 1e-12, "bound documented for α = 0.01");
    }

    #[test]
    fn cdf_is_a_distribution_function(
        values in prop::collection::vec(0.5f64..800.0, 1..150),
        x in 0.0f64..900.0,
        y in 0.0f64..900.0,
    ) {
        let s = sketch(&values);
        let fx = s.cdf(x).unwrap();
        let fy = s.cdf(y).unwrap();
        prop_assert!((0.0..=1.0).contains(&fx));
        if x <= y {
            prop_assert!(fx <= fy + 1e-12, "CDF must be monotone");
        }
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!((s.cdf(max + 1.0).unwrap() - 1.0).abs() < 1e-12, "everything below max+1");
    }

    // ---- emptiness --------------------------------------------------------

    #[test]
    fn empty_sketches_answer_none(p in 0.0f64..100.0) {
        let empty = QuantileSketch::new(DEFAULT_ALPHA);
        prop_assert!(empty.is_empty());
        prop_assert_eq!(empty.quantile(p), None);
        prop_assert_eq!(empty.cdf(p), None);
        prop_assert_eq!(empty.boxplot(), None);
        prop_assert_eq!(empty.wasserstein(&empty), None);
        prop_assert!(empty.histogram().is_empty());
        // Merging empties is the identity on the wire.
        let mut merged = QuantileSketch::new(DEFAULT_ALPHA);
        merged.merge(&empty);
        prop_assert_eq!(merged.encode(), empty.encode());
    }
}

// ---- the wire form ------------------------------------------------------

/// One pinned sketch: how to build it, and its exact wire string.
struct Golden {
    what: &'static str,
    alpha: f64,
    /// `(value, copies)` for `insert_n`, in order.
    inserts: &'static [(f64, u64)],
    wire: &'static str,
}

/// The strings were printed by the serde-tree codec this repository
/// shipped before the single-pass one; a change to any of them is a
/// change to every committed sketch, snapshot and digest.
const GOLDEN_WIRE: [Golden; 7] = [
    Golden {
        what: "empty",
        alpha: 0.01,
        inserts: &[],
        wire: r#"{"alpha":0.01,"zero":0,"buckets":[],"sum":0.0,"min":null,"max":null}"#,
    },
    Golden {
        what: "zero bucket only",
        alpha: 0.01,
        inserts: &[(0.0, 3)],
        wire: r#"{"alpha":0.01,"zero":3,"buckets":[],"sum":0.0,"min":0.0,"max":0.0}"#,
    },
    Golden {
        what: "single value",
        alpha: 0.01,
        inserts: &[(42.0, 1)],
        wire: r#"{"alpha":0.01,"zero":0,"buckets":[[187,1]],"sum":42.0,"min":42.0,"max":42.0}"#,
    },
    Golden {
        what: "below one (negative index) and exactly one (index 0)",
        alpha: 0.01,
        inserts: &[(0.25, 2), (1.0, 1)],
        wire: r#"{"alpha":0.01,"zero":0,"buckets":[[-69,2],[0,1]],"sum":1.5,"min":0.25,"max":1.0}"#,
    },
    Golden {
        what: "negative value: zero bucket, negative sum and min",
        alpha: 0.01,
        inserts: &[(-7.5, 2), (10.0, 1)],
        wire: r#"{"alpha":0.01,"zero":2,"buckets":[[116,1]],"sum":-5.0,"min":-7.5,"max":10.0}"#,
    },
    Golden {
        what: "another alpha, a fractional bound",
        alpha: 0.05,
        inserts: &[(100.0, 4), (250.5, 1)],
        wire: r#"{"alpha":0.05,"zero":0,"buckets":[[47,4],[56,1]],"sum":650.5,"min":100.0,"max":250.5}"#,
    },
    Golden {
        what: "an integral sum past 1e15 has no `.0`",
        alpha: 0.01,
        inserts: &[(123_456_789.0, 8_200_000)],
        wire: r#"{"alpha":0.01,"zero":0,"buckets":[[932,8200000]],"sum":1012345669800000,"min":123456789.0,"max":123456789.0}"#,
    },
];

/// 300 values over 37 levels, zero included: the shape the pipeline
/// commits (a few dozen buckets of small counts).
const GOLDEN_RAMP: &str = r#"{"alpha":0.01,"zero":9,"buckets":[[21,9],[55,9],[76,9],[90,8],[101,8],[110,8],[118,8],[125,8],[131,8],[136,8],[141,8],[145,8],[149,8],[153,8],[156,8],[159,8],[162,8],[165,8],[168,8],[171,8],[173,8],[175,8],[178,8],[180,8],[182,8],[184,8],[186,8],[187,8],[189,8],[191,8],[192,8],[194,8],[196,8],[197,8],[199,8],[200,8]],"sum":8001.0,"min":0.0,"max":54.0}"#;

#[test]
fn wire_bytes_are_pinned() {
    let ramp: Vec<f64> = (0..300).map(|i| f64::from(i % 37) * 1.5).collect();
    let mut cases = vec![("ramp", sketch(&ramp), GOLDEN_RAMP)];
    for golden in GOLDEN_WIRE {
        let mut s = QuantileSketch::new(golden.alpha);
        for &(v, n) in golden.inserts {
            s.insert_n(v, n);
        }
        cases.push((golden.what, s, golden.wire));
    }
    for (what, s, wire) in cases {
        assert_eq!(s.encode(), wire, "{what}: encode");
        assert_eq!(QuantileSketch::decode(wire), Some(s), "{what}: decode");
    }
}
