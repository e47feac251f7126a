//! Per-stage latency budgets over recorded spans.
//!
//! The miscord-LATENCY.md method: declare a budget per
//! pipeline stage, measure what each stage actually costs, and render
//! one table that says *pass* or *OVER* per row — so a regression is a
//! diff in a committed table, not a hunch.
//!
//! Spans are aggregated by exact span name. Two clocks are supported:
//!
//! * [`BudgetSource::Ticks`] — logical-tick durations
//!   (`end_tick - start_tick`). Ticks advance once per record boundary,
//!   so a tick duration is a deterministic proxy for "work under this
//!   span" and the table is byte-identical across replays and worker
//!   counts. This is what CI pins.
//! * [`BudgetSource::WallMicros`] — wall-clock microseconds, present
//!   only when the tracer ran with wall timing on. Real latency, not
//!   deterministic; this is what PERFORMANCE.md snapshots.
//!
//! Percentiles are nearest-rank (the p-th percentile is the smallest
//! recorded value ≥ p % of the sample), so every reported number is a
//! value that actually occurred.

use crate::SpanRecord;

/// One declared budget: the stage's span name and its limit, in the
/// table's source unit, applied to the stage's p95.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    /// Span name the budget covers (e.g. `stage.extract`).
    pub stage: String,
    /// Inclusive p95 limit, in the table's source unit.
    pub limit: u64,
}

impl Budget {
    /// Shorthand constructor.
    pub fn new(stage: impl Into<String>, limit: u64) -> Budget {
        Budget {
            stage: stage.into(),
            limit,
        }
    }
}

/// Which span field the table measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSource {
    /// Deterministic logical-tick durations.
    Ticks,
    /// Wall-clock microseconds (zero when wall timing was off).
    WallMicros,
}

impl BudgetSource {
    fn unit(self) -> &'static str {
        match self {
            BudgetSource::Ticks => "ticks",
            BudgetSource::WallMicros => "us",
        }
    }
}

/// One stage's aggregated row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetRow {
    /// Stage (span) name.
    pub stage: String,
    /// Spans aggregated.
    pub count: u64,
    /// Nearest-rank 50th percentile (0 when `count == 0`).
    pub p50: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Largest recorded value.
    pub worst: u64,
    /// The declared p95 limit.
    pub limit: u64,
    /// Did p95 exceed the limit?
    pub over: bool,
}

/// The aggregated latency-budget table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetTable {
    /// The clock the numbers are in.
    pub source: BudgetSource,
    /// One row per declared budget, in declaration order.
    pub rows: Vec<BudgetRow>,
}

/// Nearest-rank percentile of an ascending-sorted non-empty slice.
fn nearest_rank(sorted: &[u64], p: u64) -> u64 {
    let n = sorted.len() as u64;
    let rank = (p * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

impl BudgetTable {
    /// Aggregate `spans` against the declared `budgets`. Every budget
    /// produces a row (zeros when no span matched), in declaration
    /// order, so the table shape never depends on what happened to run.
    pub fn from_spans(
        spans: &[SpanRecord],
        budgets: &[Budget],
        source: BudgetSource,
    ) -> BudgetTable {
        let rows = budgets
            .iter()
            .map(|b| {
                let mut values: Vec<u64> = spans
                    .iter()
                    .filter(|s| *s.name == *b.stage)
                    .map(|s| match source {
                        BudgetSource::Ticks => s.end_tick.saturating_sub(s.start_tick),
                        BudgetSource::WallMicros => s.wall_us.unwrap_or(0),
                    })
                    .collect();
                values.sort_unstable();
                if values.is_empty() {
                    return BudgetRow {
                        stage: b.stage.clone(),
                        count: 0,
                        p50: 0,
                        p95: 0,
                        p99: 0,
                        worst: 0,
                        limit: b.limit,
                        over: false,
                    };
                }
                let p95 = nearest_rank(&values, 95);
                BudgetRow {
                    stage: b.stage.clone(),
                    count: values.len() as u64,
                    p50: nearest_rank(&values, 50),
                    p95,
                    p99: nearest_rank(&values, 99),
                    worst: *values.last().expect("non-empty"),
                    limit: b.limit,
                    over: p95 > b.limit,
                }
            })
            .collect();
        BudgetTable { source, rows }
    }

    /// Any row over budget?
    pub fn any_over(&self) -> bool {
        self.rows.iter().any(|r| r.over)
    }

    /// Aligned-text table, byte-identical across replays when built
    /// from [`BudgetSource::Ticks`].
    pub fn render_text(&self) -> String {
        let unit = self.source.unit();
        let mut out = format!(
            "{:<18} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}\n",
            "stage",
            "count",
            format!("p50/{unit}"),
            format!("p95/{unit}"),
            format!("p99/{unit}"),
            format!("worst/{unit}"),
            "budget",
            "verdict"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}\n",
                r.stage,
                r.count,
                r.p50,
                r.p95,
                r.p99,
                r.worst,
                r.limit,
                if r.over { "OVER" } else { "pass" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn span(name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id: start + 1,
            parent: 0,
            name: Arc::from(name),
            index: None,
            lane: 0,
            start_tick: start,
            end_tick: end,
            sim_at: None,
            wall_us: None,
            remote: None,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let spans: Vec<SpanRecord> = (1..=100).map(|i| span("s", 0, i)).collect();
        let table = BudgetTable::from_spans(&spans, &[Budget::new("s", 95)], BudgetSource::Ticks);
        let row = &table.rows[0];
        assert_eq!(row.count, 100);
        assert_eq!(row.p50, 50);
        assert_eq!(row.p95, 95);
        assert_eq!(row.p99, 99);
        assert_eq!(row.worst, 100);
        assert!(!row.over, "p95 == limit is within budget");
        let tight = BudgetTable::from_spans(&spans, &[Budget::new("s", 94)], BudgetSource::Ticks);
        assert!(tight.rows[0].over);
        assert!(tight.any_over());
    }

    #[test]
    fn missing_stages_render_zero_rows_in_declared_order() {
        let spans = [span("b", 0, 10)];
        let budgets = [Budget::new("a", 5), Budget::new("b", 5)];
        let table = BudgetTable::from_spans(&spans, &budgets, BudgetSource::Ticks);
        assert_eq!(table.rows[0].count, 0);
        assert!(!table.rows[0].over);
        assert_eq!(table.rows[1].count, 1);
        assert!(table.rows[1].over, "10 > 5");
        let text = table.render_text();
        let a_line = text.lines().nth(1).unwrap();
        assert!(a_line.starts_with('a'), "declared order kept: {text}");
    }
}
