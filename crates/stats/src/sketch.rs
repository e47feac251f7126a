//! Mergeable quantile sketches for the serving layer (`tero-serve`).
//!
//! A [`QuantileSketch`] is a DDSketch-style summary of a latency
//! distribution: values land in logarithmically-spaced buckets chosen so
//! that every value in a bucket is within a fixed *relative* distance of
//! every other. Two sketches built over disjoint sample sets merge by
//! adding bucket counts — merging is associative and commutative *in
//! effect* (any merge order yields an identical sketch, byte-for-byte in
//! its wire encoding), which is what lets the staged engine commit
//! per-window sketches and the serving layer combine them freely.
//!
//! ## Accuracy contract
//!
//! With relative accuracy `α` (default [`DEFAULT_ALPHA`]), bucket `i ≥ 1`
//! covers the half-open range `(γ^(i-1), γ^i]` with `γ = (1+α)/(1−α)`;
//! bucket 0 covers exactly the value `0` (and anything non-positive), and
//! negative indices cover values below 1. Because the bucket ranges are
//! disjoint and ordered, the sketch's cumulative counts agree with the
//! exact sorted sample's ranks at every bucket boundary, so the value the
//! sketch returns for a quantile sits in the **same bucket** as the exact
//! nearest-rank sample. The documented guarantee, pinned by the property
//! tests in this module and by `tests/serve_accuracy.rs`:
//!
//! > `quantile(p)` differs from the exact nearest-rank percentile
//! > ([`crate::descriptive::percentile_nearest_rank`]) by a relative
//! > error of at most [`QuantileSketch::relative_error_bound`]
//! > `= γ − 1 = 2α/(1−α)` (≈ 2.02 % at the default `α = 1 %`). Zero
//! > values are exact.
//!
//! ## One percentile definition
//!
//! `quantile` uses the **same nearest-rank definition** as
//! `tero_trace::obs::Histogram::percentile`: the target is rank
//! `ceil(p/100 · n)` (1-based, clamped to at least 1), the estimate
//! interpolates linearly *by rank* inside the containing bucket, and the
//! result is clamped to the observed `[min, max]` — so single-valued
//! sketches are exact at every percentile. The two structures differ
//! only in bucket geometry (powers of two vs powers of `γ`) and boundary
//! rounding: a value exactly `2^k` starts `Histogram` bucket `k+1`
//! (lower-inclusive), while a value exactly `γ^k` *closes* sketch bucket
//! `k` (upper-inclusive). docs/OPERATIONS.md quotes this shared
//! definition for every p50/p95/p99 the system reports.
//!
//! ## Wire form
//!
//! The committed bytes of a sketch (`engine:serve:*` values, and through
//! them every snapshot and digest) are one spelling of one JSON object,
//! and that spelling is the contract — [`QuantileSketch::encode`] writes
//! it and [`QuantileSketch::decode`] reads nothing else:
//!
//! ```text
//! {"alpha":F,"zero":U,"buckets":[[I,U],…],"sum":F,"min":M,"max":M}
//! ```
//!
//! No white space, the keys in that order. `U` is a `u64` and `I` an
//! `i32` in decimal (no leading zero, no `-0`); buckets ascend strictly
//! by `I`, each holds at least one value, and `zero` plus the bucket
//! counts (the sketch's count, which is not written) fits a `u64`. `F` is
//! a finite float without exponent: `digits.digits`, or bare `digits` for
//! an integral value from 1e15 up (`encode` writes the shortest digits
//! that parse back to the value; `decode` does not insist on shortest).
//! `M` is `null` exactly when the count
//! is 0 and an `F` otherwise, `min ≤ max`. This is what the vendored
//! `serde_json` printed for the old derived form, byte for byte; that
//! tree codec is kept under `#[cfg(test)]` as the reference, and
//! `tests/sketch_props.rs` pins literal strings. One limit comes with it:
//! a bare-digits float has to fit `u64` (`i64` when negative) to be read
//! back, so an integral `sum` from 2⁶⁴ up is written but decodes to
//! `None` — eighteen quintillion milliseconds of latency in one sketch.

use std::fmt::Write as _;
use std::sync::OnceLock;

/// Default relative accuracy `α`: served quantiles within ~2 % of the
/// exact nearest-rank value (see the module docs for the exact bound).
pub const DEFAULT_ALPHA: f64 = 0.01;

/// Midpoint-rule resolution of [`QuantileSketch::wasserstein`].
pub(crate) const WASSERSTEIN_GRID: usize = 256;

/// The fraction `quantile` computes at each grid point: the midpoint
/// percentile `(i + 0.5) / grid · 100`, then `/ 100`, folded at compile
/// time with the same operations in the same order. Both steps are exact,
/// so entry `i` is `(2i + 1) / 512` (see [`QuantileSketch::grid_rank`]).
const GRID_FRACTIONS: [f64; WASSERSTEIN_GRID] = {
    let mut table = [0.0; WASSERSTEIN_GRID];
    let mut i = 0;
    while i < WASSERSTEIN_GRID {
        table[i] = (i as f64 + 0.5) / WASSERSTEIN_GRID as f64 * 100.0 / 100.0;
        i += 1;
    }
    table
};

/// Below this count `(2i + 1) · n` fits the 53-bit significand, so the
/// grid's `f64` rank product is exact and an integer formula equals it.
const GRID_EXACT_COUNT: u64 = 1 << 43;

/// `10^k` for the exponents an `f64` holds exactly: the divisors of
/// [`WireCursor::f64`]'s fast path. Each step is an exact product.
const POW10: [f64; 23] = {
    let mut table = [1.0; 23];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 10.0;
        k += 1;
    }
    table
};

/// The bucket indices whose bounds are tabled for [`DEFAULT_ALPHA`]:
/// `|i| ≤ POWER_REACH`, values from ~4·10⁻¹¹ to ~3·10¹⁰ ms.
const POWER_REACH: i32 = 1_200;

/// `γ^(k − POWER_REACH)` at entry `k` for the default accuracy, computed
/// once per process by the `powi` an untabled bound runs.
fn default_powers() -> &'static PowerTable {
    static TABLE: OnceLock<PowerTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let gamma = gamma_of(DEFAULT_ALPHA);
        std::array::from_fn(|k| gamma.powi(k as i32 - POWER_REACH))
    })
}

type PowerTable = [f64; 2 * POWER_REACH as usize + 1];

/// `(1+α)/(1−α)`, the bucket-width ratio.
fn gamma_of(alpha: f64) -> f64 {
    (1.0 + alpha) / (1.0 - alpha)
}

/// `x.ceil() as u64` without the libm call: truncation, plus one when it
/// cut a fraction off. `as` saturates and sends NaN to 0 on both sides,
/// and every `f64` from 2⁵² up is already an integer.
#[inline]
fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
}

/// `x.ceil() as i32` the same way: truncation runs toward zero, so only
/// a positive fraction needs the one added.
#[inline]
fn ceil_i32(x: f64) -> i32 {
    let t = x as i32;
    t.saturating_add(i32::from(f64::from(t) < x))
}

/// A mergeable quantile sketch over non-negative `f64` values.
///
/// Insertion and merging only touch integer bucket counts (plus exact
/// min/max/sum bookkeeping), so the sketch built from a multiset of
/// values is identical regardless of insertion order, worker count, or
/// how the values were split across merged partial sketches.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Relative accuracy the sketch was built with.
    alpha: f64,
    /// `(1+α)/(1−α)` — the bucket-width ratio.
    gamma: f64,
    /// `ln γ`, cached for bucket indexing.
    ln_gamma: f64,
    /// Count of non-positive values (the exact "zero bucket").
    zero: u64,
    /// Positive-value buckets as `(index, count)`, sorted by index.
    /// Bucket `i` covers `(γ^(i-1), γ^i]`.
    buckets: Vec<(i32, u64)>,
    /// Total inserted values (zero bucket included).
    count: u64,
    /// Exact sum of inserted values.
    sum: f64,
    /// Exact smallest inserted value (`f64::INFINITY` when empty).
    min: f64,
    /// Exact largest inserted value (`f64::NEG_INFINITY` when empty).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(DEFAULT_ALPHA)
    }
}

impl QuantileSketch {
    /// An empty sketch with relative accuracy `alpha ∈ (0, 1)`.
    pub fn new(alpha: f64) -> QuantileSketch {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "sketch accuracy must be in (0, 1), got {alpha}"
        );
        let gamma = gamma_of(alpha);
        // Every decode builds a sketch: the default's logarithm is taken once.
        static DEFAULT_LN_GAMMA: OnceLock<f64> = OnceLock::new();
        let ln_gamma = if alpha == DEFAULT_ALPHA {
            *DEFAULT_LN_GAMMA.get_or_init(|| gamma.ln())
        } else {
            gamma.ln()
        };
        QuantileSketch {
            alpha,
            gamma,
            ln_gamma,
            zero: 0,
            buckets: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The relative accuracy `α` this sketch was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The documented worst-case relative error of [`Self::quantile`]
    /// against the exact nearest-rank percentile: `γ − 1 = 2α/(1−α)`.
    pub fn relative_error_bound(&self) -> f64 {
        self.gamma - 1.0
    }

    /// Bucket index for a positive value: `ceil(ln v / ln γ)`, so bucket
    /// `i` covers `(γ^(i-1), γ^i]` (upper-inclusive).
    #[inline]
    fn bucket_for(&self, v: f64) -> i32 {
        ceil_i32(v.ln() / self.ln_gamma)
    }

    /// The bucket bounds of this sketch's accuracy, for a query to read
    /// as many of as it needs.
    #[inline]
    fn bounds(&self) -> Bounds {
        Bounds {
            table: (self.alpha == DEFAULT_ALPHA).then(default_powers),
            gamma: self.gamma,
        }
    }

    /// Insert one value. Non-positive values land in the exact zero
    /// bucket; `NaN` panics (nothing in the pipeline produces one).
    pub fn insert(&mut self, v: f64) {
        self.insert_n(v, 1);
    }

    /// Insert `n` copies of one value in O(log buckets).
    pub fn insert_n(&mut self, v: f64, n: u64) {
        assert!(!v.is_nan(), "NaN inserted into QuantileSketch");
        if n == 0 {
            return;
        }
        if v <= 0.0 {
            self.zero += n;
        } else {
            let idx = self.bucket_for(v);
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Build a sketch at the default accuracy from a slice of values.
    pub fn from_values(values: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::default();
        for &v in values {
            s.insert(v);
        }
        s
    }

    /// Number of inserted values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch has seen no values.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of inserted values (0.0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact smallest inserted value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest inserted value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another sketch into this one by adding bucket counts.
    /// Associative and commutative in effect: any merge order over the
    /// same partial sketches yields an identical (byte-identical once
    /// encoded) result. Panics on mismatched accuracy — sketches from
    /// different `α` families have incompatible bucket geometry.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.alpha == other.alpha,
            "cannot merge sketches with different accuracy ({} vs {})",
            self.alpha,
            other.alpha
        );
        self.zero += other.zero;
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile (0–100) by the shared nearest-rank
    /// definition (see the module docs): target rank `ceil(p/100 · n)`
    /// clamped to at least 1, linear interpolation by rank inside the
    /// containing bucket, clamped to the exact `[min, max]`. `None` when
    /// the sketch is empty, mirroring `tero_trace::obs::Histogram::percentile`
    /// and `BoxplotStats::from_samples` — a percentile of nothing is not
    /// a number — and `None` when `p` is NaN, which names no rank.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if p.is_nan() {
            return None;
        }
        let fraction = p.clamp(0.0, 100.0) / 100.0;
        (self.count > 0).then(|| RankWalk::new(self).value_at(self.target_rank(fraction)))
    }

    /// The 1-based nearest-rank target of the `fraction`-quantile:
    /// `ceil(fraction · n)`, at least 1.
    #[inline]
    fn target_rank(&self, fraction: f64) -> u64 {
        ceil_u64(fraction * self.count as f64).max(1)
    }

    /// [`Self::target_rank`] of `GRID_FRACTIONS[i]`. Below
    /// [`GRID_EXACT_COUNT`] the product `(2i + 1) / 512 · n` is exact, so
    /// its ceiling is integer arithmetic; larger counts take the `f64`
    /// product. A non-empty sketch's rank is at least 1 either way.
    #[inline]
    fn grid_rank(&self, i: usize) -> u64 {
        if self.count < GRID_EXACT_COUNT {
            ((2 * i as u64 + 1) * self.count + 511) >> 9
        } else {
            self.target_rank(GRID_FRACTIONS[i])
        }
    }

    /// The sketch-served five-number summary the paper publishes for
    /// every distribution (§5.2): p5/p25/p50/p75/p95 plus count and
    /// exact mean. `None` when empty.
    pub fn boxplot(&self) -> Option<crate::descriptive::BoxplotStats> {
        let mean = self.mean()?;
        // Five ascending ranks: one walk answers them, each as `quantile`.
        let mut walk = RankWalk::new(self);
        let mut at = |p: f64| walk.value_at(self.target_rank(p / 100.0));
        Some(crate::descriptive::BoxplotStats {
            n: usize::try_from(self.count).unwrap_or(usize::MAX),
            mean,
            p5: at(5.0),
            p25: at(25.0),
            p50: at(50.0),
            p75: at(75.0),
            p95: at(95.0),
        })
    }

    /// The empirical CDF at `x`: the fraction of inserted mass ≤ `x`,
    /// with linear rank interpolation inside `x`'s bucket. Exact at every
    /// bucket boundary; inside a bucket the error is bounded by that
    /// bucket's mass fraction. `None` when empty or when `x` is NaN.
    pub fn cdf(&self, x: f64) -> Option<f64> {
        if self.count == 0 || x.is_nan() {
            return None;
        }
        if x < self.min.max(0.0) {
            // Below every observation (zero bucket included: min is 0.0
            // whenever the zero bucket is occupied).
            if x < 0.0 || self.zero == 0 {
                return Some(0.0);
            }
        }
        if x >= self.max {
            return Some(1.0);
        }
        let mut below = self.zero;
        let idx = self.bucket_for(x.max(f64::MIN_POSITIVE));
        for &(i, n) in &self.buckets {
            if i < idx {
                below += n;
            } else if i == idx {
                // Interpolate by rank across x's position in the bucket.
                let (lo, hi) = self.bounds().of(i);
                let frac = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
                below += (frac * n as f64).round() as u64;
            } else {
                break;
            }
        }
        Some(below.min(self.count) as f64 / self.count as f64)
    }

    /// The sketch as a histogram: `(lo, hi, count)` rows for every
    /// occupied bucket, ascending, with the zero bucket reported as
    /// `(0, 0, n)`. This is the raw shape behind every other query.
    pub fn histogram(&self) -> Vec<(f64, f64, u64)> {
        let mut rows = Vec::with_capacity(self.buckets.len() + 1);
        if self.zero > 0 {
            rows.push((0.0, 0.0, self.zero));
        }
        let bounds = self.bounds();
        rows.extend(self.buckets.iter().map(|&(idx, n)| {
            let (lo, hi) = bounds.of(idx);
            (lo, hi, n)
        }));
        rows
    }

    /// Approximate 1-D Wasserstein-1 distance to another sketch, by the
    /// quantile-function integral `∫|F⁻¹(q) − G⁻¹(q)| dq` evaluated with
    /// a midpoint rule at `WASSERSTEIN_GRID` ranks. Deterministic; the
    /// discretisation adds `O(1/grid)` rank error on top of the per-value
    /// relative bound. `None` when either sketch is empty.
    pub fn wasserstein(&self, other: &QuantileSketch) -> Option<f64> {
        if self.count == 0 || other.count == 0 {
            return None;
        }
        // The grid's ranks never decrease, so one forward walk per sketch
        // answers all of them.
        let (mut a, mut b) = (RankWalk::new(self), RankWalk::new(other));
        let mut acc = 0.0;
        for i in 0..WASSERSTEIN_GRID {
            let a = a.value_at(self.grid_rank(i));
            let b = b.value_at(other.grid_rank(i));
            acc += (a - b).abs();
        }
        Some(acc / WASSERSTEIN_GRID as f64)
    }

    /// Serialise to the wire encoding (see the module docs for the
    /// grammar), written straight into one `String`. Byte-identical for
    /// identical sketch contents: buckets are kept sorted and every field
    /// is order-independent under insert/merge.
    pub fn encode(&self) -> String {
        // The store keeps this allocation: a close guess, not a generous
        // one (twelve bytes a bucket is `[1234,5678],`).
        let mut out = String::with_capacity(80 + 12 * self.buckets.len());
        out.push_str("{\"alpha\":");
        push_f64(&mut out, self.alpha);
        out.push_str(",\"zero\":");
        push_u64(&mut out, self.zero);
        out.push_str(",\"buckets\":[");
        for (k, &(idx, n)) in self.buckets.iter().enumerate() {
            out.push_str(if k == 0 { "[" } else { ",[" });
            if idx < 0 {
                out.push('-');
            }
            push_u64(&mut out, u64::from(idx.unsigned_abs()));
            out.push(',');
            push_u64(&mut out, n);
            out.push(']');
        }
        out.push_str("],\"sum\":");
        push_f64(&mut out, self.sum);
        for (key, bound) in [(",\"min\":", self.min()), (",\"max\":", self.max())] {
            out.push_str(key);
            match bound {
                Some(v) => push_f64(&mut out, v),
                None => out.push_str("null"),
            }
        }
        out.push('}');
        out
    }

    /// Decode a [`Self::encode`] string in one pass over its bytes.
    /// `None` for anything `encode` does not write: another key order,
    /// white space, an exponent, a leading zero, trailing bytes, an alpha
    /// outside `(0, 1)`, a bucket that holds nothing or does not ascend
    /// strictly, counts that overflow `u64`, `min`/`max` absent from a
    /// non-empty sketch (or present in an empty one, or out of order).
    pub fn decode(raw: &str) -> Option<QuantileSketch> {
        let mut c = WireCursor {
            src: raw.as_bytes(),
            pos: 0,
        };
        c.eat(b"{\"alpha\":")?;
        let alpha = c.f64()?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return None;
        }
        c.eat(b",\"zero\":")?;
        let zero = c.u64()?;
        c.eat(b",\"buckets\":[")?;
        // One allocation, sized from the bytes left: the shortest bucket
        // is six bytes (`[0,1],`, or `[0,1]]` for the last), so no input
        // holds more buckets than that. A hostile one can make this reserve
        // for buckets it does not hold, but never more than 16 bytes of
        // vector per 6 bytes of input it supplied.
        let mut buckets: Vec<(i32, u64)> = Vec::with_capacity((c.src.len() - c.pos) / 6);
        let mut count = zero;
        if c.eat_byte(b']').is_none() {
            loop {
                c.eat_byte(b'[')?;
                let idx = c.i32()?;
                c.eat_byte(b',')?;
                let n = c.u64()?;
                c.eat_byte(b']')?;
                if n == 0 || buckets.last().is_some_and(|&(prev, _)| prev >= idx) {
                    return None;
                }
                count = count.checked_add(n)?;
                buckets.push((idx, n));
                if c.eat_byte(b',').is_none() {
                    c.eat_byte(b']')?;
                    break;
                }
            }
        }
        c.eat(b",\"sum\":")?;
        let sum = c.f64()?;
        c.eat(b",\"min\":")?;
        let min = c.f64_or_null()?;
        c.eat(b",\"max\":")?;
        let max = c.f64_or_null()?;
        c.eat_byte(b'}')?;
        if c.pos != c.src.len() {
            return None;
        }
        let (min, max) = match (count > 0, min, max) {
            (true, Some(min), Some(max)) if min <= max => (min, max),
            (false, None, None) => (f64::INFINITY, f64::NEG_INFINITY),
            _ => return None,
        };
        Some(QuantileSketch {
            zero,
            buckets,
            count,
            sum,
            min,
            max,
            ..QuantileSketch::new(alpha)
        })
    }
}

/// The `(lo, hi]` value bounds of bucket `i`, `(γ^(i-1), γ^i)`: two
/// loads for the default accuracy's tabled indices, the same two `powi`s
/// the table was filled by for anything else.
#[derive(Clone, Copy)]
struct Bounds {
    table: Option<&'static PowerTable>,
    gamma: f64,
}

impl Bounds {
    #[inline]
    fn of(self, i: i32) -> (f64, f64) {
        if let Some(table) = self.table {
            // `table[k]` is γ^(k − POWER_REACH).
            let k = i64::from(i) + i64::from(POWER_REACH);
            if (1..table.len() as i64).contains(&k) {
                let k = k as usize;
                return (table[k - 1], table[k]);
            }
        }
        powi_bounds(self.gamma, i)
    }
}

/// The untabled bounds, out of line: no caller's hot loop carries the
/// two library calls. (`i32::MIN` comes only from hostile bytes; its
/// lower bound wraps, as release arithmetic always did.)
#[cold]
#[inline(never)]
fn powi_bounds(gamma: f64, i: i32) -> (f64, f64) {
    (gamma.powi(i.wrapping_sub(1)), gamma.powi(i))
}

/// A forward-only reader of one sketch's quantile function: answers
/// ranks that never decrease, moving over each bucket once, and a rank
/// asked twice in a row (a sketch of fewer values than the ranks asked
/// of it) is answered from the last call. Every answer is the
/// floating-point expression a fresh walk computes: a fresh walk asked
/// one rank is [`QuantileSketch::quantile`].
struct RankWalk<'a> {
    sketch: &'a QuantileSketch,
    bounds: Bounds,
    /// The bucket the walk stands in, and the mass before it.
    pos: usize,
    cumulative: u64,
    /// The last rank answered, and its value. Rank 0 is never asked, and
    /// would be 0.0 if it were.
    last: (u64, f64),
}

impl<'a> RankWalk<'a> {
    fn new(sketch: &'a QuantileSketch) -> RankWalk<'a> {
        RankWalk {
            sketch,
            bounds: sketch.bounds(),
            pos: 0,
            cumulative: sketch.zero,
            last: (0, 0.0),
        }
    }

    /// The value at 1-based rank `target` of a non-empty sketch: linear
    /// interpolation by rank inside the containing bucket, clamped to the
    /// exact `[min, max]`. `target` must not be below an earlier call's.
    /// Inlined, so that a repeated rank costs its caller a compare and a
    /// load; a new one calls [`Self::find`].
    #[inline]
    fn value_at(&mut self, target: u64) -> f64 {
        if target != self.last.0 {
            self.last = (target, self.find(target));
        }
        self.last.1
    }

    #[inline(never)]
    fn find(&mut self, target: u64) -> f64 {
        let s = self.sketch;
        if target <= s.zero {
            return 0.0;
        }
        while let Some(&(idx, n)) = s.buckets.get(self.pos) {
            if self.cumulative + n >= target {
                let (lo, hi) = self.bounds.of(idx);
                let into = (target - self.cumulative) as f64 / n as f64;
                let est = lo + into * (hi - lo);
                return est.clamp(s.min, s.max);
            }
            self.cumulative += n;
            self.pos += 1;
        }
        s.max
    }
}

/// A float as the wire writes it: `null` when not finite, one decimal
/// for an integral value below 1e15, the shortest digits that parse back
/// to it otherwise (an integral value from 1e15 up has no `.`).
fn push_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        // What `{f:.1}` prints, without the exact-precision formatter:
        // an integer below 2^53 converts exactly.
        if f.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, f.abs() as u64);
        out.push_str(".0");
    } else {
        let _ = write!(out, "{f}");
    }
}

fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A byte cursor over a wire string. Every reader answers `None` without
/// moving past the input; none allocates.
struct WireCursor<'a> {
    src: &'a [u8],
    pos: usize,
}

impl WireCursor<'_> {
    /// Consume `lit` if the input continues with exactly it.
    fn eat(&mut self, lit: &[u8]) -> Option<()> {
        self.src[self.pos..]
            .starts_with(lit)
            .then(|| self.pos += lit.len())
    }

    /// [`Self::eat`] of one byte, without the slice compare.
    fn eat_byte(&mut self, byte: u8) -> Option<()> {
        (self.src.get(self.pos) == Some(&byte)).then(|| self.pos += 1)
    }

    /// A canonical digit run that fits a `u64`.
    fn u64(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut value = 0u64;
        while let Some(&byte) = self.src.get(self.pos) {
            let digit = byte.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
            self.pos += 1;
        }
        match self.pos - start {
            0 => None,
            1 => Some(value),
            _ => (self.src[start] != b'0').then_some(value),
        }
    }

    fn i32(&mut self) -> Option<i32> {
        let negative = self.eat_byte(b'-').is_some();
        let magnitude = i64::try_from(self.u64()?).ok()?;
        if negative && magnitude == 0 {
            return None;
        }
        i32::try_from(if negative { -magnitude } else { magnitude }).ok()
    }

    /// A finite float as [`push_f64`] writes one. `-?digits` is an
    /// integral value from 1e15 up, which has to fit `u64` (`i64` when
    /// negative) as it does for the tree parser; `-?digits.digits` is
    /// anything else, so its whole part fits a `u64` with room to spare.
    ///
    /// `-?digits.digits` takes Clinger's fast path when it can: digits
    /// that make a significand `m < 2⁵³` with `k ≤ 22` of them after the
    /// point are `m / 10^k`, both operands exact, and one correctly
    /// rounded division is the correctly rounded value `str::parse`
    /// returns. Any other spelling goes to `str::parse`.
    fn f64(&mut self) -> Option<f64> {
        let start = self.pos;
        let negative = self.eat_byte(b'-').is_some();
        let whole = self.u64()?;
        if self.eat_byte(b'.').is_none() {
            let magnitude = whole as f64;
            let value = if negative { -magnitude } else { magnitude };
            let fits = !negative || whole <= 1 << 63;
            return (fits && magnitude >= 1e15).then_some(value);
        }
        let rest = &self.src[self.pos..];
        let fraction = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        if fraction == 0 {
            return None;
        }
        self.pos += fraction;
        if let Some(&divisor) = POW10.get(fraction) {
            let significand = rest[..fraction].iter().try_fold(whole, |m, &digit| {
                m.checked_mul(10)?.checked_add(u64::from(digit - b'0'))
            });
            if let Some(m) = significand.filter(|&m| m < 1 << 53) {
                let magnitude = m as f64 / divisor;
                return Some(if negative { -magnitude } else { magnitude });
            }
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn f64_or_null(&mut self) -> Option<Option<f64>> {
        match self.eat(b"null") {
            Some(()) => Some(None),
            None => self.f64().map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::percentile_nearest_rank;
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};

    // ---- references: the code the runtime paths above replaced ------------

    /// The derived serde shape behind the old codec. `count` is derivable
    /// (zero + Σ bucket counts) and `min`/`max` are `None` when empty.
    #[derive(Serialize, Deserialize)]
    struct Wire {
        alpha: f64,
        zero: u64,
        buckets: Vec<(i32, u64)>,
        sum: f64,
        min: Option<f64>,
        max: Option<f64>,
    }

    /// `encode` through the `serde::Value` tree and the vendored printer.
    fn tree_encode(s: &QuantileSketch) -> String {
        let wire = Wire {
            alpha: s.alpha,
            zero: s.zero,
            buckets: s.buckets.clone(),
            sum: s.sum,
            min: s.min(),
            max: s.max(),
        };
        serde_json::to_string(&wire).expect("sketch serialises")
    }

    /// `decode` through the vendored parser and the tree, with the checks
    /// the old `Deserialize for QuantileSketch` made. Its one change: the
    /// count is totalled with `checked_add`, where the old `.sum()`
    /// overflowed (see `bucket_counts_past_u64_are_rejected`).
    fn tree_decode(raw: &str) -> Option<QuantileSketch> {
        let wire: Wire = serde_json::from_str(raw).ok()?;
        if !(wire.alpha > 0.0 && wire.alpha < 1.0) {
            return None;
        }
        if wire.buckets.windows(2).any(|w| w[0].0 >= w[1].0) {
            return None;
        }
        let count = wire
            .buckets
            .iter()
            .try_fold(wire.zero, |acc, &(_, n)| acc.checked_add(n))?;
        if (count > 0) != (wire.min.is_some() && wire.max.is_some()) {
            return None;
        }
        Some(QuantileSketch {
            zero: wire.zero,
            buckets: wire.buckets,
            count,
            sum: wire.sum,
            min: wire.min.unwrap_or(f64::INFINITY),
            max: wire.max.unwrap_or(f64::NEG_INFINITY),
            ..QuantileSketch::new(wire.alpha)
        })
    }

    /// `quantile` as one scan from bucket zero.
    fn quantile_scan(s: &QuantileSketch, p: f64) -> Option<f64> {
        if s.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * s.count as f64).ceil().max(1.0) as u64;
        if target <= s.zero {
            return Some(0.0);
        }
        let mut cumulative = s.zero;
        for &(idx, n) in &s.buckets {
            if cumulative + n >= target {
                let (lo, hi) = (s.gamma.powi(idx - 1), s.gamma.powi(idx));
                let into = (target - cumulative) as f64 / n as f64;
                let est = lo + into * (hi - lo);
                return Some(est.clamp(s.min, s.max));
            }
            cumulative += n;
        }
        Some(s.max)
    }

    /// `wasserstein` as 2 × [`WASSERSTEIN_GRID`] such scans.
    fn wasserstein_scan(a: &QuantileSketch, b: &QuantileSketch) -> Option<f64> {
        if a.count == 0 || b.count == 0 {
            return None;
        }
        let mut acc = 0.0;
        for i in 0..WASSERSTEIN_GRID {
            let q = (i as f64 + 0.5) / WASSERSTEIN_GRID as f64 * 100.0;
            acc += (quantile_scan(a, q)? - quantile_scan(b, q)?).abs();
        }
        Some(acc / WASSERSTEIN_GRID as f64)
    }

    // ---- generated sketches ------------------------------------------------

    /// One insert of a generated sketch: which corner of the value domain,
    /// where in it, and how many copies.
    type Step = (u8, f64, u64);

    fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec((0u8..8, 0.0f64..1.0, 1u64..400), 0..max_len)
    }

    /// Build a sketch that visits the codec's corners: the zero bucket
    /// alone, negative values (negative `sum` and `min`), values below 1
    /// (negative indices), exactly 1 (index 0), integer and fractional
    /// milliseconds, values from 1e15 up (a `sum` printed without `.0`),
    /// and counts near `u64::MAX / n`.
    fn build(steps: &[Step]) -> QuantileSketch {
        let mut s = QuantileSketch::default();
        let share = u64::MAX / (steps.len() as u64 + 1);
        for &(corner, x, n) in steps {
            match corner {
                0 => s.insert_n(0.0, n),
                1 => s.insert_n(-100.0 * x, n),
                2 => s.insert_n(0.0005 + 0.999 * x, n),
                3 => s.insert_n(1.0, n),
                4 => s.insert_n((1.0 + 799.0 * x).floor(), n),
                5 => s.insert_n(0.5 + 799.5 * x, n),
                6 => s.insert_n((1e15 * (1.0 + 8.0 * x)).floor(), n % 3 + 1),
                _ => s.insert_n((1.0 + 9.0 * x).floor(), share - n),
            }
        }
        s
    }

    /// One hostile edit of a wire string, chosen by `(kind, at, byte)`.
    fn mutate(wire: &str, kind: u8, at: usize, byte: u8) -> String {
        const KEYS: [&str; 6] = ["alpha", "zero", "buckets", "sum", "min", "max"];
        // The six `"key":value` members, split at the commas before keys.
        let members = |wire: &str| -> Vec<String> {
            let body = &wire[1..wire.len() - 1];
            let mut cuts: Vec<usize> = KEYS
                .iter()
                .map(|k| body.find(&format!("\"{k}\":")).expect("canonical wire"))
                .collect();
            cuts.push(body.len() + 1);
            cuts.windows(2)
                .map(|w| body[w[0]..w[1] - 1].to_string())
                .collect()
        };
        let join = |members: &[String]| format!("{{{}}}", members.join(","));
        let at_char = wire
            .char_indices()
            .map(|(i, _)| i)
            .nth(at % wire.len())
            .unwrap_or(0);
        match kind {
            // A member twice, two members swapped, one member gone.
            0 => {
                let mut m = members(wire);
                m.insert(at % 6, m[byte as usize % 6].clone());
                join(&m)
            }
            1 => {
                let mut m = members(wire);
                m.swap(at % 6, byte as usize % 6);
                join(&m)
            }
            2 => {
                let mut m = members(wire);
                m.remove(at % 6);
                join(&m)
            }
            // White space anywhere JSON allows it (and where it does not).
            3 => {
                let ws = [" ", "\n", "\t", "\r"][byte as usize % 4];
                format!("{}{ws}{}", &wire[..at_char], &wire[at_char..])
            }
            // A lying `null`: some member's value replaced by it.
            4 => {
                let mut m = members(wire);
                let key = KEYS[at % 6];
                m[at % 6] = format!("\"{key}\":null");
                join(&m)
            }
            // One byte overwritten by a printable one, one inserted, one cut.
            5 => {
                let mut bytes = wire.as_bytes().to_vec();
                bytes[at % wire.len()] = b' ' + byte % 95;
                String::from_utf8(bytes).expect("ASCII wire")
            }
            6 => format!(
                "{}{}{}",
                &wire[..at_char],
                (b' ' + byte % 95) as char,
                &wire[at_char..]
            ),
            _ => format!("{}{}", &wire[..at_char], &wire[at_char + 1..]),
        }
    }

    /// What every input must satisfy: the single-pass decoder reads
    /// nothing the tree does not read as the same sketch, and holds no
    /// more bucket slots than the input has bytes (a slot is taken only
    /// for a bucket already read, so a rejected input reserved no more).
    fn assert_never_more_lenient(raw: &str) {
        if let Some(direct) = QuantileSketch::decode(raw) {
            assert!(
                direct.buckets.capacity() <= raw.len(),
                "capacity on {raw:?}"
            );
            assert_eq!(Some(&direct), tree_decode(raw).as_ref(), "on {raw:?}");
        }
    }

    proptest! {
        #[test]
        fn codec_matches_the_tree_reference(steps in steps(24)) {
            let s = build(&steps);
            let wire = s.encode();
            prop_assert_eq!(&wire, &tree_encode(&s), "encode bytes");
            let decoded = QuantileSketch::decode(&wire);
            prop_assert_eq!(&decoded, &tree_decode(&wire), "decode of {}", wire);
            // An integral sum from 2^64 up is the one thing neither reads.
            if s.sum.abs() < 1.8e19 {
                prop_assert_eq!(decoded, Some(s), "round trip of {}", wire);
            }
        }

        #[test]
        fn hostile_edits_are_rejected_or_read_as_the_tree_reads_them(
            steps in steps(12),
            kind in 0u8..8,
            at in 0usize..4096,
            byte in any::<u8>(),
        ) {
            let wire = build(&steps).encode();
            assert_never_more_lenient(&mutate(&wire, kind, at, byte));
        }

        #[test]
        fn walks_match_scans_bit_for_bit(
            a in steps(16),
            b in steps(16),
            p in 0.0f64..100.0,
        ) {
            let (a, b) = (build(&a), build(&b));
            prop_assert_eq!(
                a.quantile(p).map(f64::to_bits),
                quantile_scan(&a, p).map(f64::to_bits)
            );
            prop_assert_eq!(
                a.wasserstein(&b).map(f64::to_bits),
                wasserstein_scan(&a, &b).map(f64::to_bits)
            );
        }
    }

    /// The two distributions the `serve_cold` benchmark fixture (seed
    /// 4242) serves to its Wasserstein queries, as committed.
    const SERVED: [&str; 2] = [
        "{\"alpha\":0.01,\"zero\":0,\"buckets\":[[0,1],[55,1],[70,14],[81,21],[90,17],\
         [98,16],[104,9],[110,3],[116,3],[120,1],[125,4],[129,1],[136,1],[148,2],[153,2],\
         [157,1]],\"sum\":698.0,\"min\":1.0,\"max\":23.0}",
        "{\"alpha\":0.01,\"zero\":0,\"buckets\":[[70,1],[81,4],[104,1],[110,1],[116,4],\
         [120,5],[132,1],[136,12],[139,20],[142,2],[145,1]],\"sum\":702.0,\"min\":4.0,\
         \"max\":18.0}",
    ];

    /// `n` values spread over ~70 ms, a few dozen buckets.
    fn spread(n: u64) -> QuantileSketch {
        let values: Vec<f64> = (1..=n).map(|i| 1.0 + (i * 37 % 101) as f64 * 0.7).collect();
        QuantileSketch::from_values(&values)
    }

    #[test]
    fn wasserstein_bits_are_pinned() {
        let [a, b] = SERVED.map(|raw| QuantileSketch::decode(raw).expect("fixture decodes"));
        let one = QuantileSketch::from_values(&[42.0]);
        let mut zeros = QuantileSketch::default();
        zeros.insert_n(0.0, 200);
        zeros.insert_n(12.0, 30);
        zeros.insert_n(40.0, 20);
        let (v255, v256, v257) = (spread(255), spread(256), spread(257));
        // Under 256 values ranks repeat (the memo answers), at 257 they
        // skip; the literals are what the walk answered before it had the
        // memo, the out-of-line bounds or the fraction table.
        for (x, y, bits) in [
            (&a, &b, 0x401a_84da_b763_943d_u64),
            (&b, &a, 0x401a_84da_b763_943d),
            (&a, &a, 0),
            (&b, &b, 0),
            (&one, &a, 0x4041_644f_ee3b_1a54),
            (&v255, &b, 0x4036_d3a6_8a99_49c4),
            (&v256, &a, 0x403d_0962_0e07_94dd),
            (&v257, &b, 0x4036_cf45_da39_4ef8),
            (&v255, &v257, 0x3fc6_5738_788a_e371),
            (&zeros, &a, 0x4019_c37b_dbf0_272b),
            (&v256, &zeros, 0x403f_9bc0_52e5_e60b),
        ] {
            let walked = x.wasserstein(y).map(f64::to_bits);
            assert_eq!(walked, wasserstein_scan(x, y).map(f64::to_bits));
            assert_eq!(walked, Some(bits), "{:#018x}", walked.unwrap_or(0));
        }
    }

    /// Values an `f64` ceiling can go wrong at: zero of either sign, NaN,
    /// the infinities, one ulp either side of integers, the 2⁵² edge past
    /// which every value is an integer, and both types' saturation points.
    fn ceiling_corners() -> Vec<f64> {
        let mut xs = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        xs.extend([f64::MIN_POSITIVE, -f64::MIN_POSITIVE, f64::MAX, f64::MIN]);
        for whole in [
            1.0,
            2.0,
            3.0,
            255.0,
            (1u64 << 31) as f64,
            (1u64 << 32) as f64,
            (1u64 << 52) as f64,
            (1u64 << 53) as f64,
            (1u64 << 63) as f64,
            18_446_744_073_709_551_616.0, // 2^64
        ] {
            for x in [whole, -whole] {
                xs.extend([x, x.next_up(), x.next_down(), x + 0.5, x - 0.5]);
            }
        }
        xs
    }

    #[test]
    fn integer_ceilings_equal_the_libm_ones() {
        let sevenths = (-40_000..40_000).map(|k| f64::from(k) / 7.0);
        for x in ceiling_corners().into_iter().chain(sevenths) {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
            assert_eq!(ceil_u64(x).max(1), x.ceil().max(1.0) as u64, "{x:e}");
            assert_eq!(ceil_i32(x), x.ceil() as i32, "{x:e}");
        }
    }

    proptest! {
        #[test]
        fn integer_ceilings_equal_the_libm_ones_on_any_bits(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(ceil_u64(x), x.ceil() as u64);
            prop_assert_eq!(ceil_i32(x), x.ceil() as i32);
            // The bucket index's ratio is a few hundred at most.
            let small = x % 4096.0;
            prop_assert_eq!(ceil_i32(small), small.ceil() as i32);
        }
    }

    #[test]
    fn grid_ranks_equal_the_float_ranks() {
        for (i, &fraction) in GRID_FRACTIONS.iter().enumerate() {
            assert_eq!(fraction, (2 * i + 1) as f64 / 512.0, "fraction {i}");
        }
        let edge = GRID_EXACT_COUNT;
        let counts = (1..=5_000)
            .chain([1 << 20, 120_000_000_000])
            .chain(edge - 3..=edge + 3)
            .chain([u64::MAX / 511, u64::MAX]);
        for count in counts {
            let s = QuantileSketch {
                count,
                ..QuantileSketch::default()
            };
            for (i, &fraction) in GRID_FRACTIONS.iter().enumerate() {
                let float = (fraction * count as f64).ceil().max(1.0) as u64;
                assert_eq!(s.grid_rank(i), float, "count {count}, grid point {i}");
            }
        }
    }

    #[test]
    fn tabled_bounds_equal_powi() {
        let gamma = std::hint::black_box(gamma_of(DEFAULT_ALPHA));
        for (k, &power) in default_powers().iter().enumerate() {
            let i = k as i32 - POWER_REACH;
            assert_eq!(power.to_bits(), gamma.powi(i).to_bits(), "γ^{i}");
        }
        // Past either end of the table, and at another accuracy, the
        // bounds are the same `powi`s.
        let other = QuantileSketch::new(0.02);
        let ends = [i32::MIN, i32::MIN + 1, -1_500, i32::MAX - 1, i32::MAX];
        for i in (-POWER_REACH - 3..=POWER_REACH + 3).chain(ends) {
            for s in [&QuantileSketch::default(), &other] {
                let want = (s.gamma.powi(i.wrapping_sub(1)), s.gamma.powi(i));
                let got = s.bounds().of(i);
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "lo of {i}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "hi of {i}");
            }
        }
    }

    /// `WireCursor::f64` over `raw` alone: the value, if it read all of it.
    fn read_f64(raw: &str) -> Option<f64> {
        let mut c = WireCursor {
            src: raw.as_bytes(),
            pos: 0,
        };
        c.f64().filter(|_| c.pos == raw.len())
    }

    /// A finite float through [`push_f64`] and back: what `str::parse`
    /// reads from the same bytes, except an integral value from 2⁶⁴ up,
    /// which the wire writes and does not read.
    fn assert_reads_as_parse(f: f64) {
        let mut wire = String::new();
        push_f64(&mut wire, f);
        let parsed: f64 = wire.parse().expect("push_f64 writes a float");
        assert_eq!(parsed.to_bits(), f.to_bits(), "{wire} parses back");
        match read_f64(&wire) {
            Some(read) => assert_eq!(read.to_bits(), parsed.to_bits(), "{wire}"),
            None => assert!(!wire.contains('.') && f.abs() >= 1.8e19, "{wire}"),
        }
    }

    proptest! {
        #[test]
        fn the_float_decode_reads_what_parse_reads(
            bits in any::<u64>(),
            subnormal in 1u64..1 << 52,
            integral in 1e15f64..1e21,
            digits in 10_000_000_000_000_000u64..100_000_000_000_000_000,
            point in 1u32..24,
            short in 0u64..1 << 54,
        ) {
            let any = f64::from_bits(bits);
            if any.is_finite() {
                assert_reads_as_parse(any);
            }
            assert_reads_as_parse(f64::from_bits(subnormal));
            assert_reads_as_parse(-f64::from_bits(subnormal));
            assert_reads_as_parse(integral.floor());
            // Seventeen significant digits, the most a shortest form has.
            assert_reads_as_parse(digits as f64 / POW10[point as usize - 1]);
            // Significands either side of 2^53, the point at every place.
            let scale = 10u128.pow(point);
            let (whole, fraction) = (u128::from(short) / scale, u128::from(short) % scale);
            let raw = format!("{whole}.{fraction:0>width$}", width = point as usize);
            let parsed: f64 = raw.parse().expect("digits.digits parses");
            prop_assert_eq!(read_f64(&raw).map(f64::to_bits), Some(parsed.to_bits()), "{}", raw);
        }
    }

    #[test]
    fn the_float_decode_edges_read_what_parse_reads() {
        for raw in [
            "9007199254740991.0",       // significand 2^53 − 1: fast
            "9007199254740992.0",       // 2^53: parsed
            "900719925474099.1",        // 2^53 − 1 again, one digit after the point
            "0.9007199254740993",       // 2^53 + 1: parsed
            "0.0000000000000000000001", // 22 digits after the point: fast
            "0.00000000000000000000001",
            "0.0000009007199254740991", // 2^53 − 1 over 10^22: fast
            "0.00000009007199254740991",
            "1.0000000000000000000001",
            "123.4567890123456789012",
            "0.1",
            "0.3",
            "-0.0", // the sign bit survives the fast path
            "0.0",
            "-1.5",
            "18446744073709551615.0",
            "0.000000000000000000000000000000000000000000001",
        ] {
            let parsed: f64 = raw.parse().expect("test spelling parses");
            assert_eq!(
                read_f64(raw).map(f64::to_bits),
                Some(parsed.to_bits()),
                "{raw}"
            );
        }
    }

    #[test]
    fn a_nan_percentile_or_cdf_point_answers_none() {
        let s = QuantileSketch::from_values(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.quantile(f64::NAN), None);
        assert_eq!(s.cdf(f64::NAN), None);
        let zeros = QuantileSketch::from_values(&[0.0, 0.0, 30.0, 40.0]);
        assert_eq!(zeros.quantile(f64::NAN), None);
        assert_eq!(zeros.cdf(f64::NAN), None);
        // Every other input still has an answer.
        for p in [f64::NEG_INFINITY, -1.0, 0.0, 50.0, 100.0, f64::INFINITY] {
            assert!(s.quantile(p).is_some(), "p{p}");
            assert!(s.cdf(p).is_some(), "x = {p}");
        }
    }

    #[test]
    fn boxplot_fields_are_quantile_bits() {
        let mut zeros = QuantileSketch::default();
        zeros.insert_n(0.0, 9);
        zeros.insert_n(3.5, 2);
        let sketches = SERVED.map(|raw| QuantileSketch::decode(raw).expect("fixture decodes"));
        for s in sketches
            .iter()
            .chain(&[spread(1), spread(7), spread(257), zeros])
        {
            let bp = s.boxplot().expect("non-empty");
            for (p, field) in [
                (5.0, bp.p5),
                (25.0, bp.p25),
                (50.0, bp.p50),
                (75.0, bp.p75),
                (95.0, bp.p95),
            ] {
                assert_eq!(
                    s.quantile(p).map(f64::to_bits),
                    Some(field.to_bits()),
                    "p{p}"
                );
            }
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected_or_read_as_the_tree_reads_it() {
        let mut below_one = QuantileSketch::default();
        below_one.insert_n(0.25, 3);
        below_one.insert_n(1e15, 2);
        let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64 * 1.5).collect();
        for s in [
            QuantileSketch::default(),
            below_one,
            QuantileSketch::from_values(&values),
        ] {
            let wire = s.encode();
            assert_eq!(QuantileSketch::decode(&wire), Some(s));
            for cut in 0..wire.len() {
                assert_eq!(QuantileSketch::decode(&wire[..cut]), None, "cut at {cut}");
            }
            for bit in 0..wire.len() * 8 {
                let mut bytes = wire.as_bytes().to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                // `decode` takes a `&str`: bytes that are not UTF-8 never reach it.
                if let Ok(flipped) = String::from_utf8(bytes) {
                    assert_never_more_lenient(&flipped);
                }
            }
        }
    }

    #[test]
    fn fixed_corners_match_the_tree_reference() {
        let with = |inserts: &[(f64, u64)]| {
            let mut s = QuantileSketch::new(0.02);
            for &(v, n) in inserts {
                s.insert_n(v, n);
            }
            s
        };
        for (s, reads_back) in [
            (QuantileSketch::default(), true),
            (with(&[(0.0, 3)]), true),
            (with(&[(-0.0, 1)]), true),
            (with(&[(-7.5, 2)]), true),
            (with(&[(42.0, 1)]), true),
            (with(&[(1.0, 1)]), true),
            (with(&[(1e-9, 1), (0.25, 4)]), true),
            (with(&[(1e15, 1)]), true),
            (with(&[(123_456_789.0, 8_200_000)]), true),
            (with(&[(3.0, u64::MAX)]), false),
            (with(&[(1e300, 1)]), false),
            (with(&[(f64::INFINITY, 1)]), false),
        ] {
            let wire = s.encode();
            assert_eq!(wire, tree_encode(&s));
            let decoded = QuantileSketch::decode(&wire);
            assert_eq!(decoded, tree_decode(&wire), "{wire}");
            assert_eq!(decoded, reads_back.then_some(s), "{wire}");
        }
    }

    #[test]
    fn a_float_without_a_point_has_to_fit_an_integer_as_for_the_tree() {
        let wire = QuantileSketch::from_values(&[3.0, 40.0]).encode();
        for (sum, reads) in [
            ("1000000000000000", true),
            ("999999999999999", false),
            ("18446744073709551615", true),
            ("18446744073709551616", false),
            ("-1000000000000000", true),
            ("-9223372036854775808", true),
            ("-9223372036854775809", false),
        ] {
            let edited = wire.replace("\"sum\":43.0", &format!("\"sum\":{sum}"));
            let decoded = QuantileSketch::decode(&edited);
            assert_eq!(decoded.is_some(), reads, "{sum}");
            if reads {
                assert_eq!(decoded, tree_decode(&edited), "{sum}");
                assert_eq!(decoded.map(|s| s.sum()), sum.parse().ok());
            }
        }
    }

    #[test]
    fn bucket_counts_past_u64_are_rejected() {
        // Two buckets of u64::MAX: the old decoder's `.sum()` panicked a
        // debug build here and wrapped to an inconsistent count in release.
        let max = u64::MAX;
        let wire = format!(
            "{{\"alpha\":0.01,\"zero\":0,\"buckets\":[[1,{max}],[2,{max}]],\
             \"sum\":2.0,\"min\":1.0,\"max\":1.0}}"
        );
        assert_eq!(QuantileSketch::decode(&wire), None);
        // The zero bucket is part of the same total.
        let wire = wire
            .replace("\"zero\":0", "\"zero\":1")
            .replace(&format!(",[2,{max}]"), "");
        assert_eq!(QuantileSketch::decode(&wire), None);
        // One below the edge is a sketch.
        let wire = wire.replace("\"zero\":1", "\"zero\":0");
        assert_eq!(QuantileSketch::decode(&wire).map(|s| s.count()), Some(max));
    }

    #[test]
    fn non_canonical_spellings_are_rejected() {
        let s = QuantileSketch::from_values(&[3.0, 40.0]);
        let wire = s.encode();
        assert_eq!(QuantileSketch::decode(&wire), Some(s));
        for (from, to) in [
            ("\"alpha\":0.01", "\"alpha\":1e-2"),
            ("\"alpha\":0.01", "\"alpha\":00.01"),
            ("\"alpha\":0.01", "\"alpha\":.01"),
            ("\"zero\":0", "\"zero\":00"),
            ("\"zero\":0", "\"zero\":-0"),
            ("\"zero\":0", "\"zero\":0.0"),
            ("\"sum\":43.0", "\"sum\":43"),
            ("\"sum\":43.0", "\"sum\":43."),
            ("\"sum\":43.0", "\"sum\":+43.0"),
            ("\"min\":3.0,\"max\":40.0", "\"min\":40.0,\"max\":3.0"),
            ("\"min\":3.0", "\"min\":null"),
            ("\"buckets\":[[", "\"buckets\":[[0,0],["),
            ("]],", "]],\"extra\":1,"),
        ] {
            assert!(wire.contains(from), "{from} not in {wire}");
            let edited = wire.replacen(from, to, 1);
            assert_eq!(QuantileSketch::decode(&edited), None, "{edited}");
        }
        // An empty sketch with a bound, and a full one without.
        let empty = QuantileSketch::default().encode();
        assert_eq!(
            QuantileSketch::decode(&empty.replace("\"min\":null", "\"min\":1.0")),
            None
        );
    }

    fn assert_within_bound(sketch: &QuantileSketch, values: &[f64], p: f64) {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = percentile_nearest_rank(&sorted, p).unwrap();
        let served = sketch.quantile(p).unwrap();
        let bound = sketch.relative_error_bound() * exact.abs() + 1e-12;
        assert!(
            (served - exact).abs() <= bound,
            "p{p}: served {served} vs exact {exact} (bound {bound})"
        );
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(50.0), None);
        assert_eq!(s.cdf(10.0), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.boxplot(), None);
        assert!(s.histogram().is_empty());
        assert_eq!(s.wasserstein(&QuantileSketch::default()), None);
    }

    #[test]
    fn single_value_is_exact_everywhere() {
        let mut s = QuantileSketch::default();
        s.insert(42.0);
        for p in [0.0, 5.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(s.quantile(p), Some(42.0), "p{p}");
        }
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
        assert_eq!(s.cdf(41.0), Some(0.0));
        assert_eq!(s.cdf(42.0), Some(1.0));
    }

    #[test]
    fn zero_values_are_exact() {
        let mut s = QuantileSketch::default();
        s.insert_n(0.0, 10);
        s.insert_n(100.0, 10);
        assert_eq!(s.quantile(25.0), Some(0.0));
        assert!((s.cdf(0.0).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(s.count(), 20);
    }

    #[test]
    fn quantiles_within_documented_bound() {
        let values: Vec<f64> = (1..=1000).map(|i| (i as f64).powf(1.3)).collect();
        let s = QuantileSketch::from_values(&values);
        for p in [1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
            assert_within_bound(&s, &values, p);
        }
    }

    #[test]
    fn merge_equals_bulk_build() {
        let a: Vec<f64> = (1..=500).map(|i| i as f64 * 0.7).collect();
        let b: Vec<f64> = (1..=300).map(|i| i as f64 * 1.9 + 3.0).collect();
        let mut merged = QuantileSketch::from_values(&a);
        merged.merge(&QuantileSketch::from_values(&b));
        let mut all = a.clone();
        all.extend(&b);
        let bulk = QuantileSketch::from_values(&all);
        assert_eq!(merged, bulk);
        assert_eq!(merged.encode(), bulk.encode(), "byte-identical encoding");
        // Commutative in effect.
        let mut flipped = QuantileSketch::from_values(&b);
        flipped.merge(&QuantileSketch::from_values(&a));
        assert_eq!(flipped.encode(), bulk.encode());
    }

    #[test]
    #[should_panic(expected = "different accuracy")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01);
        a.merge(&QuantileSketch::new(0.02));
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let values: Vec<f64> = (1..=200).map(|i| (i * 7 % 97) as f64 + 1.0).collect();
        let s = QuantileSketch::from_values(&values);
        let mut prev = 0.0;
        for x in 0..110 {
            let c = s.cdf(x as f64).unwrap();
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev, "cdf not monotone at {x}");
            prev = c;
        }
        assert_eq!(s.cdf(0.5), Some(0.0));
        assert_eq!(s.cdf(1000.0), Some(1.0));
    }

    #[test]
    fn cdf_exact_at_bucket_boundaries() {
        // Values far enough apart to occupy distinct buckets: the CDF at
        // any point between two buckets is the exact fraction below.
        let values = [1.0, 10.0, 100.0, 1000.0];
        let s = QuantileSketch::from_values(&values);
        assert!((s.cdf(5.0).unwrap() - 0.25).abs() < 1e-12);
        assert!((s.cdf(50.0).unwrap() - 0.5).abs() < 1e-12);
        assert!((s.cdf(500.0).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_rows_cover_all_mass() {
        let values = [0.0, 0.0, 3.0, 3.0, 3.0, 90.0];
        let s = QuantileSketch::from_values(&values);
        let rows = s.histogram();
        assert_eq!(rows[0], (0.0, 0.0, 2));
        let total: u64 = rows.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total, s.count());
        for w in rows.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-12, "rows out of order");
        }
    }

    #[test]
    fn wasserstein_tracks_translation() {
        let a: Vec<f64> = (1..=400).map(|i| 50.0 + (i % 20) as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 2.0).collect();
        let sa = QuantileSketch::from_values(&a);
        let sb = QuantileSketch::from_values(&b);
        let d = sa.wasserstein(&sb).unwrap();
        let exact = crate::wasserstein::wasserstein_1d(&a, &b);
        // Relative bound on values plus the grid discretisation.
        assert!(
            (d - exact).abs() <= 0.05 * exact + 1.0,
            "sketch W1 {d} vs exact {exact}"
        );
        assert!((sa.wasserstein(&sa).unwrap()).abs() < 1e-9);
        // Symmetric.
        assert!((sa.wasserstein(&sb).unwrap() - sb.wasserstein(&sa).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let values: Vec<f64> = (0..300).map(|i| (i % 37) as f64 * 1.5).collect();
        let s = QuantileSketch::from_values(&values);
        let decoded = QuantileSketch::decode(&s.encode()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.encode(), s.encode());
        // Empty sketch round-trips too.
        let e = QuantileSketch::default();
        assert_eq!(QuantileSketch::decode(&e.encode()).unwrap(), e);
        // Garbage is rejected, not misparsed.
        assert!(QuantileSketch::decode("not json").is_none());
        assert!(QuantileSketch::decode("{\"alpha\":7.0}").is_none());
    }

    #[test]
    fn a_megabyte_of_open_brackets_is_rejected() {
        // The bucket reservation reads the input's length: a long run that
        // is no bucket at all is refused like any other garbage.
        let raw = format!(
            "{{\"alpha\":0.01,\"zero\":0,\"buckets\":[{}",
            "[".repeat(1 << 20)
        );
        assert!(QuantileSketch::decode(&raw).is_none());
    }

    #[test]
    fn gamma_power_boundary_rounds_down() {
        // The documented boundary rule, opposite of tero_trace::obs::Histogram:
        // a value exactly γ^k closes (is the upper bound of) bucket k.
        let s = QuantileSketch::new(0.01);
        let gamma: f64 = (1.0 + 0.01) / (1.0 - 0.01);
        let k = 10;
        let boundary = gamma.powi(k);
        assert_eq!(s.bucket_for(boundary), k);
        assert_eq!(s.bucket_for(boundary * 1.000001), k + 1);
    }

    #[test]
    fn boxplot_matches_exact_within_bound() {
        let values: Vec<f64> = (1..=777).map(|i| 20.0 + (i % 113) as f64).collect();
        let s = QuantileSketch::from_values(&values);
        let bp = s.boxplot().unwrap();
        assert_eq!(bp.n as u64, s.count());
        for (p, served) in [
            (5.0, bp.p5),
            (25.0, bp.p25),
            (50.0, bp.p50),
            (75.0, bp.p75),
            (95.0, bp.p95),
        ] {
            let exact = percentile_nearest_rank(&values, p).unwrap();
            assert!(
                (served - exact).abs() <= s.relative_error_bound() * exact + 1e-12,
                "p{p}: {served} vs {exact}"
            );
        }
    }
}
