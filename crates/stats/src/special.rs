//! Special functions: error function, normal distribution, log-gamma.
//!
//! Implemented from standard rational approximations so the workspace has no
//! numerical dependencies. `erf`/`erfc` follow W. J. Cody's SPECFUN `calerf`
//! (relative error below ~1e-16 in double precision); the normal quantile
//! uses Acklam's approximation with a Halley refinement.

// Cody's coefficients, region |x| <= 0.46875.
const ERF_A: [f64; 5] = [
    3.161_123_743_870_565_6e0,
    1.138_641_541_510_501_6e2,
    3.774_852_376_853_02e2,
    3.209_377_589_138_469_5e3,
    1.857_777_061_846_031_5e-1,
];
const ERF_B: [f64; 4] = [
    2.360_129_095_234_412_1e1,
    2.440_246_379_344_441_7e2,
    1.282_616_526_077_372_3e3,
    2.844_236_833_439_171e3,
];
// Region 0.46875 < x <= 4.
const ERF_C: [f64; 9] = [
    5.641_884_969_886_701e-1,
    8.883_149_794_388_376e0,
    6.611_919_063_714_163e1,
    2.986_351_381_974_001e2,
    8.819_522_212_417_69e2,
    1.712_047_612_634_070_6e3,
    2.051_078_377_826_071_5e3,
    1.230_339_354_797_997_2e3,
    2.153_115_354_744_038_5e-8,
];
const ERF_D: [f64; 8] = [
    1.574_492_611_070_983_5e1,
    1.176_939_508_913_125e2,
    5.371_811_018_620_099e2,
    1.621_389_574_566_690_2e3,
    3.290_799_235_733_459_7e3,
    4.362_619_090_143_247e3,
    3.439_367_674_143_721_6e3,
    1.230_339_354_803_749_4e3,
];
// Region x > 4.
const ERF_P: [f64; 6] = [
    3.053_266_349_612_323_4e-1,
    3.603_448_999_498_044_4e-1,
    1.257_817_261_112_292_5e-1,
    1.608_378_514_874_228e-2,
    6.587_491_615_298_378e-4,
    1.631_538_713_730_209_8e-2,
];
const ERF_Q: [f64; 5] = [
    2.568_520_192_289_822,
    1.872_952_849_923_460_4e0,
    5.279_051_029_514_284e-1,
    6.051_834_131_244_132e-2,
    2.335_204_976_268_691_8e-3,
];
const ONE_OVER_SQRT_PI: f64 = 5.641_895_835_477_563e-1;

/// `erfc(y)` for `y > 0.46875` via Cody's regions 2 and 3.
fn erfc_large(y: f64) -> f64 {
    let result = if y <= 4.0 {
        let mut xnum = ERF_C[8] * y;
        let mut xden = y;
        for i in 0..7 {
            xnum = (xnum + ERF_C[i]) * y;
            xden = (xden + ERF_D[i]) * y;
        }
        (xnum + ERF_C[7]) / (xden + ERF_D[7])
    } else {
        let z = 1.0 / (y * y);
        let mut xnum = ERF_P[5] * z;
        let mut xden = z;
        for i in 0..4 {
            xnum = (xnum + ERF_P[i]) * z;
            xden = (xden + ERF_Q[i]) * z;
        }
        let r = z * (xnum + ERF_P[4]) / (xden + ERF_Q[4]);
        (ONE_OVER_SQRT_PI - r) / y
    };
    // exp(-y²) computed in two pieces for accuracy (Cody's trick).
    let ysq = (y * 16.0).trunc() / 16.0;
    let del = (y - ysq) * (y + ysq);
    (-ysq * ysq).exp() * (-del).exp() * result
}

/// Error function, accurate to double precision.
pub(crate) fn erf(x: f64) -> f64 {
    let y = x.abs();
    if y <= 0.46875 {
        let z = if y > 1e-10 { y * y } else { 0.0 };
        let mut xnum = ERF_A[4] * z;
        let mut xden = z;
        for i in 0..3 {
            xnum = (xnum + ERF_A[i]) * z;
            xden = (xden + ERF_B[i]) * z;
        }
        x * (xnum + ERF_A[3]) / (xden + ERF_B[3])
    } else {
        let e = 1.0 - erfc_large(y);
        if x < 0.0 {
            -e
        } else {
            e
        }
    }
}

/// Complementary error function, accurate to double precision (including
/// the far tail, where `1 - erf(x)` would underflow to 0 in naive code).
pub(crate) fn erfc(x: f64) -> f64 {
    let y = x.abs();
    let r = if y <= 0.46875 {
        return 1.0 - erf(x);
    } else {
        erfc_large(y)
    };
    if x < 0.0 {
        2.0 - r
    } else {
        r
    }
}

/// Standard normal probability density.
pub(crate) fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse standard normal CDF (quantile function), via Acklam's algorithm
/// with a Halley refinement step. Accurate to ~1e-13 on `(0, 1)`.
pub(crate) fn inv_norm_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inv_norm_cdf requires p in (0,1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the high-precision CDF.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln C(n, k)` — log binomial coefficient via log-gamma.
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        let cases = [
            (0.0, 0.0),
            (0.1, 0.112_462_916_018_285),
            (0.5, 0.520_499_877_813_047),
            (1.0, 0.842_700_792_949_715),
            (2.0, 0.995_322_265_018_953),
            (3.0, 0.999_977_909_503_001),
            (-1.0, -0.842_700_792_949_715),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 1e-13,
                "erf({x}) = {:.15} ≠ {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn erfc_tail_does_not_underflow() {
        // erfc(10) ≈ 2.088e-45 — representable, though 1 - erf(10) is 0.
        let v = erfc(10.0);
        assert!(v > 0.0 && v < 1e-40, "erfc(10) = {v:e}");
        assert!((erfc(1.0) - (1.0 - erf(1.0))).abs() < 1e-15);
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-15);
    }

    #[test]
    fn norm_cdf_reference_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
        assert!((norm_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
        assert!((norm_cdf(-1.959_963_984_540_054) - 0.025).abs() < 1e-12);
        assert!((norm_cdf(1.0) - 0.841_344_746_068_543).abs() < 1e-13);
        assert!((norm_cdf(-3.0) - 1.349_898_031_630_09e-3).abs() < 1e-12);
    }

    #[test]
    fn inv_norm_cdf_round_trips() {
        for &p in &[
            1e-6,
            0.001,
            0.01,
            0.025,
            0.2,
            0.5,
            0.8,
            0.975,
            0.99,
            0.999,
            1.0 - 1e-6,
        ] {
            let x = inv_norm_cdf(p);
            assert!(
                (norm_cdf(x) - p).abs() < 1e-9 * p.max(1e-3),
                "p={p}: x={x}, cdf(x)={}",
                norm_cdf(x)
            );
        }
        assert!(inv_norm_cdf(0.5).abs() < 1e-8);
        assert!((inv_norm_cdf(0.975) - 1.959_963_984_540_054).abs() < 1e-8);
    }

    #[test]
    #[should_panic]
    fn inv_norm_cdf_rejects_bounds() {
        let _ = inv_norm_cdf(0.0);
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_choose_matches_small_cases() {
        assert!((ln_choose(5, 2) - 10.0f64.ln()).abs() < 1e-9);
        assert!(ln_choose(10, 0).abs() < 1e-9);
        assert!((ln_choose(52, 5) - 2_598_960.0f64.ln()).abs() < 1e-7);
        assert!(ln_choose(3, 5).is_infinite());
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        // Trapezoid integration of pdf from -8 to x should match cdf.
        let x_target = 1.3;
        let n = 20_000;
        let lo = -8.0;
        let h = (x_target - lo) / n as f64;
        let mut acc = 0.0;
        for i in 0..n {
            let a = lo + i as f64 * h;
            acc += (norm_pdf(a) + norm_pdf(a + h)) / 2.0 * h;
        }
        assert!((acc - norm_cdf(x_target)).abs() < 1e-6);
    }

    #[test]
    fn erf_is_odd_and_monotone() {
        let mut prev = -1.0;
        for i in -40..=40 {
            let x = i as f64 * 0.1;
            assert!((erf(x) + erf(-x)).abs() < 1e-15, "odd at {x}");
            assert!(erf(x) >= prev, "monotone at {x}");
            prev = erf(x);
        }
    }
}
