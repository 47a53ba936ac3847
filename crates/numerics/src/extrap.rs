//! Polynomial extrapolation (prediction) via Newton divided differences.
//!
//! The adaptive transient engine warm-starts each Newton solve — and builds
//! its local-truncation-error estimate — from a low-order polynomial fitted
//! through the last few *accepted* solution points. The steps are not
//! equidistant (that is the whole point of adaptive stepping), so the
//! predictor is expressed in Newton divided-difference form, which handles
//! arbitrary abscissae without conditioning tricks.
//!
//! All helpers are allocation-free for the orders the engine uses (the
//! divided-difference table lives in a small stack buffer up to
//! [`MAX_POINTS`] support points).

/// Largest number of support points the stack-allocated helpers accept.
///
/// The transient predictor never uses more than three accepted states (a
/// quadratic predictor matches the order of the trapezoidal corrector), so
/// a small fixed bound keeps every helper allocation-free.
pub const MAX_POINTS: usize = 4;

/// Computes the Newton divided-difference coefficients of the interpolating
/// polynomial through `(ts[k], ys[k])` into `coeffs`, returning the number of
/// coefficients written (`ts.len()`).
///
/// `coeffs[k]` is the `k`-th order divided difference `f[t0, …, tk]`; the
/// polynomial is `coeffs[0] + coeffs[1]·(t − t0) + coeffs[2]·(t − t0)(t −
/// t1) + …` and is evaluated by [`newton_eval`].
///
/// # Panics
///
/// Panics if the lengths differ, are zero, exceed [`MAX_POINTS`], two
/// abscissae coincide exactly, or `coeffs` is shorter than `ts`.
pub fn divided_differences(ts: &[f64], ys: &[f64], coeffs: &mut [f64]) -> usize {
    let n = ts.len();
    assert!(
        (1..=MAX_POINTS).contains(&n),
        "divided differences need 1..={MAX_POINTS} points, got {n}"
    );
    assert_eq!(n, ys.len(), "abscissae and ordinates must pair up");
    assert!(coeffs.len() >= n, "coefficient buffer too small");
    coeffs[..n].copy_from_slice(ys);
    for order in 1..n {
        // Work bottom-up so each slot is overwritten only after it has been
        // consumed by the previous order.
        for k in (order..n).rev() {
            let denom = ts[k] - ts[k - order];
            assert!(
                denom != 0.0,
                "divided differences need pairwise-distinct abscissae"
            );
            coeffs[k] = (coeffs[k] - coeffs[k - 1]) / denom;
        }
    }
    n
}

/// Evaluates a Newton-form polynomial (coefficients from
/// [`divided_differences`]) at `t` using Horner's scheme.
///
/// # Panics
///
/// Panics if `ts` and `coeffs` have different lengths or are empty.
pub fn newton_eval(ts: &[f64], coeffs: &[f64], t: f64) -> f64 {
    assert_eq!(ts.len(), coeffs.len(), "one coefficient per support point");
    assert!(!coeffs.is_empty(), "cannot evaluate an empty polynomial");
    let mut acc = coeffs[coeffs.len() - 1];
    for k in (0..coeffs.len() - 1).rev() {
        acc = coeffs[k] + (t - ts[k]) * acc;
    }
    acc
}

/// Extrapolates every column of a row-major history block to time `t`.
///
/// `rows` holds `ts.len()` state snapshots of `width` values each (oldest
/// first, flat row-major — exactly the layout of the transient engine's
/// predictor ring). For each of the `width` unknowns the polynomial through
/// its history values is evaluated at `t` and written to `out`.
///
/// # Panics
///
/// As [`divided_differences`]; additionally panics if `rows` is not
/// `ts.len() * width` long or `out` is shorter than `width`.
pub fn extrapolate_rows(ts: &[f64], rows: &[f64], width: usize, t: f64, out: &mut [f64]) {
    let n = ts.len();
    assert!(
        (1..=MAX_POINTS).contains(&n),
        "row extrapolation needs 1..={MAX_POINTS} snapshots, got {n}"
    );
    assert_eq!(rows.len(), n * width, "history block has the wrong shape");
    assert!(out.len() >= width, "output buffer too small");
    let mut ys = [0.0f64; MAX_POINTS];
    let mut coeffs = [0.0f64; MAX_POINTS];
    for col in 0..width {
        for (k, y) in ys[..n].iter_mut().enumerate() {
            *y = rows[k * width + col];
        }
        divided_differences(ts, &ys[..n], &mut coeffs);
        out[col] = newton_eval(ts, &coeffs[..n], t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar predictor: a one-column history block.
    fn extrapolate(ts: &[f64], ys: &[f64], t: f64) -> f64 {
        let mut out = [0.0];
        extrapolate_rows(ts, ys, 1, t, &mut out);
        out[0]
    }

    #[test]
    fn constant_linear_and_quadratic_predictors_are_exact() {
        // One point: constant.
        assert_eq!(extrapolate(&[1.0], &[4.5], 10.0), 4.5);
        // Two points: linear.
        let lin = extrapolate(&[0.0, 2.0], &[1.0, 5.0], 3.0);
        assert!((lin - 7.0).abs() < 1e-12);
        // Three non-uniform points: quadratic, reproduced exactly.
        let f = |t: f64| -1.0 + 4.0 * t - 2.5 * t * t;
        let ts = [0.1, 0.35, 0.9];
        let ys = [f(0.1), f(0.35), f(0.9)];
        for t in [-1.0, 0.0, 1.3, 2.0] {
            assert!((extrapolate(&ts, &ys, t) - f(t)).abs() < 1e-10);
        }
    }

    #[test]
    fn extrapolation_error_shrinks_with_the_spacing() {
        // On a smooth non-polynomial function the quadratic predictor's
        // one-step-ahead error must scale like h³.
        let f = |t: f64| (3.0 * t).sin();
        let err = |h: f64| {
            let ts = [0.0, h, 2.0 * h];
            let ys = [f(ts[0]), f(ts[1]), f(ts[2])];
            (extrapolate(&ts, &ys, 3.0 * h) - f(3.0 * h)).abs()
        };
        let e1 = err(0.1);
        let e2 = err(0.05);
        assert!(
            e2 < e1 / 6.0,
            "halving h must shrink the error ~8x: {e1} vs {e2}"
        );
    }

    #[test]
    fn row_extrapolation_matches_the_scalar_path() {
        let ts = [0.0, 0.5, 1.25];
        // Two unknowns with different dynamics, flattened row-major.
        let col0 = |t: f64| 2.0 * t + 1.0;
        let col1 = |t: f64| t * t;
        let rows: Vec<f64> = ts.iter().flat_map(|&t| [col0(t), col1(t)]).collect();
        let mut out = [0.0f64; 2];
        extrapolate_rows(&ts, &rows, 2, 2.0, &mut out);
        assert!((out[0] - col0(2.0)).abs() < 1e-12);
        assert!((out[1] - col1(2.0)).abs() < 1e-12);

        let scalar0 = extrapolate(&ts, &[col0(0.0), col0(0.5), col0(1.25)], 2.0);
        assert_eq!(out[0], scalar0);
    }

    #[test]
    #[should_panic(expected = "pairwise-distinct")]
    fn coincident_abscissae_panic() {
        let _ = extrapolate(&[1.0, 1.0], &[0.0, 1.0], 2.0);
    }

    #[test]
    #[should_panic(expected = "points")]
    fn too_many_points_panic() {
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let _ = divided_differences(&ts, &ts, &mut [0.0; 5]);
    }
}
