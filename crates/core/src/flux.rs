//! The piecewise non-linear electromagnetic coupling function of the
//! micro-generator.
//!
//! The paper describes the "magnetic flux through the coil" as a piecewise
//! non-linear function `Φ(z)` of the relative displacement, used as
//! `vem = Φ(z)·ż` and `Fem = Φ(z)·i` (Eqs. 2–6). Dimensional analysis of the
//! published sections (Eqs. 3 and 4, units `T·m·turns = V·s/m`) shows that
//! this quantity is the **flux-linkage gradient** — the electromagnetic
//! coupling factor — which is how it is implemented and named here.
//!
//! The paper publishes two of the seven sections and omits the remaining five
//! "due to space limitation"; this module reconstructs a continuous
//! seven-section function that matches the two published sections exactly and
//! bridges the others with monotone cubic interpolation. The omitted sections
//! cannot be recovered, so the substitute is chosen to add nothing the
//! published ones do not imply: it is continuous at every section boundary,
//! and the monotone interpolant introduces no overshoot or extra extrema
//! between the published values.

use crate::params::MicroGeneratorParams;
use harvester_numerics::interp::MonotoneCubic;

/// Which of the seven sections of the coupling function a displacement falls
/// into (sections are symmetric in `|z|`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingSection {
    /// `|z| < r`: coil fully inside the magnet gap — the paper's Eq. (3).
    Inner,
    /// `r ≤ |z| < R`: the coil's inner edge has left the gap.
    InnerTransition,
    /// `R ≤ |z| < H − R`: bridge region between the published sections.
    Bridge,
    /// `H − R ≤ |z| < H − r`: approaching the opposite magnet pair.
    OuterTransition,
    /// `H − r ≤ |z| < H`: opposite pair region — the paper's Eq. (4).
    Outer,
    /// `H ≤ |z| < H + R`: leaving the magnet structure.
    Tail,
    /// `|z| ≥ H + R`: outside the structure, no coupling.
    Beyond,
}

/// The reconstructed seven-section electromagnetic coupling function
/// `k(z) = dΦ/dz` in V·s/m.
#[derive(Debug, Clone)]
pub struct CouplingFunction {
    inner_radius: f64,
    outer_radius: f64,
    magnet_height: f64,
    scale: f64,
    bridge: MonotoneCubic,
    tail: MonotoneCubic,
}

impl CouplingFunction {
    /// Builds the coupling function from the generator geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see
    /// [`MicroGeneratorParams::is_valid`]).
    pub fn new(params: &MicroGeneratorParams) -> Self {
        assert!(
            params.is_valid(),
            "cannot build a coupling function from invalid generator geometry"
        );
        let r = params.inner_radius;
        let big_r = params.outer_radius;
        let h = params.magnet_height;
        let scale = 2.0 * params.flux_density * params.coil_turns;

        // Published section values at the bridge end-points. The analytic
        // slope of Eq. (3) diverges at |z| = r (the √(r² − z²) term), so the
        // bridge is only required to match the published sections in *value*;
        // its interior slopes come from the Fritsch–Carlson limiter, which
        // guarantees a monotone, overshoot-free reconstruction.
        let inner_at = |z: f64| (big_r * big_r - z * z).sqrt() + (r * r - z * z).max(0.0).sqrt();
        let k_at_r = inner_at(r) * scale;
        let bridge = MonotoneCubic::new(vec![r, 0.5 * h, h - r], vec![k_at_r, 0.0, -k_at_r])
            .expect("bridge knots are strictly increasing for valid geometry");

        // Tail: from the negative peak at |z| = H back to zero once the coil
        // has fully left the magnet structure at |z| = H + R.
        let k_at_h = -(big_r + r) * scale;
        let tail = MonotoneCubic::new(vec![h, h + big_r], vec![k_at_h, 0.0])
            .expect("tail knots are strictly increasing for valid geometry");

        CouplingFunction {
            inner_radius: r,
            outer_radius: big_r,
            magnet_height: h,
            scale,
            bridge,
            tail,
        }
    }

    /// The section of the piecewise function that `z` falls into.
    pub fn section(&self, z: f64) -> CouplingSection {
        let a = z.abs();
        let (r, big_r, h) = (self.inner_radius, self.outer_radius, self.magnet_height);
        if a < r {
            CouplingSection::Inner
        } else if a < big_r {
            CouplingSection::InnerTransition
        } else if a < h - big_r {
            CouplingSection::Bridge
        } else if a < h - r {
            CouplingSection::OuterTransition
        } else if a < h {
            CouplingSection::Outer
        } else if a < h + big_r {
            CouplingSection::Tail
        } else {
            CouplingSection::Beyond
        }
    }

    /// Coupling factor `k(z) = dΦ/dz` in V·s/m.
    ///
    /// The function is even in `z` (the geometry of Fig. 3 is symmetric about
    /// the rest position).
    pub fn value(&self, z: f64) -> f64 {
        let a = z.abs();
        let (r, big_r, h) = (self.inner_radius, self.outer_radius, self.magnet_height);
        match self.section(z) {
            CouplingSection::Inner => {
                // Paper Eq. (3).
                ((big_r * big_r - a * a).sqrt() + (r * r - a * a).sqrt()) * self.scale
            }
            CouplingSection::Outer => {
                // Paper Eq. (4).
                let d = h - a;
                -(((big_r * big_r - d * d).max(0.0)).sqrt() + ((r * r - d * d).max(0.0)).sqrt())
                    * self.scale
            }
            CouplingSection::InnerTransition
            | CouplingSection::Bridge
            | CouplingSection::OuterTransition => self.bridge.value(a),
            CouplingSection::Tail => self.tail.value(a),
            CouplingSection::Beyond => 0.0,
        }
    }

    /// Numerical derivative `dk/dz`, used for the Jacobian of the analytical
    /// generator model.
    pub fn derivative(&self, z: f64) -> f64 {
        let h = (self.inner_radius * 1e-3).max(1e-9);
        (self.value(z + h) - self.value(z - h)) / (2.0 * h)
    }

    /// Peak coupling, attained at the rest position:
    /// `k(0) = 2·B·N·(R + r)`.
    pub fn peak(&self) -> f64 {
        self.value(0.0)
    }

    /// Largest displacement with any coupling (`H + R`).
    pub fn extent(&self) -> f64 {
        self.magnet_height + self.outer_radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MicroGeneratorParams;

    fn coupling() -> CouplingFunction {
        CouplingFunction::new(&MicroGeneratorParams::unoptimised())
    }

    #[test]
    fn peak_matches_analytic_formula() {
        let p = MicroGeneratorParams::unoptimised();
        let k = coupling();
        assert!((k.peak() - p.coupling_at_rest()).abs() < 1e-12);
        assert!(
            (k.value(0.0)
                - 2.0 * p.flux_density * p.coil_turns * (p.outer_radius + p.inner_radius))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn function_is_even() {
        let k = coupling();
        for &z in &[0.1e-3, 0.5e-3, 1.0e-3, 2.0e-3, 2.9e-3, 3.5e-3] {
            assert!(
                (k.value(z) - k.value(-z)).abs() < 1e-12,
                "k must be even in z"
            );
        }
    }

    #[test]
    fn published_sections_match_equations() {
        let p = MicroGeneratorParams::unoptimised();
        let k = coupling();
        // Eq. (3) inside |z| < r.
        let z = 0.5 * p.inner_radius;
        let expected = ((p.outer_radius.powi(2) - z * z).sqrt()
            + (p.inner_radius.powi(2) - z * z).sqrt())
            * 2.0
            * p.flux_density
            * p.coil_turns;
        assert!((k.value(z) - expected).abs() < 1e-12);
        // Eq. (4) inside H - r < |z| < H.
        let z = p.magnet_height - 0.5 * p.inner_radius;
        let d = p.magnet_height - z;
        let expected = -((p.outer_radius.powi(2) - d * d).sqrt()
            + (p.inner_radius.powi(2) - d * d).sqrt())
            * 2.0
            * p.flux_density
            * p.coil_turns;
        assert!((k.value(z) - expected).abs() < 1e-12);
    }

    #[test]
    fn sections_are_classified_correctly() {
        let p = MicroGeneratorParams::unoptimised();
        let k = coupling();
        assert_eq!(k.section(0.0), CouplingSection::Inner);
        assert_eq!(
            k.section(0.5 * (p.inner_radius + p.outer_radius)),
            CouplingSection::InnerTransition
        );
        assert_eq!(k.section(0.5 * p.magnet_height), CouplingSection::Bridge);
        assert_eq!(
            k.section(p.magnet_height - 0.5 * (p.inner_radius + p.outer_radius)),
            CouplingSection::OuterTransition
        );
        assert_eq!(
            k.section(p.magnet_height - 0.5 * p.inner_radius),
            CouplingSection::Outer
        );
        assert_eq!(
            k.section(p.magnet_height + 0.5 * p.outer_radius),
            CouplingSection::Tail
        );
        assert_eq!(k.section(2.0 * p.magnet_height), CouplingSection::Beyond);
    }

    #[test]
    fn coupling_is_continuous_across_all_section_boundaries() {
        let p = MicroGeneratorParams::unoptimised();
        let k = coupling();
        let boundaries = [
            p.inner_radius,
            p.outer_radius,
            p.magnet_height - p.outer_radius,
            p.magnet_height - p.inner_radius,
            p.magnet_height,
            p.magnet_height + p.outer_radius,
        ];
        for &b in &boundaries {
            let below = k.value(b - 1e-9);
            let above = k.value(b + 1e-9);
            let scale = k.peak();
            assert!(
                (below - above).abs() < 0.02 * scale,
                "discontinuity at |z|={b}: {below} vs {above}"
            );
        }
    }

    #[test]
    fn coupling_is_monotone_decreasing_up_to_the_magnet_height() {
        let p = MicroGeneratorParams::unoptimised();
        let k = coupling();
        let mut prev = k.value(0.0);
        let mut z = 0.0;
        while z < p.magnet_height * 0.999 {
            z += p.magnet_height / 2000.0;
            let v = k.value(z);
            assert!(
                v <= prev + 1e-9 * k.peak(),
                "coupling must not increase with |z| before the tail (z={z})"
            );
            prev = v;
        }
        // In the tail the coupling relaxes back towards zero.
        assert!(k.value(p.magnet_height + 0.5 * p.outer_radius) > k.value(p.magnet_height));
    }

    #[test]
    fn coupling_vanishes_beyond_the_structure() {
        let k = coupling();
        assert_eq!(k.value(k.extent() * 1.01), 0.0);
        assert_eq!(k.value(-k.extent() * 2.0), 0.0);
    }

    #[test]
    fn sign_reverses_near_the_opposite_magnets() {
        let p = MicroGeneratorParams::unoptimised();
        let k = coupling();
        assert!(k.value(0.0) > 0.0);
        assert!(k.value(p.magnet_height - 0.5 * p.inner_radius) < 0.0);
        assert!(k.value(p.magnet_height * 0.5).abs() < 0.05 * k.peak());
    }

    #[test]
    fn derivative_is_negative_in_the_inner_section() {
        let k = coupling();
        let p = MicroGeneratorParams::unoptimised();
        // In the inner section the coupling decreases with |z|.
        assert!(k.derivative(0.5 * p.inner_radius) < 0.0);
        // At exactly zero the even symmetry makes the derivative vanish.
        assert!(k.derivative(0.0).abs() < 1e-6 * k.peak() / p.inner_radius);
    }

    #[test]
    #[should_panic(expected = "invalid generator geometry")]
    fn invalid_geometry_is_rejected() {
        let mut p = MicroGeneratorParams::unoptimised();
        p.magnet_height = 1e-3;
        let _ = CouplingFunction::new(&p);
    }
}
