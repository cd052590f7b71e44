//! 3-level quad-tree model of spatially correlated within-die variation.
//!
//! Following Agarwal et al. (ICCAD'03) — the method the paper cites for its
//! Monte-Carlo engine — the die is recursively partitioned into quadrants.
//! Each level `l` contributes an independent Gaussian per quadrant, and the
//! correlated parameter at a point is the sum of the contributions of the
//! quadrants containing it. Points in the same small quadrant share all
//! levels (fully correlated); far-apart points share only the top level.
//!
//! The total variance is split equally across levels, so the field has
//! standard deviation `sigma` at every point while exhibiting distance-
//! dependent correlation.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//! use vlsi::quadtree::QuadTreeField;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let field = QuadTreeField::sample(3, 0.05, &mut rng);
//! let v = field.value_at(0.25, 0.75);
//! assert!(v.is_finite());
//! ```

use crate::math::sample_standard_normal;
use rand::Rng;

/// A sampled, spatially correlated Gaussian field over the unit square.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadTreeField {
    /// `levels[l]` holds `4^(l+1)` quadrant values in row-major order
    /// (a `2^(l+1)` × `2^(l+1)` grid).
    levels: Vec<Vec<f64>>,
    sigma: f64,
}

impl QuadTreeField {
    /// Samples a new field with `levels` quad-tree levels and point-wise
    /// standard deviation `sigma`.
    ///
    /// The paper uses 3 levels. A `sigma` of zero produces the all-zero
    /// field.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0` or `levels > 8`, or if `sigma` is negative.
    pub fn sample<R: Rng + ?Sized>(levels: usize, sigma: f64, rng: &mut R) -> Self {
        assert!((1..=8).contains(&levels), "levels must be in 1..=8");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        let per_level_sigma = sigma / (levels as f64).sqrt();
        let grids = (0..levels)
            .map(|l| {
                let side = 2usize << l; // 2^(l+1)
                (0..side * side)
                    .map(|_| per_level_sigma * sample_standard_normal(rng))
                    .collect()
            })
            .collect();
        Self {
            levels: grids,
            sigma,
        }
    }

    /// The field with no variation (always evaluates to 0).
    pub fn zero(levels: usize) -> Self {
        assert!((1..=8).contains(&levels), "levels must be in 1..=8");
        Self {
            levels: (0..levels)
                .map(|l| {
                    let side = 2usize << l;
                    vec![0.0; side * side]
                })
                .collect(),
            sigma: 0.0,
        }
    }

    /// The point-wise standard deviation the field was sampled with.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Number of quad-tree levels.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Evaluates the field at normalized die coordinates `(x, y) ∈ [0, 1]²`.
    ///
    /// Coordinates are clamped to the unit square.
    pub fn value_at(&self, x: f64, y: f64) -> f64 {
        let x = x.clamp(0.0, 1.0);
        let y = y.clamp(0.0, 1.0);
        let mut sum = 0.0;
        for (l, grid) in self.levels.iter().enumerate() {
            let side = 2usize << l;
            let cx = ((x * side as f64) as usize).min(side - 1);
            let cy = ((y * side as f64) as usize).min(side - 1);
            sum += grid[cy * side + cx];
        }
        sum
    }

    /// Side length of the finest-level grid (`2^levels`).
    pub fn finest_side(&self) -> usize {
        2usize << (self.levels.len() - 1)
    }

    /// Flattens the whole tree into one plane: the field value of every
    /// finest-level leaf, row-major over the `finest_side()²` grid.
    ///
    /// Because each coarser quadrant fully contains its finer children,
    /// [`QuadTreeField::value_at`] is constant within a finest-level leaf,
    /// and the per-leaf totals here are produced by the *same* level-order
    /// summation — so `leaf_totals()[cy * side + cx]` is bit-identical to
    /// `value_at(x, y)` for any `(x, y)` inside leaf `(cx, cy)`. This is the
    /// kernel the SoA batch sampler gathers from instead of descending the
    /// tree once per cell.
    pub fn leaf_totals(&self) -> Vec<f64> {
        let levels = self.levels.len();
        let side = self.finest_side();
        let mut out = vec![0.0f64; side * side];
        for cy in 0..side {
            for cx in 0..side {
                // Same accumulation order as `value_at`: coarse to fine,
                // starting from 0.0.
                let mut sum = 0.0;
                for (l, grid) in self.levels.iter().enumerate() {
                    let s = 2usize << l;
                    let shift = levels - 1 - l;
                    sum += grid[(cy >> shift) * s + (cx >> shift)];
                }
                out[cy * side + cx] = sum;
            }
        }
        out
    }

    /// Finest-level leaf index (`cy * side + cx`) containing the clamped
    /// point `(x, y)` — the gather index matching [`Self::leaf_totals`].
    pub fn leaf_index_at(levels: usize, x: f64, y: f64) -> usize {
        assert!((1..=8).contains(&levels), "levels must be in 1..=8");
        let side = 2usize << (levels - 1);
        let x = x.clamp(0.0, 1.0);
        let y = y.clamp(0.0, 1.0);
        let cx = ((x * side as f64) as usize).min(side - 1);
        let cy = ((y * side as f64) as usize).min(side - 1);
        cy * side + cx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zero_field_is_zero_everywhere() {
        let f = QuadTreeField::zero(3);
        assert_eq!(f.value_at(0.1, 0.9), 0.0);
        assert_eq!(f.value_at(0.5, 0.5), 0.0);
        assert_eq!(f.sigma(), 0.0);
    }

    #[test]
    fn nearby_points_share_all_levels() {
        let mut rng = SmallRng::seed_from_u64(3);
        let f = QuadTreeField::sample(3, 0.05, &mut rng);
        // Two points inside the same finest quadrant see identical values.
        let a = f.value_at(0.01, 0.01);
        let b = f.value_at(0.02, 0.02);
        assert_eq!(a, b);
    }

    #[test]
    fn pointwise_sigma_matches_request() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut s = Summary::new();
        // Sample many independent fields at a fixed point.
        for _ in 0..20_000 {
            let f = QuadTreeField::sample(3, 0.05, &mut rng);
            s.push(f.value_at(0.3, 0.6));
        }
        assert!(s.mean().abs() < 0.002, "mean={}", s.mean());
        assert!((s.std_dev() - 0.05).abs() < 0.002, "sd={}", s.std_dev());
    }

    #[test]
    fn empirical_correlation_decays_with_distance() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 8_000;
        let mut close_prod = 0.0;
        let mut far_prod = 0.0;
        for _ in 0..n {
            let f = QuadTreeField::sample(3, 1.0, &mut rng);
            let origin = f.value_at(0.05, 0.05);
            // Same top quadrant, different mid/fine quadrants.
            close_prod += origin * f.value_at(0.30, 0.30);
            far_prod += origin * f.value_at(0.95, 0.95);
        }
        let close_corr = close_prod / n as f64;
        let far_corr = far_prod / n as f64;
        assert!(close_corr > 0.15, "close={close_corr}");
        assert!(far_corr.abs() < 0.05, "far={far_corr}");
        assert!(close_corr > far_corr);
    }

    #[test]
    fn coordinates_are_clamped() {
        let mut rng = SmallRng::seed_from_u64(9);
        let f = QuadTreeField::sample(3, 0.05, &mut rng);
        assert_eq!(f.value_at(-1.0, -5.0), f.value_at(0.0, 0.0));
        assert_eq!(f.value_at(2.0, 3.0), f.value_at(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "levels must be in 1..=8")]
    fn zero_levels_rejected() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = QuadTreeField::sample(0, 0.05, &mut rng);
    }

    #[test]
    fn leaf_totals_are_bit_identical_to_value_at() {
        let mut rng = SmallRng::seed_from_u64(21);
        for levels in 1..=4usize {
            let f = QuadTreeField::sample(levels, 0.07, &mut rng);
            let totals = f.leaf_totals();
            let side = f.finest_side();
            assert_eq!(totals.len(), side * side);
            // Probe several points per leaf, including exact leaf corners
            // and the clamped x = 1.0 edge.
            for cy in 0..side {
                for cx in 0..side {
                    for (fx, fy) in [(0.0, 0.0), (0.5, 0.5), (0.999, 0.001)] {
                        let x = (cx as f64 + fx) / side as f64;
                        let y = (cy as f64 + fy) / side as f64;
                        let idx = QuadTreeField::leaf_index_at(levels, x, y);
                        assert_eq!(idx, cy * side + cx);
                        assert_eq!(totals[idx], f.value_at(x, y), "leaf ({cx},{cy})");
                    }
                }
            }
            assert_eq!(
                f.value_at(1.0, 1.0),
                totals[side * side - 1],
                "clamped corner"
            );
        }
    }

    #[test]
    fn determinism_under_same_seed() {
        let f1 = QuadTreeField::sample(3, 0.05, &mut SmallRng::seed_from_u64(77));
        let f2 = QuadTreeField::sample(3, 0.05, &mut SmallRng::seed_from_u64(77));
        assert_eq!(f1, f2);
    }
}
