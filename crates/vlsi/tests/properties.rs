//! Property-based tests for the device and statistics layers.

use proptest::prelude::*;
use vlsi::celltech::CellTechKind;
use vlsi::tech::OperatingPoint;
use vlsi::cell3t1d::{
    access_time, decay_tau, decay_tau_slice, min_storage_voltage, retention_time,
    storage_voltage_at, stored_one_voltage, stored_one_voltage_slice, RetentionSolver,
};
use vlsi::cell6t::{access_time as access_6t, line_failure_probability, CellSize};
use vlsi::math::{erf, erf_slice, normal_cdf, normal_cdf_slice, normal_inv_cdf};
use vlsi::quadtree::QuadTreeField;
use vlsi::stats::{quantile, Histogram, Summary};
use vlsi::tech::TechNode;
use vlsi::units::{Time, Voltage};
use vlsi::variation::DeviceDeviation;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn dev_strategy() -> impl Strategy<Value = DeviceDeviation> {
    (-0.15f64..0.15, -120f64..120.0).prop_map(|(dl, mv)| DeviceDeviation {
        dl_frac: dl,
        dvth_random: Voltage::from_mv(mv),
    })
}

fn node_strategy() -> impl Strategy<Value = TechNode> {
    prop_oneof![
        Just(TechNode::N65),
        Just(TechNode::N45),
        Just(TechNode::N32)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn retention_is_finite_and_nonnegative(node in node_strategy(),
                                           t1 in dev_strategy(),
                                           t2 in dev_strategy()) {
        let r = retention_time(node, t1, t2);
        prop_assert!(r.value().is_finite());
        prop_assert!(r.value() >= 0.0);
        // And bounded by a sane physical ceiling (< 1 ms).
        prop_assert!(r.value() < 1e-3);
    }

    #[test]
    fn storage_voltage_decays_monotonically(node in node_strategy(),
                                            t1 in dev_strategy(),
                                            a_us in 0.0f64..20.0,
                                            b_us in 0.0f64..20.0) {
        let (early, late) = if a_us <= b_us { (a_us, b_us) } else { (b_us, a_us) };
        let va = storage_voltage_at(node, t1, Time::from_us(early));
        let vb = storage_voltage_at(node, t1, Time::from_us(late));
        prop_assert!(vb.volts() <= va.volts() + 1e-12);
    }

    #[test]
    fn access_time_never_beats_fresh(node in node_strategy(),
                                     t1 in dev_strategy(),
                                     t2 in dev_strategy(),
                                     us in 0.0f64..20.0) {
        let fresh = access_time(node, t1, t2, Time::ZERO);
        let later = access_time(node, t1, t2, Time::from_us(us));
        prop_assert!(later >= fresh);
    }

    #[test]
    fn access_crosses_6t_at_retention(node in node_strategy(),
                                      t1 in dev_strategy(),
                                      t2 in dev_strategy()) {
        let r = retention_time(node, t1, t2);
        prop_assume!(r.value() > 0.0);
        // Just before retention: at least as fast as 6T nominal; just
        // after: no faster (allowing tiny FP tolerance).
        let before = access_time(node, t1, t2, r * 0.995);
        let after = access_time(node, t1, t2, r * 1.005);
        let t6 = node.sram_access_nominal();
        prop_assert!(before.ps() <= t6.ps() * 1.001, "before={} t6={}", before.ps(), t6.ps());
        prop_assert!(after.ps() >= t6.ps() * 0.999, "after={} t6={}", after.ps(), t6.ps());
    }

    #[test]
    fn vmin_rises_with_weaker_read_devices(node in node_strategy(),
                                           mv in 0f64..150.0,
                                           dl in 0f64..0.12) {
        let weak = DeviceDeviation { dl_frac: dl, dvth_random: Voltage::from_mv(mv) };
        let vm_weak = min_storage_voltage(node, weak);
        let vm_nom = min_storage_voltage(node, DeviceDeviation::NOMINAL);
        prop_assert!(vm_weak.volts() >= vm_nom.volts() - 1e-12);
    }

    #[test]
    fn access_time_6t_monotone_in_weakness(node in node_strategy(),
                                           mv in 0f64..200.0) {
        let weaker = DeviceDeviation { dl_frac: 0.0, dvth_random: Voltage::from_mv(mv) };
        let t_weak = access_6t(node, CellSize::X1, weaker);
        let t_nom = access_6t(node, CellSize::X1, DeviceDeviation::NOMINAL);
        prop_assert!(t_weak >= t_nom);
    }

    #[test]
    fn line_failure_probability_bounds(p in 0.0f64..=1.0, bits in 1u32..1024) {
        let f = line_failure_probability(p, bits);
        prop_assert!((0.0..=1.0).contains(&f));
        // More bits can only make failure more likely.
        let f2 = line_failure_probability(p, bits + 1);
        prop_assert!(f2 >= f - 1e-12);
    }

    #[test]
    fn normal_cdf_inverse_roundtrip(p in 1e-9f64..1.0) {
        prop_assume!(p < 1.0 - 1e-9);
        let z = normal_inv_cdf(p);
        prop_assert!((normal_cdf(z) - p).abs() < 1e-6);
    }

    #[test]
    fn summary_mean_between_min_and_max(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::from_iter(values.iter().copied());
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.std_dev() >= 0.0);
    }

    #[test]
    fn quantile_is_monotone(values in proptest::collection::vec(-1e6f64..1e6, 2..100),
                            a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quantile(&values, lo) <= quantile(&values, hi) + 1e-9);
    }

    #[test]
    fn histogram_conserves_observations(values in proptest::collection::vec(-10f64..20.0, 0..300)) {
        let mut h = Histogram::new(0.0, 10.0, 7);
        for &v in &values {
            h.push(v);
        }
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), values.len() as u64);
        prop_assert_eq!(h.total(), values.len() as u64);
    }

    #[test]
    fn batched_erf_matches_scalar(xs in proptest::collection::vec(-8.0f64..8.0, 1..128)) {
        let mut out = vec![0.0; xs.len()];
        erf_slice(&xs, &mut out);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(out[i], erf(x), "erf({})", x);
        }
        let mut cdf = vec![0.0; xs.len()];
        normal_cdf_slice(&xs, &mut cdf);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(cdf[i], normal_cdf(x), "cdf({})", x);
        }
    }

    #[test]
    fn batched_retention_matches_scalar(node in node_strategy(),
                                        cells in proptest::collection::vec(
                                            (-0.25f64..0.25, -0.3f64..0.3, -0.3f64..0.3),
                                            1..96)) {
        // The slice kernel must be bit-identical to the scalar solver, and
        // the solver itself is pinned elsewhere against `retention_time` —
        // so arbitrary deviation planes round-trip exactly.
        let solver = RetentionSolver::new(node);
        let dl: Vec<f64> = cells.iter().map(|c| c.0).collect();
        let dvth1: Vec<f64> = cells.iter().map(|c| c.1).collect();
        let dvth2: Vec<f64> = cells.iter().map(|c| c.2).collect();
        let mut batch = Vec::new();
        solver.retention_slice(&dl, &dvth1, &dvth2, &mut batch);
        prop_assert_eq!(batch.len(), cells.len());
        for (i, &(l, v1, v2)) in cells.iter().enumerate() {
            prop_assert_eq!(batch[i], solver.retention(l, v1, v2), "cell {}", i);
            // Dead/alive classification agrees with the exact model.
            let exact = retention_time(
                node,
                DeviceDeviation { dl_frac: l, dvth_random: Voltage::new(v1) },
                DeviceDeviation { dl_frac: l, dvth_random: Voltage::new(v2) },
            );
            prop_assert_eq!(batch[i] == Time::ZERO, exact == Time::ZERO, "cell {}", i);
        }
    }

    #[test]
    fn batched_curves_match_scalar(node in node_strategy(),
                                   cells in proptest::collection::vec(
                                       (-0.25f64..0.25, -0.3f64..0.3), 1..96)) {
        let dl: Vec<f64> = cells.iter().map(|c| c.0).collect();
        let dvth1: Vec<f64> = cells.iter().map(|c| c.1).collect();
        let mut v0 = Vec::new();
        stored_one_voltage_slice(node, &dl, &dvth1, &mut v0);
        let mut tau = Vec::new();
        decay_tau_slice(node, &dl, &dvth1, &mut tau);
        for (i, &(l, v1)) in cells.iter().enumerate() {
            let dev = DeviceDeviation { dl_frac: l, dvth_random: Voltage::new(v1) };
            prop_assert_eq!(v0[i], stored_one_voltage(node, dev), "v0 cell {}", i);
            prop_assert_eq!(tau[i], decay_tau(node, dev), "tau cell {}", i);
        }
    }

    #[test]
    fn tech_retention_non_increasing_in_temperature(node in node_strategy(),
                                                    dl in -0.12f64..0.12,
                                                    d1 in -0.25f64..0.25,
                                                    d2 in -0.25f64..0.25,
                                                    cool in -40.0f64..125.0,
                                                    dt in 0.0f64..80.0) {
        // Heat never lengthens retention, for any cell technology: 3T1D's
        // Arrhenius leakage, STT's Δ ∝ 1/T barrier, and the low-voltage 6T
        // margin slope all point the same way.
        let hot = cool + dt;
        for kind in CellTechKind::ALL {
            let op = OperatingPoint::nominal(node);
            let at_cool = kind.build(node, op.with_temp_c(cool));
            let at_hot = kind.build(node, op.with_temp_c(hot));
            let r_cool = at_cool.retention(dl, d1, d2);
            let r_hot = at_hot.retention(dl, d1, d2);
            prop_assert!(
                r_hot.value() <= r_cool.value() * (1.0 + 1e-12),
                "{}: {} °C → {} s, {} °C → {} s",
                kind.slug(), cool, r_cool.value(), hot, r_hot.value()
            );
        }
    }

    #[test]
    fn tech_access_time_non_increasing_in_vdd(node in node_strategy(),
                                              v_lo in 0.4f64..1.1,
                                              dv in 0.0f64..0.7) {
        // More supply never slows a read: every technology's access path
        // goes through the same alpha-power drive-slowdown law, which is
        // non-increasing in Vdd (and +∞ below threshold for both rails).
        let v_hi = v_lo + dv;
        for kind in CellTechKind::ALL {
            let op = OperatingPoint::nominal(node);
            let slow = kind.build(node, op.with_vdd(Voltage::new(v_lo)));
            let fast = kind.build(node, op.with_vdd(Voltage::new(v_hi)));
            let (a_lo, a_hi) = (slow.access_time(), fast.access_time());
            prop_assert!(
                a_hi.value() <= a_lo.value() * (1.0 + 1e-12),
                "{}: {} V → {} s, {} V → {} s",
                kind.slug(), v_lo, a_lo.value(), v_hi, a_hi.value()
            );
        }
    }

    #[test]
    fn quadtree_field_is_bounded_and_deterministic(seed in 0u64..1_000_000,
                                                   sigma in 0.0f64..0.2,
                                                   x in 0.0f64..1.0, y in 0.0f64..1.0) {
        let f1 = QuadTreeField::sample(3, sigma, &mut SmallRng::seed_from_u64(seed));
        let f2 = QuadTreeField::sample(3, sigma, &mut SmallRng::seed_from_u64(seed));
        let v = f1.value_at(x, y);
        prop_assert_eq!(v, f2.value_at(x, y));
        // 3 levels of N(0, sigma/sqrt(3)) can't stray past ~15 sigma total.
        prop_assert!(v.abs() <= 15.0 * sigma + 1e-12);
    }
}
