//! Physical-quantity newtypes.
//!
//! All quantities are stored in SI base units (`f64`) and expose
//! domain-friendly constructors and accessors (`Time::from_ns`,
//! [`Time::ps`], ...). Newtypes keep volts, watts and seconds from being
//! mixed up in the circuit models ([C-NEWTYPE]).
//!
//! # Examples
//!
//! ```
//! use vlsi::units::Time;
//!
//! let cycle = Time::from_ps(232.0);
//! assert!((cycle.ns() - 0.232).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for an `f64`-backed SI quantity.
macro_rules! si_quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a raw value in SI base units.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in SI base units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

si_quantity!(
    /// A time interval in seconds.
    Time,
    "s"
);
si_quantity!(
    /// An electric potential in volts.
    Voltage,
    "V"
);
si_quantity!(
    /// An electric current in amperes.
    Current,
    "A"
);
si_quantity!(
    /// A power in watts.
    Power,
    "W"
);
si_quantity!(
    /// An energy in joules.
    Energy,
    "J"
);
si_quantity!(
    /// A capacitance in farads.
    Capacitance,
    "F"
);
si_quantity!(
    /// A resistance in ohms.
    Resistance,
    "Ω"
);
si_quantity!(
    /// A frequency in hertz.
    Frequency,
    "Hz"
);
si_quantity!(
    /// A length in meters.
    Length,
    "m"
);

impl Time {
    /// Creates a time from picoseconds.
    #[inline]
    pub fn from_ps(ps: f64) -> Self {
        Self(ps * 1e-12)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// The time expressed in picoseconds.
    #[inline]
    pub fn ps(self) -> f64 {
        self.0 * 1e12
    }

    /// The time expressed in nanoseconds.
    #[inline]
    pub fn ns(self) -> f64 {
        self.0 * 1e9
    }

    /// The time expressed in microseconds.
    #[inline]
    pub fn us(self) -> f64 {
        self.0 * 1e6
    }
}

impl Voltage {
    /// Creates a voltage from millivolts.
    #[inline]
    pub fn from_mv(mv: f64) -> Self {
        Self(mv * 1e-3)
    }

    /// The voltage expressed in millivolts.
    #[inline]
    pub fn mv(self) -> f64 {
        self.0 * 1e3
    }

    /// The voltage expressed in volts.
    #[inline]
    pub fn volts(self) -> f64 {
        self.0
    }
}

impl Current {
    /// Creates a current from nanoamperes.
    #[inline]
    pub fn from_na(na: f64) -> Self {
        Self(na * 1e-9)
    }

    /// The current expressed in microamperes.
    #[inline]
    pub fn ua(self) -> f64 {
        self.0 * 1e6
    }
}

impl Power {
    /// Creates a power from milliwatts.
    #[inline]
    pub fn from_mw(mw: f64) -> Self {
        Self(mw * 1e-3)
    }

    /// The power expressed in milliwatts.
    #[inline]
    pub fn mw(self) -> f64 {
        self.0 * 1e3
    }
}

impl Energy {
    /// Creates an energy from picojoules.
    #[inline]
    pub fn from_pj(pj: f64) -> Self {
        Self(pj * 1e-12)
    }

    /// The energy expressed in picojoules.
    #[inline]
    pub fn pj(self) -> f64 {
        self.0 * 1e12
    }

    /// Energy spent over a duration expressed as average power.
    ///
    /// # Panics
    ///
    /// Panics if `over` is zero or negative.
    #[inline]
    pub fn average_power(self, over: Time) -> Power {
        assert!(over.value() > 0.0, "duration must be positive");
        Power::new(self.0 / over.value())
    }
}

impl Capacitance {
    /// Creates a capacitance from attofarads.
    #[inline]
    pub fn from_af(af: f64) -> Self {
        Self(af * 1e-18)
    }

    /// The capacitance expressed in femtofarads.
    #[inline]
    pub fn ff(self) -> f64 {
        self.0 * 1e15
    }
}

impl Frequency {
    /// Creates a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1e9)
    }

    /// The frequency expressed in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 * 1e-9
    }

    /// The duration of one period.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero or negative.
    #[inline]
    pub fn period(self) -> Time {
        assert!(self.0 > 0.0, "frequency must be positive");
        Time::new(1.0 / self.0)
    }
}

impl Length {
    /// Creates a length from nanometers.
    #[inline]
    pub fn from_nm(nm: f64) -> Self {
        Self(nm * 1e-9)
    }

    /// Creates a length from micrometers.
    #[inline]
    pub fn from_um(um: f64) -> Self {
        Self(um * 1e-6)
    }

    /// The length expressed in nanometers.
    #[inline]
    pub fn nm(self) -> f64 {
        self.0 * 1e9
    }

    /// The length expressed in micrometers.
    #[inline]
    pub fn um(self) -> f64 {
        self.0 * 1e6
    }
}

// Cross-quantity relations that the circuit models use.

impl Mul<Time> for Current {
    /// Charge delivered over a time, expressed as energy per volt is not
    /// meaningful; instead `I * t` is used with `C * V` via
    /// [`Capacitance::charge_time`]. This impl returns the charge as
    /// capacitance × volts would — so we expose it as plain `f64` coulombs.
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Time) -> f64 {
        self.value() * rhs.value()
    }
}

impl Mul<Voltage> for Current {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: Voltage) -> Power {
        Power::new(self.value() * rhs.value())
    }
}

impl Mul<Voltage> for Capacitance {
    /// `C * V` gives charge in coulombs.
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Voltage) -> f64 {
        self.value() * rhs.value()
    }
}

impl Mul<Time> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Time) -> Energy {
        Energy::new(self.value() * rhs.value())
    }
}

impl Capacitance {
    /// Time to slew this capacitance by `swing` with a constant `drive`
    /// current: `t = C·ΔV / I`.
    ///
    /// # Panics
    ///
    /// Panics if `drive` is not strictly positive.
    #[inline]
    pub fn charge_time(self, swing: Voltage, drive: Current) -> Time {
        assert!(drive.value() > 0.0, "drive current must be positive");
        Time::new(self.value() * swing.value() / drive.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_round_trips() {
        let t = Time::from_ns(5.8);
        assert!((t.us() - 0.0058).abs() < 1e-12);
        assert!((t.ps() - 5800.0).abs() < 1e-6);
        assert!((Time::from_us(1.0) - Time::from_ns(1000.0)).abs() < Time::from_ps(0.001));
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Time::from_ns(2.0);
        let b = Time::from_ns(3.0);
        let eps = Time::from_ps(1e-6);
        assert!((a + b - Time::from_ns(5.0)).abs() < eps);
        assert!((b - a - Time::from_ns(1.0)).abs() < eps);
        assert!((a * 2.0 - Time::from_ns(4.0)).abs() < eps);
        assert!((2.0 * a - Time::from_ns(4.0)).abs() < eps);
        assert!((b / a - 1.5).abs() < 1e-12);
        assert!((-a - Time::from_ns(-2.0)).abs() < eps);
    }

    #[test]
    fn add_assign_and_sum() {
        let mut acc = Power::ZERO;
        acc += Power::from_mw(1.5);
        acc += Power::from_mw(2.5);
        assert!((acc.mw() - 4.0).abs() < 1e-12);

        let total: Energy = (0..4).map(|_| Energy::from_pj(0.25)).sum();
        assert!((total.pj() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_period_inverse() {
        let f = Frequency::from_ghz(4.3);
        let p = f.period();
        assert!((p.ps() - 232.558).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_period_panics() {
        let _ = Frequency::ZERO.period();
    }

    #[test]
    fn charge_time_matches_c_dv_over_i() {
        // 20 fF × 100 mV = 2 fC; at 10 µA that takes 200 ps.
        let t = Capacitance::from_af(20_000.0)
            .charge_time(Voltage::from_mv(100.0), Current::from_na(10_000.0));
        assert!((t.ps() - 200.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "drive current must be positive")]
    fn charge_time_requires_positive_drive() {
        let _ = Capacitance::from_af(1_000.0).charge_time(Voltage::from_mv(1.0), Current::ZERO);
    }

    #[test]
    fn power_energy_relations() {
        let p = Current::from_na(10_000.0) * Voltage::new(1.1);
        assert!((p.value() - 11e-6).abs() < 1e-12);
        let e = p * Time::from_ns(1.0);
        assert!((e.pj() - 0.011).abs() < 1e-9);
        let avg = e.average_power(Time::from_ns(1.0));
        assert!((avg.value() - p.value()).abs() < 1e-15);
    }

    #[test]
    fn min_max_abs() {
        let a = Voltage::from_mv(-50.0);
        let b = Voltage::from_mv(30.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.abs(), Voltage::from_mv(50.0));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Voltage::new(1.1)), "1.1 V");
        assert_eq!(format!("{}", Resistance::new(2.0)), "2 Ω");
    }
}
