//! Unit conversions and physical constants for RF work.
//!
//! Everything internal is SI (hertz, ohms, watts, kelvin); these helpers
//! convert at the presentation boundary (dB, dBm, noise figure).

/// Boltzmann constant in J/K.
pub const K_BOLTZMANN: f64 = 1.380_649e-23;

/// IEEE standard reference temperature for noise figure, in kelvin.
pub const T0_KELVIN: f64 = 290.0;

/// Speed of light in vacuum, m/s.
pub const C0: f64 = 299_792_458.0;

/// Vacuum permeability, H/m.
pub const MU0: f64 = 1.256_637_061_27e-6;

/// Vacuum permittivity, F/m.
pub const EPS0: f64 = 8.854_187_818_8e-12;

/// Converts a power ratio to decibels: `10·log10(ratio)`.
///
/// Non-positive ratios map to `-inf`, matching instrument behaviour for
/// underflowed power readings.
#[inline]
pub fn db_from_power_ratio(ratio: f64) -> f64 {
    if ratio <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * ratio.log10()
    }
}

/// Converts decibels to a power ratio.
#[inline]
pub fn power_ratio_from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts an amplitude (voltage) ratio to decibels: `20·log10(ratio)`.
#[inline]
pub fn db_from_amplitude_ratio(ratio: f64) -> f64 {
    if ratio <= 0.0 {
        f64::NEG_INFINITY
    } else {
        20.0 * ratio.log10()
    }
}

/// Converts decibels to an amplitude ratio.
#[inline]
pub fn amplitude_ratio_from_db(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Converts watts to dBm.
#[inline]
pub fn dbm_from_watts(w: f64) -> f64 {
    db_from_power_ratio(w / 1e-3)
}

/// Converts dBm to watts.
#[inline]
pub fn watts_from_dbm(dbm: f64) -> f64 {
    1e-3 * power_ratio_from_db(dbm)
}

/// Noise figure in dB from a noise factor (linear).
#[inline]
pub fn nf_db_from_factor(factor: f64) -> f64 {
    db_from_power_ratio(factor)
}

/// Free-space wavelength (m) at frequency `f_hz`.
#[inline]
pub fn wavelength(f_hz: f64) -> f64 {
    C0 / f_hz
}

/// Angular frequency ω = 2πf.
#[inline]
pub fn angular(f_hz: f64) -> f64 {
    2.0 * std::f64::consts::PI * f_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_power_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 20.0] {
            assert!((db_from_power_ratio(power_ratio_from_db(db)) - db).abs() < 1e-12);
        }
        assert_eq!(db_from_power_ratio(0.0), f64::NEG_INFINITY);
        assert_eq!(db_from_power_ratio(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn db_amplitude_roundtrip() {
        assert!((db_from_amplitude_ratio(10.0) - 20.0).abs() < 1e-12);
        assert!((amplitude_ratio_from_db(6.0) - 1.9953).abs() < 1e-3);
    }

    #[test]
    fn dbm_watts() {
        assert!((dbm_from_watts(1e-3) - 0.0).abs() < 1e-12);
        assert!((dbm_from_watts(1.0) - 30.0).abs() < 1e-12);
        assert!((watts_from_dbm(-30.0) - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn wavelength_at_gps_l1() {
        let lambda = wavelength(1.57542e9);
        assert!((lambda - 0.1903).abs() < 1e-3);
    }

    #[test]
    fn angular_frequency() {
        assert!((angular(1.0) - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn kt_at_t0_is_minus_174_dbm_per_hz() {
        let kt = K_BOLTZMANN * T0_KELVIN;
        assert!((dbm_from_watts(kt) + 174.0).abs() < 0.05);
    }
}
