//! Operating-temperature analysis of the amplifier.
//!
//! A GNSS antenna amplifier lives outdoors: −40 °C on a winter roof,
//! +85 °C in a sunlit radome. Two first-order effects dominate across that
//! range, and both are modelled here:
//!
//! * every resistive element's **thermal noise scales with its physical
//!   temperature** (the correlation-matrix machinery takes the temperature
//!   directly);
//! * the channel **transconductance derates with temperature** through the
//!   mobility law `gm(T) ≈ gm(T₀)·(T/T₀)^−1.3`, dragging gain down and
//!   noise up at the hot end.

use crate::amplifier::{Amplifier, BiasedAmplifier, DesignVariables, PointMetrics};
use crate::band::BandSpec;
use rfkit_device::smallsignal::NoiseTemperatures;
use rfkit_device::Phemt;

/// Ambient operating condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalCondition {
    /// Ambient temperature in °C.
    pub celsius: f64,
    /// Mobility-derating exponent for gm (default 1.3).
    pub gm_exponent: f64,
}

impl ThermalCondition {
    /// Condition at the given ambient temperature with the default
    /// derating law.
    pub fn at(celsius: f64) -> Self {
        ThermalCondition {
            celsius,
            gm_exponent: 1.3,
        }
    }

    /// Ambient in kelvin.
    pub fn kelvin(&self) -> f64 {
        self.celsius + 273.15
    }

    /// The gm derating factor relative to the 23.35 °C reference.
    pub fn gm_derating(&self) -> f64 {
        (self.kelvin() / 296.5).powf(-self.gm_exponent)
    }
}

/// The amplifier biased at an ambient condition: derated gm, device noise
/// temperatures referenced to ambient, passives at ambient.
///
/// Returns `None` for an unreachable bias.
fn biased_at_temperature(
    device: &Phemt,
    vars: DesignVariables,
    cond: &ThermalCondition,
) -> Option<BiasedAmplifier> {
    let amp = Amplifier::new(device, vars);
    let op = amp.operating_point()?;
    let t_amb = cond.kelvin();
    let mut ss = device.small_signal(&op);
    ss.intrinsic.gm = op.gm * cond.gm_derating();
    let temps = NoiseTemperatures {
        tg: t_amb + 3.5,
        td: (device.noise.td0 * op.ids / device.noise.ids_ref * t_amb / 296.5).max(t_amb),
        ambient: t_amb,
    };
    Some(amp.biased_at(ss, temps, t_amb))
}

/// Point metrics of the amplifier at one frequency and ambient condition.
///
/// Returns `None` for an unreachable bias.
pub fn metrics_at_temperature(
    device: &Phemt,
    vars: DesignVariables,
    freq_hz: f64,
    cond: &ThermalCondition,
) -> Option<PointMetrics> {
    biased_at_temperature(device, vars, cond)?.metrics(freq_hz)
}

/// Worst-case in-band NF and minimum gain at each ambient temperature.
/// Rows are `(celsius, worst_nf_db, min_gain_db)`.
pub fn band_sweep_over_temperature(
    device: &Phemt,
    vars: DesignVariables,
    band: &BandSpec,
    celsius: &[f64],
) -> Vec<(f64, f64, f64)> {
    celsius
        .iter()
        .filter_map(|&t| {
            let biased = biased_at_temperature(device, vars, &ThermalCondition::at(t))?;
            let mut worst_nf = f64::NEG_INFINITY;
            let mut min_gain = f64::INFINITY;
            for &f in band.grid() {
                let m = biased.in_band(f)?;
                worst_nf = worst_nf.max(m.nf_db);
                min_gain = min_gain.min(m.gain_db);
            }
            Some((t, worst_nf, min_gain))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars() -> DesignVariables {
        DesignVariables {
            vds: 3.0,
            ids: 0.050,
            l1: 6.8e-9,
            ls_deg: 0.4e-9,
            l2: 10e-9,
            c2: 2.2e-12,
            r_bias: 30.0,
        }
    }

    #[test]
    fn room_temperature_matches_nominal_analysis() {
        let device = Phemt::atf54143_like();
        let amp = Amplifier::new(&device, vars());
        let nominal = amp.metrics(1.4e9).unwrap();
        let thermal =
            metrics_at_temperature(&device, vars(), 1.4e9, &ThermalCondition::at(23.35)).unwrap();
        // Same circuit at reference temperature: tenths of a dB at most
        // (passive reference T0 = 290 K vs ambient 296.5 K differs slightly).
        assert!((thermal.gain_db - nominal.gain_db).abs() < 0.2);
        assert!((thermal.nf_db - nominal.nf_db).abs() < 0.1);
    }

    #[test]
    fn noise_rises_and_gain_falls_with_temperature() {
        let device = Phemt::atf54143_like();
        let sweep =
            band_sweep_over_temperature(&device, vars(), &BandSpec::gnss(), &[-40.0, 25.0, 85.0]);
        assert_eq!(sweep.len(), 3);
        let (_, nf_cold, gain_cold) = sweep[0];
        let (_, nf_room, gain_room) = sweep[1];
        let (_, nf_hot, gain_hot) = sweep[2];
        assert!(
            nf_cold < nf_room && nf_room < nf_hot,
            "NF: {nf_cold} {nf_room} {nf_hot}"
        );
        assert!(
            gain_cold > gain_room && gain_room > gain_hot,
            "gain: {gain_cold} {gain_room} {gain_hot}"
        );
        // The swing is realistic: tenths of a dB of NF, ~1 dB of gain.
        assert!(nf_hot - nf_cold > 0.05 && nf_hot - nf_cold < 1.0);
        assert!(gain_cold - gain_hot > 0.3 && gain_cold - gain_hot < 4.0);
    }

    #[test]
    fn derating_factor_is_unity_at_reference() {
        let c = ThermalCondition::at(23.35);
        assert!((c.gm_derating() - 1.0).abs() < 1e-12);
        assert!(ThermalCondition::at(85.0).gm_derating() < 1.0);
        assert!(ThermalCondition::at(-40.0).gm_derating() > 1.0);
    }

    #[test]
    fn stability_holds_over_the_automotive_range() {
        let device = Phemt::atf54143_like();
        for t in [-40.0, 85.0] {
            let m =
                metrics_at_temperature(&device, vars(), 1.4e9, &ThermalCondition::at(t)).unwrap();
            assert!(m.k > 1.0, "K at {t} °C = {}", m.k);
        }
    }
}
