//! A yield unit is its tolerance draw: `yield_analysis_robust` grades
//! `BuildConfig::draw`, which `BuiltAmplifier::build` also calls. This
//! check pins the bits of that draw stream, so a yield report cannot
//! move without this test failing.

use lna::{BuildConfig, DesignVariables};

/// The three part grades of T6 (`table6_yield`).
const T6_TOLERANCES: [f64; 3] = [0.10, 0.05, 0.01];

#[test]
fn tolerance_draw_stream_keeps_its_bits() {
    let design = DesignVariables {
        vds: 3.0,
        ids: 0.050,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    };
    // FNV-1a over every drawn bit pattern in order. A change to the draw
    // order, the seeding, a per-field tolerance or the RNG fails here.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for tolerance in T6_TOLERANCES {
        for seed in 0..256u64 {
            let cfg = BuildConfig {
                tolerance,
                seed,
                ..Default::default()
            };
            for v in cfg.draw(&design).to_vec() {
                digest = (digest ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(digest, 0x1f2d_f554_7e71_dde2);
}
