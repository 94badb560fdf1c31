//! Per-layer measurement from outside the program: timing wrappers around
//! the objective calls, the aggregate profile the program writes when
//! telemetry is armed, and micro-timings of the device, passive and
//! two-port layers on a sample of the workload's own candidates.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use lna::{Amplifier, BandSpec, DesignCache, DesignVariables, PointMetrics};
use rfkit_device::Phemt;
use rfkit_net::gains::transducer_gain;
use rfkit_net::stability::{mu_load, mu_source, rollett_k};
use rfkit_net::NoisyAbcd;
use rfkit_num::units::{db_from_amplitude_ratio, nf_db_from_factor, T0_KELVIN};
use rfkit_num::Complex;
use rfkit_obs::{TraceConfig, TraceMode};
use rfkit_passive::{Capacitor, Component, Inductor, Orientation};

use crate::stats::{mean, time_per_call_us, union_length};
use crate::Report;

/// Candidates drawn from a traced run for the point-level micro-timings.
const SAMPLE: usize = 48;

/// One objective call seen by a [`Recorder`].
struct Call {
    start_ns: u64,
    end_ns: u64,
    miss: bool,
    x: Vec<f64>,
}

/// Timing wrapper state for objective calls: when each call ran, whether
/// it missed the design cache, and which candidate it scored.
pub struct Recorder {
    t0: Instant,
    calls: Mutex<Vec<Call>>,
}

/// What a [`Recorder`] saw over one traced operation.
#[derive(Default)]
pub struct ObjectiveSummary {
    /// Wall time during which at least one objective call ran (s).
    pub busy_s: f64,
    pub hits: u64,
    pub misses: u64,
    /// Summed time of cache-hit calls (µs).
    pub hit_us: f64,
    /// Summed time of cache-miss calls, i.e. band evaluations (µs).
    pub miss_us: f64,
}

impl ObjectiveSummary {
    pub fn add(&mut self, o: &ObjectiveSummary) {
        self.busy_s += o.busy_s;
        self.hits += o.hits;
        self.misses += o.misses;
        self.hit_us += o.hit_us;
        self.miss_us += o.miss_us;
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            calls: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Wraps an objective memoized through `cache`. A call counts as a
    /// miss when the cache's miss counter moved while it ran; a hit that
    /// overlaps another thread's miss is misfiled, which the hit share of
    /// these workloads keeps negligible.
    pub fn wrap<'a>(
        &'a self,
        cache: &'a DesignCache,
        f: &'a (dyn Fn(&[f64]) -> Vec<f64> + Sync),
    ) -> impl Fn(&[f64]) -> Vec<f64> + Sync + 'a {
        move |x: &[f64]| {
            let before = cache.misses();
            let start_ns = self.now_ns();
            let y = f(x);
            let end_ns = self.now_ns();
            let miss = cache.misses() > before;
            self.calls
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Call {
                    start_ns,
                    end_ns,
                    miss,
                    x: x.to_vec(),
                });
            y
        }
    }

    pub fn summary(&self) -> ObjectiveSummary {
        let calls = self.calls.lock().unwrap_or_else(PoisonError::into_inner);
        let mut intervals: Vec<(u64, u64)> = calls.iter().map(|c| (c.start_ns, c.end_ns)).collect();
        let mut s = ObjectiveSummary {
            busy_s: union_length(&mut intervals) as f64 * 1e-9,
            ..Default::default()
        };
        for c in calls.iter() {
            let us = (c.end_ns - c.start_ns) as f64 * 1e-3;
            if c.miss {
                s.misses += 1;
                s.miss_us += us;
            } else {
                s.hits += 1;
                s.hit_us += us;
            }
        }
        s
    }

    /// Every distinct candidate scored, in bit order — a sample that does
    /// not depend on which thread evaluated what.
    pub fn candidates(&self) -> Vec<Vec<f64>> {
        let calls = self.calls.lock().unwrap_or_else(PoisonError::into_inner);
        let mut xs: Vec<Vec<f64>> = calls.iter().map(|c| c.x.clone()).collect();
        let key = |x: &Vec<f64>| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        xs.sort_by_key(key);
        xs.dedup_by(|a, b| key(a) == key(b));
        xs
    }
}

/// Evenly strided, bias-reachable subset of `candidates` (at most
/// [`SAMPLE`]).
pub fn sample(device: &Phemt, candidates: &[Vec<f64>]) -> Vec<DesignVariables> {
    let feasible: Vec<DesignVariables> = candidates
        .iter()
        .map(|x| DesignVariables::from_vec(x))
        .filter(|v| device.bias_for_current(v.vds, v.ids).is_some())
        .collect();
    let stride = feasible.len().div_ceil(SAMPLE).max(1);
    feasible.into_iter().step_by(stride).collect()
}

/// Aggregate-profile telemetry armed around traced operations. The
/// program's own counters and spans fold into one `PROFILE` file per
/// armed window; counters are cumulative across windows, span totals are
/// summed here.
pub struct Tracer {
    path: PathBuf,
    span_us: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("PROFILE_{workload}_{}.json", std::process::id()));
        Tracer {
            path,
            span_us: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn arm(&self) {
        rfkit_obs::init(&TraceConfig {
            trace: true,
            log: false,
            out: Some(self.path.clone()),
            mode: TraceMode::Agg,
        });
    }

    /// Flushes the armed window, folds it in, and disarms telemetry.
    pub fn collect(&mut self) -> Result<(), String> {
        rfkit_obs::flush();
        rfkit_obs::init(&TraceConfig::default());
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| format!("read profile {}: {e}", self.path.display()))?;
        let p = rfkit_obs::profile::parse(&text)?;
        for n in &p.nodes {
            *self.span_us.entry(n.name.clone()).or_insert(0) += n.total_us;
        }
        self.counters = p.counters;
        Ok(())
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn span_s(&self, name: &str) -> f64 {
        self.span_us.get(name).copied().unwrap_or(0) as f64 * 1e-6
    }

    pub fn path(&self) -> String {
        self.path.display().to_string()
    }
}

/// Point-level pieces of `Amplifier::noisy_two_port` + `metrics`, built
/// from the device, passive and two-port crates' public calls exactly as
/// the amplifier composes them.
struct PointParts {
    core: NoisyAbcd,
    c_blk: NoisyAbcd,
    l1: NoisyAbcd,
    l2: NoisyAbcd,
    c2: NoisyAbcd,
}

fn device_core(
    device: &Phemt,
    v: &DesignVariables,
    op: &rfkit_device::OperatingPoint,
    f: f64,
) -> NoisyAbcd {
    let mut ss = device.small_signal(op);
    ss.extrinsic.ls += v.ls_deg;
    ss.noisy_two_port(f, &device.noise.temperatures(op.ids))
}

fn passive_parts(v: &DesignVariables, f: f64) -> [NoisyAbcd; 4] {
    let t = T0_KELVIN;
    let c_blk = Capacitor::chip_0402(100e-12).two_port(f, Orientation::Series, t);
    let l1 = Inductor::chip_0402(v.l1).two_port(f, Orientation::Series, t);
    let z_feed = Complex::real(v.r_bias) + Inductor::chip_0402(v.l2).impedance(f);
    let l2 = NoisyAbcd::passive_shunt(z_feed.recip(), t);
    let c2 = Capacitor::chip_0402(v.c2).two_port(f, Orientation::Series, t);
    [c_blk, l1, l2, c2]
}

fn cascade(p: &PointParts) -> NoisyAbcd {
    p.c_blk
        .cascade(&p.l1)
        .cascade(&p.core)
        .cascade(&p.l2)
        .cascade(&p.c2)
}

fn convert(f: f64, noisy: &NoisyAbcd) -> Option<PointMetrics> {
    let s = noisy.abcd.to_s(50.0).ok()?;
    let np = noisy.noise_params(50.0).ok()?;
    Some(PointMetrics {
        freq_hz: f,
        gain_db: 10.0
            * transducer_gain(&s, Complex::ZERO, Complex::ZERO)
                .max(1e-30)
                .log10(),
        nf_db: nf_db_from_factor(np.noise_factor(Complex::ZERO)),
        s11_db: db_from_amplitude_ratio(s.s11().abs()),
        s22_db: db_from_amplitude_ratio(s.s22().abs()),
        k: rollett_k(&s),
        mu: mu_load(&s).min(mu_source(&s)),
    })
}

/// Micro-times the device, passive and two-port layers over `sample` on
/// the band's full grid and adds `device.*`, `passive.*` and `twoport.*`
/// to `report`. The composed pieces are checked against
/// `Amplifier::metrics` bit for bit, so the timings are of the work the
/// band evaluation really does.
pub fn point_layers(
    report: &mut Report,
    device: &Phemt,
    band: &BandSpec,
    sample: &[DesignVariables],
) {
    let freqs = band.combined_grid();
    let ops: Vec<(DesignVariables, rfkit_device::OperatingPoint)> = sample
        .iter()
        .filter_map(|v| {
            let vgs = device.bias_for_current(v.vds, v.ids)?;
            Some((*v, device.operating_point(vgs, v.vds)))
        })
        .collect();
    if ops.is_empty() {
        for name in [
            "device.bias_us",
            "device.small_signal_us",
            "passive.parts_us",
            "twoport.cascade_us",
            "twoport.convert_us",
        ] {
            report.metric(name, 0.0, "us");
        }
        return;
    }
    let points = (ops.len() * freqs.len()) as f64;
    let mut parts = Vec::with_capacity(ops.len() * freqs.len());
    let mut replica_ok = true;
    for (v, op) in &ops {
        let amp = Amplifier::new(device, *v);
        for &f in freqs {
            let [c_blk, l1, l2, c2] = passive_parts(v, f);
            let p = PointParts {
                core: device_core(device, v, op, f),
                c_blk,
                l1,
                l2,
                c2,
            };
            replica_ok &= convert(f, &cascade(&p)) == amp.metrics(f);
            parts.push(p);
        }
    }
    if !replica_ok {
        report.note("warning: layer replica differs from Amplifier::metrics; layer timings describe other work");
    }
    let bias_us = time_per_call_us(5, 20, || {
        for (v, _) in &ops {
            black_box(device.bias_for_current(black_box(v.vds), black_box(v.ids)));
        }
    }) / ops.len() as f64;
    let ss_us = time_per_call_us(5, 4, || {
        for (v, op) in &ops {
            for &f in freqs {
                black_box(device_core(device, v, op, black_box(f)));
            }
        }
    }) / points;
    let parts_us = time_per_call_us(5, 4, || {
        for (v, _) in &ops {
            for &f in freqs {
                black_box(passive_parts(v, black_box(f)));
            }
        }
    }) / points;
    let cascade_us = time_per_call_us(5, 4, || {
        for p in &parts {
            black_box(cascade(black_box(p)));
        }
    }) / points;
    let cascaded: Vec<NoisyAbcd> = parts.iter().map(cascade).collect();
    let convert_us = time_per_call_us(5, 4, || {
        for (n, &f) in cascaded.iter().zip(freqs.iter().cycle()) {
            black_box(convert(f, black_box(n)));
        }
    }) / points;
    report.metric("device.bias_us", bias_us, "us");
    report.metric("device.small_signal_us", ss_us, "us");
    report.metric("passive.parts_us", parts_us, "us");
    report.metric("twoport.cascade_us", cascade_us, "us");
    report.metric("twoport.convert_us", convert_us, "us");
}

/// `par.threads` and `par.dispatch_us`: the resolved pool size and the
/// cost of one `par_map` over 15 trivial items (a band sweep's width) in
/// this process's environment.
pub fn par_dispatch(report: &mut Report) {
    let items: Vec<f64> = (0..15).map(f64::from).collect();
    let us = time_per_call_us(5, 400, || {
        black_box(rfkit_par::par_map(black_box(&items), |x| x + 1.0));
    });
    report.metric("par.threads", rfkit_par::num_threads() as f64, "count");
    report.metric("par.dispatch_us", us, "us");
}

/// Counters every traced run reads back from the program's profile,
/// per traced operation.
pub fn program_counters(report: &mut Report, tracer: &Tracer, ops: f64) {
    let per_op = |name: &str| tracer.counter(name) as f64 / ops.max(1.0);
    report.metric("band.points_failed", per_op("band.points.failed"), "count");
    report.metric("par.tasks", per_op("par.tasks"), "count");
    report.metric(
        "par.serial_fallbacks",
        per_op("par.serial_fallback"),
        "count",
    );
}

/// Band and cache metrics from a recorder summary plus the caches' own
/// eviction count, per traced operation.
pub fn band_and_cache(report: &mut Report, s: &ObjectiveSummary, evictions: u64, ops: f64) {
    let lookups = s.hits + s.misses;
    let ops = ops.max(1.0);
    report.metric("band.evals", s.misses as f64 / ops, "count");
    report.metric("band.eval_us", s.miss_us / (s.misses.max(1)) as f64, "us");
    report.metric("cache.lookups", lookups as f64 / ops, "count");
    report.metric(
        "cache.hit_ratio",
        s.hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric("cache.evictions", evictions as f64 / ops, "count");
    report.metric("cache.hit_us", s.hit_us / (s.hits.max(1)) as f64, "us");
}

/// Zero-valued metrics for layers a workload does not exercise, so every
/// traced run prints the full per-layer set.
pub fn not_exercised(report: &mut Report, names: &[(&str, &'static str)]) {
    for (name, unit) in names {
        report.metric(*name, 0.0, unit);
    }
}

/// `obs.overhead_frac`: traced over untraced time of the same operations.
pub fn overhead(report: &mut Report, untraced_s: &[f64], traced_s: &[f64]) {
    let u: f64 = untraced_s.iter().sum();
    let t: f64 = traced_s.iter().sum();
    report.metric(
        "obs.overhead_frac",
        if u > 0.0 { t / u - 1.0 } else { 0.0 },
        "ratio",
    );
    report.note(format!(
        "obs: traced {:.3} s vs untraced {:.3} s over {} operations (mean {:.4} vs {:.4} s)",
        t,
        u,
        traced_s.len(),
        mean(traced_s),
        mean(untraced_s)
    ));
}
