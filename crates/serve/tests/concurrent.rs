//! Concurrency blitz: the serving path inherits the repo's determinism
//! contract. A fixed-seed request must return bit-identical response
//! payloads whether served alone or interleaved with 16 concurrent
//! mixed-traffic clients, with tracing armed — the caches may only ever
//! substitute a value for itself. Plus the admission-control contract at
//! server level: the K+1th queued request is answered `overloaded` while
//! everything in flight completes.

use std::collections::BTreeMap;
use std::thread;
use std::time::Duration;

use lna::{snap_to_catalog, DesignVariables};
use rfkit_num::rng::Rng64;
use rfkit_serve::{client, Client, ServeConfig, Server};

fn catalog_vars(seed: u64) -> DesignVariables {
    let mut rng = Rng64::new(seed);
    snap_to_catalog(DesignVariables {
        vds: rng.uniform(2.0, 4.0),
        ids: rng.uniform(0.02, 0.08),
        l1: rng.uniform(3e-9, 12e-9),
        ls_deg: rng.uniform(0.1e-9, 0.8e-9),
        l2: rng.uniform(5e-9, 15e-9),
        c2: rng.uniform(1e-12, 4e-12),
        r_bias: rng.uniform(15.0, 60.0),
    })
}

/// The three fixed-seed probes compared bit-for-bit. Same ids, same
/// payload bytes, every time they are issued.
fn fixed_probes() -> Vec<String> {
    let vars = catalog_vars(0x5eed);
    vec![
        client::sweep_json(7001, &vars, Some((1.15e9, 1.65e9, 9)), Some(0.25)),
        client::verify_json(7002, &vars, Some((1.15e9, 1.65e9, 9))),
        client::yield_json(7003, &vars, 24, 0xfeed),
    ]
}

#[test]
fn fixed_request_is_bit_identical_alone_vs_16_way_interleaved() {
    // Tracing armed for the whole comparison: telemetry must stay
    // write-only with respect to every served result.
    let trace = std::env::temp_dir().join(format!(
        "rfkit_serve_concurrent_trace_{}.json",
        std::process::id()
    ));
    rfkit_obs::init(&rfkit_obs::TraceConfig {
        trace: true,
        out: Some(trace.clone()),
        ..rfkit_obs::TraceConfig::default()
    });

    let server = Server::start(ServeConfig {
        workers: 4,
        queue_capacity: 256,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // Baseline: the fixed probes served alone, byte-for-byte.
    let baseline: Vec<String> = {
        let mut c = Client::connect(addr).unwrap();
        fixed_probes()
            .iter()
            .map(|req| c.call_raw(req).unwrap())
            .collect()
    };

    // Storm: 16 clients of mixed traffic (sweeps over a shared pool of
    // snapped candidates, verifies, yields, pings, protocol junk), while
    // the main thread re-issues the fixed probes continuously.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let storm: Vec<_> = (0..16u64)
        .map(|k| {
            let stop = std::sync::Arc::clone(&stop);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let vars = catalog_vars(1 + (i + k) % 6); // shared pool: cache traffic
                    let req = match i % 5 {
                        0 => client::verify_json(k * 1000 + i, &vars, None),
                        1 => client::yield_json(k * 1000 + i, &vars, 8, k ^ i),
                        2 => client::ping_json(k * 1000 + i),
                        _ => client::sweep_json(k * 1000 + i, &vars, None, Some(0.25)),
                    };
                    let resp = c.call(&req).unwrap();
                    assert!(
                        matches!(resp.status.as_str(), "ok" | "degraded" | "infeasible"),
                        "storm request got {}",
                        resp.raw
                    );
                    i += 1;
                }
            })
        })
        .collect();

    let mut probe_conn = Client::connect(addr).unwrap();
    for round in 0..12 {
        for (probe, expect) in fixed_probes().iter().zip(&baseline) {
            let got = probe_conn.call_raw(probe).unwrap();
            assert_eq!(
                &got, expect,
                "round {round}: fixed-seed response diverged under 16-way interleaving"
            );
        }
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in storm {
        h.join().expect("storm client panicked");
    }

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.internal_errors, 0);
    assert!(
        stats.design_cache_hits > 0,
        "repeated sweeps must hit the shared design cache"
    );
    assert!(
        stats.plan_cache_hits > 0,
        "repeated verifies must hit the shared plan cache"
    );

    // The armed run actually traced the serving path.
    rfkit_obs::flush();
    let body = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        body.contains("serve.request"),
        "serve.request span/latency missing from armed trace"
    );
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn kth_plus_one_queued_request_is_overloaded_while_in_flight_completes() {
    const K: usize = 3;
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: K,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    // Pin the lone worker with a long design run, confirmed in flight
    // via the inline stats path before any sweep is queued.
    let mut pinned = Client::connect(addr).unwrap();
    pinned.send(&client::design_json(1, 20_000, 3)).unwrap();
    let mut stats_conn = Client::connect(addr).unwrap();
    loop {
        let r = stats_conn.call(&client::stats_json(900)).unwrap();
        let in_flight = r.result.get("in_flight").and_then(|v| v.as_f64());
        if in_flight == Some(1.0) {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }

    // Fill the queue to capacity, then overflow it by one.
    let vars = catalog_vars(0xabcd);
    for i in 0..=K as u64 {
        pinned
            .send(&client::sweep_json(2 + i, &vars, None, None))
            .unwrap();
    }

    let mut by_id: BTreeMap<u64, String> = BTreeMap::new();
    for _ in 0..K + 2 {
        let r = pinned.recv().unwrap();
        by_id.insert(r.id, r.status);
    }
    assert_eq!(by_id[&1], "ok", "in-flight design completed");
    for i in 0..K as u64 {
        assert_eq!(by_id[&(2 + i)], "ok", "queued sweep {i} completed");
    }
    assert_eq!(
        by_id[&(2 + K as u64)],
        "overloaded",
        "the K+1th queued request gets explicit backpressure"
    );

    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.protocol_errors, 0);
}
