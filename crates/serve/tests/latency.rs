//! The server's latency view counts every completed request: inline
//! `ping`/`stats` answers record a `serve.request` span and a
//! `serve.request.latency_us` sample like queued requests do.
//!
//! Arming is process state, so this check has its own test binary.

use lna::{snap_to_catalog, DesignVariables};
use rfkit_serve::{client, Client, ServeConfig, Server};

#[test]
fn latency_count_equals_completed_requests_with_inline_answers() {
    let profile = std::env::temp_dir().join(format!(
        "rfkit_serve_latency_profile_{}.json",
        std::process::id()
    ));
    rfkit_obs::init(&rfkit_obs::TraceConfig {
        trace: true,
        out: Some(profile.clone()),
        ..rfkit_obs::TraceConfig::default()
    });

    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let vars = snap_to_catalog(DesignVariables {
        vds: 3.2,
        ids: 0.045,
        l1: 7.5e-9,
        ls_deg: 0.5e-9,
        l2: 9e-9,
        c2: 1.8e-12,
        r_bias: 33.0,
    });
    let mut c = Client::connect(server.local_addr()).unwrap();
    let requests = [
        client::ping_json(1),
        client::sweep_json(2, &vars, Some((1.1e9, 1.7e9, 7)), None),
        client::stats_json(3),
        client::ping_json(4),
        client::verify_json(5, &vars, Some((1.1e9, 1.7e9, 7))),
    ];
    for req in &requests {
        assert!(c.call(req).unwrap().is_ok());
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, requests.len() as u64);

    // The shutdown flush wrote the profile.
    let body = std::fs::read_to_string(&profile).expect("profile written by shutdown flush");
    let _ = std::fs::remove_file(&profile);
    let p = rfkit_obs::profile::parse(&body).expect("profile parses");
    let completed = p.counters["serve.requests.completed"];
    assert_eq!(completed, stats.completed);
    assert_eq!(p.hists["serve.request.latency_us"].count, completed);
    let spans: u64 = p
        .nodes
        .iter()
        .filter(|n| n.name == "serve.request")
        .map(|n| n.count)
        .sum();
    assert_eq!(spans, completed);
}
