//! Clean-shutdown regression: the draining listener stops accepting,
//! admitted requests finish, every thread joins (asserted through the
//! server's own lifecycle counters — no leaked workers or readers), and
//! the final obs flush writes the armed profile to disk.
//!
//! The aggregate-profile arming lives in this file because `rfkit_obs`
//! arming is process state; integration-test binaries are separate
//! processes, so this cannot collide with the other suites.

use std::net::TcpStream;
use std::time::Duration;

use lna::{snap_to_catalog, DesignVariables};
use rfkit_serve::{client, Client, ServeConfig, Server};

fn vars() -> DesignVariables {
    snap_to_catalog(DesignVariables {
        vds: 3.2,
        ids: 0.045,
        l1: 7.5e-9,
        ls_deg: 0.5e-9,
        l2: 9e-9,
        c2: 1.8e-12,
        r_bias: 33.0,
    })
}

#[test]
fn drain_joins_every_thread_and_flushes_the_profile() {
    // Arm aggregate-mode tracing: shutdown's final flush must write the
    // profile document, serve counters included.
    let profile = std::env::temp_dir().join(format!(
        "rfkit_serve_shutdown_profile_{}.json",
        std::process::id()
    ));
    rfkit_obs::init(&rfkit_obs::TraceConfig {
        trace: true,
        out: Some(profile.clone()),
        ..rfkit_obs::TraceConfig::default()
    });

    let server = Server::start(ServeConfig {
        workers: 3,
        queue_capacity: 32,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // Several connections' worth of real traffic, fully answered before
    // the drain: admitted work completes.
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();
    for (k, c) in clients.iter_mut().enumerate() {
        for i in 0..4u64 {
            let id = (k as u64) * 10 + i;
            let r = c
                .call(&client::sweep_json(
                    id,
                    &vars(),
                    Some((1.1e9, 1.7e9, 7)),
                    None,
                ))
                .unwrap();
            assert_eq!(r.id, id);
            assert!(r.is_ok(), "{}", r.raw);
        }
    }

    // Pipeline a burst, confirm it is admitted (the drain contract
    // covers admitted work, not bytes still on the wire), then shut
    // down: everything admitted must still be answered — drain, never
    // drop.
    let before = server.stats().accepted;
    clients[0]
        .send(&client::sweep_json(901, &vars(), None, None))
        .unwrap();
    clients[0]
        .send(&client::sweep_json(902, &vars(), None, None))
        .unwrap();
    clients[0].send(&client::stats_json(903)).unwrap();
    while server.stats().accepted < before + 3 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let stats = server.shutdown();

    // Everything admitted was answered.
    let mut got = Vec::new();
    for _ in 0..3 {
        let r = clients[0].recv().expect("drained response delivered");
        got.push((r.id, r.status));
    }
    got.sort();
    assert_eq!(
        got,
        vec![
            (901, "ok".to_string()),
            (902, "ok".to_string()),
            (903, "ok".to_string()),
        ],
        "admitted burst answered through the drain"
    );

    // No leaked threads: spawn and exit counters agree for workers and
    // readers alike, and nothing was silently dropped.
    assert_eq!(stats.workers_spawned, 3);
    assert_eq!(
        stats.workers_exited, stats.workers_spawned,
        "worker threads leaked past shutdown"
    );
    assert_eq!(
        stats.connections_closed, stats.connections_opened,
        "reader threads leaked past shutdown"
    );
    assert_eq!(stats.accepted, stats.completed + stats.expired);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.internal_errors, 0);

    // The listener is gone: a fresh connection is refused, or closes
    // without ever answering a ping.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(_s) => {
            // Accepted by a dying socket backlog at worst; a real
            // request must fail.
            let mut c = match Client::connect(addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            assert!(
                c.call(&client::ping_json(1)).is_err(),
                "server answered after shutdown"
            );
        }
    }

    // The final flush wrote the aggregate profile, serve names included.
    std::thread::sleep(Duration::from_millis(10));
    let body = std::fs::read_to_string(&profile).expect("profile written by shutdown flush");
    assert!(body.contains("serve.request"), "serve span missing: {body}");
    assert!(
        body.contains("serve.requests.accepted"),
        "serve counters missing from profile"
    );
    let _ = std::fs::remove_file(&profile);
}

#[test]
fn double_shutdown_via_drop_is_idempotent() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert!(c.call(&client::ping_json(1)).unwrap().is_ok());
    drop(server); // Drop path runs the same drain; must not hang or panic.
}
