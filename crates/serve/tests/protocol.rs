//! Protocol robustness blitz: every malformed input — truncated frames,
//! oversized length prefixes, malformed JSON, unknown request types,
//! mid-frame disconnects — must produce a structured error response or a
//! clean close, never a panic, and must never take the server down for
//! the *next* client.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use rfkit_serve::{client, Client, ServeConfig, Server, MAX_BAND_CACHES};

fn small_server() -> Server {
    Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 8,
        // Tiny ceiling so the oversize test is cheap and obviously
        // allocation-free: a 64 KiB limit vs a 2 GiB prefix.
        max_frame_bytes: 64 * 1024,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// A snapped, feasible reference design.
fn nominal() -> lna::DesignVariables {
    lna::snap_to_catalog(lna::DesignVariables {
        vds: 3.0,
        ids: 0.05,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    })
}

/// After any abuse, the server must still answer a fresh client.
fn assert_still_serving(server: &Server) {
    let mut c = Client::connect(server.local_addr()).expect("fresh connection");
    let r = c.call(&client::ping_json(1)).expect("ping round-trips");
    assert!(r.is_ok(), "ping after abuse: {}", r.raw);
}

#[test]
fn oversized_length_prefix_is_refused_without_allocation() {
    let server = small_server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // A ~2 GiB promise against a 64 KiB ceiling. If the server
    // allocated first, this test would OOM the harness.
    raw.write_all(&0x7fff_ffffu32.to_be_bytes()).unwrap();
    raw.write_all(b"garbage that never amounts to the promise")
        .unwrap();
    let mut reader = raw.try_clone().unwrap();
    let payload = rfkit_serve::read_frame(&mut reader, 1 << 20).expect("error response arrives");
    let resp = rfkit_serve::Response::parse(&payload).unwrap();
    assert_eq!(resp.status, "error");
    assert!(
        resp.error.unwrap().contains("exceeds the maximum"),
        "max-frame error expected"
    );
    // The connection is closed afterwards (cannot resync past unread
    // payload): the next read is EOF — or a reset, since the server
    // closes with our unread garbage still in its receive buffer, which
    // TCP answers with RST rather than FIN.
    assert!(matches!(
        rfkit_serve::read_frame(&mut reader, 1 << 20),
        Err(rfkit_serve::FrameError::Closed | rfkit_serve::FrameError::Io(_))
    ));
    assert_still_serving(&server);
    let stats = server.shutdown();
    assert!(stats.protocol_errors >= 1);
}

#[test]
fn truncated_frame_and_mid_frame_disconnect_close_cleanly() {
    let server = small_server();
    // Disconnect after half a length prefix.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&[0u8, 0]).unwrap();
    }
    // Disconnect mid-payload: promise 100 bytes, send 10, vanish.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"0123456789").unwrap();
    }
    // A clean close at a frame boundary is not a protocol error.
    {
        let _raw = TcpStream::connect(server.local_addr()).unwrap();
    }
    assert_still_serving(&server);
    let stats = server.shutdown();
    assert_eq!(
        stats.workers_spawned, stats.workers_exited,
        "no leaked workers after abuse"
    );
}

#[test]
fn malformed_json_gets_structured_error_and_connection_survives() {
    let server = small_server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c.call("this is { not json").unwrap();
    assert_eq!(r.status, "error");
    assert!(r.error.unwrap().contains("malformed JSON"));
    // Framing is intact — the same connection keeps working.
    let r = c.call(&client::ping_json(2)).unwrap();
    assert!(r.is_ok());
    // Non-UTF-8 payload: structured error, connection still fine.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&4u32.to_be_bytes()).unwrap();
        raw.write_all(&[0xff, 0xfe, 0x80, 0x81]).unwrap();
        let mut reader = raw.try_clone().unwrap();
        let payload = rfkit_serve::read_frame(&mut reader, 1 << 20).unwrap();
        assert_eq!(
            rfkit_serve::Response::parse(&payload).unwrap().status,
            "error"
        );
        raw.write_all(&{
            let ping = client::ping_json(3);
            let mut buf = Vec::from((ping.len() as u32).to_be_bytes());
            buf.extend_from_slice(ping.as_bytes());
            buf
        })
        .unwrap();
        let payload = rfkit_serve::read_frame(&mut reader, 1 << 20).unwrap();
        assert!(rfkit_serve::Response::parse(&payload).unwrap().is_ok());
    }
    server.shutdown();
}

#[test]
fn unknown_request_type_echoes_id_in_structured_error() {
    let server = small_server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let r = c.call(r#"{"id":41,"type":"frobnicate"}"#).unwrap();
    assert_eq!(r.status, "error");
    assert_eq!(r.id, 41, "id echoed so pipelined callers can correlate");
    assert!(r.error.unwrap().contains("unknown request type"));
    // Bad field shapes are protocol errors too, with the id preserved.
    let r = c
        .call(r#"{"id":42,"type":"sweep","vars":{"vds":"three"}}"#)
        .unwrap();
    assert_eq!(r.status, "error");
    assert_eq!(r.id, 42);
    let stats = server.shutdown();
    assert!(stats.protocol_errors >= 2);
    assert_eq!(stats.internal_errors, 0);
}

#[test]
fn zero_length_frame_is_recoverable() {
    let server = small_server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&0u32.to_be_bytes()).unwrap();
    let mut reader = raw.try_clone().unwrap();
    let payload = rfkit_serve::read_frame(&mut reader, 1 << 20).unwrap();
    assert_eq!(
        rfkit_serve::Response::parse(&payload).unwrap().status,
        "error"
    );
    // The stream stayed aligned: a real request still works.
    let ping = client::ping_json(5);
    raw.write_all(&(ping.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(ping.as_bytes()).unwrap();
    let payload = rfkit_serve::read_frame(&mut reader, 1 << 20).unwrap();
    assert!(rfkit_serve::Response::parse(&payload).unwrap().is_ok());
    server.shutdown();
}

#[test]
fn deadline_expires_queued_request_without_evaluating() {
    // One worker pinned by a long design run; a sweep with a 1 ms
    // deadline queued behind it must come back `expired`, unevaluated.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut pinned = Client::connect(server.local_addr()).unwrap();
    pinned.send(&client::design_json(1, 20_000, 7)).unwrap();
    // Wait until the design is actually in flight so the deadline
    // clock of the next request starts while the worker is busy.
    let mut stats_conn = Client::connect(server.local_addr()).unwrap();
    loop {
        let r = stats_conn.call(&client::stats_json(900)).unwrap();
        let in_flight = r
            .result
            .get("in_flight")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if in_flight >= 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let vars = nominal();
    let sweep = {
        let mut doc = rfkit_obs::json::JsonObj::new();
        doc.num("id", 2.0);
        doc.str("type", "sweep");
        doc.raw("vars", &rfkit_serve::vars_json(&vars));
        doc.num("deadline_ms", 1.0);
        doc.finish()
    };
    pinned.send(&sweep).unwrap();
    // Two responses on this connection: the expired sweep (id 2) and
    // the completed design (id 1), in either order.
    let mut by_id = std::collections::BTreeMap::new();
    for _ in 0..2 {
        let r = pinned.recv().unwrap();
        by_id.insert(r.id, r);
    }
    assert_eq!(by_id[&1].status, "ok", "pinning design completed");
    assert_eq!(by_id[&2].status, "expired");
    let stats = server.shutdown();
    assert_eq!(stats.expired, 1);
}

#[test]
fn band_cache_map_stays_bounded_and_totals_never_drop() {
    // Every distinct band a client names gets a design cache. Past
    // MAX_BAND_CACHES the smallest band key is evicted, and its counters
    // move into the stats totals instead of vanishing.
    let server = small_server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let vars = nominal();
    let mut last = (0, 0);
    // Sweeps band `i` and returns the (hits, misses) totals after it.
    let mut sweep = |id: u64, i: usize| {
        let band = (1.1e9 + 1e6 * i as f64, 1.7e9, 2);
        let r = c
            .call(&client::sweep_json(id, &vars, Some(band), None))
            .unwrap();
        assert!(r.is_ok(), "{}", r.raw);
        let s = server.stats();
        // Each band cache holds the one design, so entries count caches.
        assert!(s.design_cache_entries <= MAX_BAND_CACHES, "map unbounded");
        let now = (s.design_cache_hits, s.design_cache_misses);
        assert!(now.0 >= last.0 && now.1 >= last.1, "{now:?} < {last:?}");
        last = now;
        now
    };
    for i in 0..=MAX_BAND_CACHES {
        sweep(i as u64, i);
    }
    // Band 1 is still cached; band 0 was evicted and misses again, which
    // evicts band 1 — whose hit stays in the totals.
    assert_eq!(sweep(100, 1), (1, MAX_BAND_CACHES as u64 + 1));
    assert_eq!(sweep(101, 0), (1, MAX_BAND_CACHES as u64 + 2));
    server.shutdown();
}
