//! Wire protocol: length-prefixed JSON frames plus the request/response
//! model, reusing the `rfkit-obs` JSON writer/parser.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+---------------------------+
//! | length: u32 BE | payload: `length` bytes   |
//! +----------------+---------------------------+
//! ```
//!
//! The payload is one UTF-8 JSON object. The length prefix is validated
//! against the configured ceiling **before** any allocation, so a
//! hostile prefix can never OOM the server; a zero length is equally
//! invalid. Both sides speak the same frames — responses are framed
//! exactly like requests.
//!
//! # Requests
//!
//! Every request is an object with a `type` field, an optional numeric
//! `id` (echoed verbatim on the response; defaults to 0), and an
//! optional `deadline_ms` (queue-to-start budget). The work types:
//!
//! | `type`   | fields                                              |
//! |----------|-----------------------------------------------------|
//! | `ping`   | —                                                   |
//! | `stats`  | —                                                   |
//! | `sweep`  | `vars`, optional `band`, optional `policy`          |
//! | `verify` | `vars`, optional `band`                             |
//! | `design` | optional `goals`, `max_evals`, `seed`, `band`       |
//! | `yield`  | `vars`, optional `band`, `spec`, `units`, `seed`    |
//!
//! `vars` is the seven-field design vector (`vds`, `ids`, `l1`,
//! `ls_deg`, `l2`, `c2`, `r_bias`, all SI floats); `band` is
//! `{"f_lo": Hz, "f_hi": Hz, "points": N}` (default: the GNSS band);
//! `policy` is `{"max_fail_frac": f}` (default: strict).
//!
//! # Responses
//!
//! `{"id": .., "status": .., "result": {..}, "diagnostics": [..],
//! "error": ".."}` where `status` is one of `ok`, `degraded`,
//! `infeasible`, `failed`, `overloaded`, `expired`, or `error`.
//! Degraded and failed evaluations carry grid-ordered per-point
//! `diagnostics` instead of an opaque 500-style error.

use std::io::{self, Read, Write};

use lna::{BandSpec, DegradePolicy, DesignGoals, DesignVariables, PointDiagnostic, YieldSpec};
use rfkit_obs::json::{self, fmt_f64, Json, JsonObj};

/// Default ceiling on one frame's payload: 1 MiB.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary: normal EOF.
    Closed,
    /// The peer disconnected mid-frame (prefix or payload cut short).
    Truncated,
    /// Zero-length payload — not a valid frame.
    Empty,
    /// The length prefix exceeds the ceiling; the payload was never
    /// allocated or read, so the only safe continuation is to close.
    Oversized(usize),
    /// The payload is not valid UTF-8. The frame was fully consumed, so
    /// the stream is still frame-aligned and the connection can keep
    /// serving.
    NotUtf8,
    /// Transport error.
    Io(io::Error),
}

impl FrameError {
    /// `true` when the stream is still frame-aligned after this error
    /// and the connection can keep serving.
    pub fn recoverable(&self) -> bool {
        matches!(self, FrameError::NotUtf8 | FrameError::Empty)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "frame truncated by disconnect"),
            FrameError::Empty => write!(f, "zero-length frame"),
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds the maximum"),
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Reads one frame, enforcing `max_payload` before allocating.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<String, FrameError> {
    let mut prefix = [0u8; 4];
    fill(r, &mut prefix, true)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > max_payload {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    fill(r, &mut payload, false)?;
    String::from_utf8(payload).map_err(|_| FrameError::NotUtf8)
}

/// Reads exactly `buf.len()` bytes. `at_boundary` distinguishes a clean
/// close (EOF before the first prefix byte) from a mid-frame truncation.
fn fill(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if at_boundary && got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Writes one frame (prefix + payload + flush).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 framing"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// One parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed on the response (0 when
    /// absent). Responses on one connection may arrive out of request
    /// order — the id is how pipelined callers match them up.
    pub id: u64,
    /// Queue-to-start budget in milliseconds: an admitted request that
    /// waits longer is answered `expired` without being evaluated.
    pub deadline_ms: Option<u64>,
    /// The work item.
    pub body: RequestBody,
}

/// The work item of a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe, answered inline by the connection reader.
    Ping,
    /// Server and cache statistics snapshot, answered inline.
    Stats,
    /// Band sweep of one design through the shared design cache.
    Sweep {
        /// Design vector to evaluate.
        vars: DesignVariables,
        /// Band to sweep.
        band: BandSpec,
        /// Tolerance for transient per-point failures.
        policy: DegradePolicy,
    },
    /// Netlist verification sweep: builds the reference netlist for the
    /// design vector and runs it through the process-wide shared
    /// `StampPlan` cache with the worker's warm `AcWorkspace`.
    Verify {
        /// Design vector whose netlist to verify.
        vars: DesignVariables,
        /// Frequency grid to sweep.
        band: BandSpec,
    },
    /// Full design/optimize run (the objective spec rides in `goals`).
    Design {
        /// Goal-attainment objective spec.
        goals: DesignGoals,
        /// Objective-evaluation budget.
        max_evals: usize,
        /// Optimizer seed.
        seed: u64,
        /// Band to design for.
        band: BandSpec,
    },
    /// Monte-Carlo yield analysis of one design.
    Yield {
        /// Design vector to manufacture.
        vars: DesignVariables,
        /// Band to grade over.
        band: BandSpec,
        /// Pass/fail specification.
        spec: YieldSpec,
        /// Units to manufacture.
        units: usize,
        /// Tolerance-draw seed base.
        seed: u64,
        /// Tolerance for transient per-unit failures.
        policy: DegradePolicy,
    },
}

impl RequestBody {
    /// Short wire name of this request type.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Stats => "stats",
            RequestBody::Sweep { .. } => "sweep",
            RequestBody::Verify { .. } => "verify",
            RequestBody::Design { .. } => "design",
            RequestBody::Yield { .. } => "yield",
        }
    }
}

/// Hard cap on requested grid sizes: enough for any real sweep, small
/// enough that a hostile request cannot pin a worker indefinitely.
const MAX_BAND_POINTS: usize = 4096;
/// Design budget clamp (floor keeps the optimizer meaningful, ceiling
/// bounds worst-case request cost).
const DESIGN_EVALS_RANGE: (usize, usize) = (60, 40_000);
/// Yield unit-count clamp.
const MAX_YIELD_UNITS: usize = 2048;

fn req_num(obj: &Json, ctx: &str, key: &str) -> Result<f64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field `{ctx}{key}`"))?;
    if !v.is_finite() {
        return Err(format!("field `{ctx}{key}` is not finite"));
    }
    Ok(v)
}

fn opt_num(obj: &Json, ctx: &str, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("field `{ctx}{key}` is not a number"))?;
            if !v.is_finite() {
                return Err(format!("field `{ctx}{key}` is not finite"));
            }
            Ok(v)
        }
    }
}

/// A count field's value: integral, so `7.9` points or `12.5` units are
/// refused rather than truncated. Negative values saturate to 0 and meet
/// the field's range check or clamp.
fn count(v: f64, ctx: &str, key: &str) -> Result<usize, String> {
    if v != v.trunc() {
        return Err(format!("field `{ctx}{key}` is not an integer"));
    }
    Ok(v as usize)
}

fn parse_vars(doc: &Json) -> Result<DesignVariables, String> {
    let v = doc
        .get("vars")
        .ok_or_else(|| "missing object `vars`".to_string())?;
    Ok(DesignVariables {
        vds: req_num(v, "vars.", "vds")?,
        ids: req_num(v, "vars.", "ids")?,
        l1: req_num(v, "vars.", "l1")?,
        ls_deg: req_num(v, "vars.", "ls_deg")?,
        l2: req_num(v, "vars.", "l2")?,
        c2: req_num(v, "vars.", "c2")?,
        r_bias: req_num(v, "vars.", "r_bias")?,
    })
}

fn parse_band(doc: &Json) -> Result<BandSpec, String> {
    let Some(b) = doc.get("band") else {
        return Ok(BandSpec::gnss());
    };
    let f_lo = req_num(b, "band.", "f_lo")?;
    let f_hi = req_num(b, "band.", "f_hi")?;
    let points = count(req_num(b, "band.", "points")?, "band.", "points")?;
    if f_lo <= 0.0 || f_hi <= f_lo {
        return Err("band requires 0 < f_lo < f_hi".into());
    }
    if !(2..=MAX_BAND_POINTS).contains(&points) {
        return Err(format!("band.points must be in 2..={MAX_BAND_POINTS}"));
    }
    Ok(BandSpec::new(f_lo, f_hi, points))
}

fn parse_policy(doc: &Json, default: DegradePolicy) -> Result<DegradePolicy, String> {
    let Some(p) = doc.get("policy") else {
        return Ok(default);
    };
    let frac = req_num(p, "policy.", "max_fail_frac")?;
    if !(0.0..=1.0).contains(&frac) {
        return Err("policy.max_fail_frac must be in [0, 1]".into());
    }
    Ok(DegradePolicy::lenient(frac))
}

fn parse_goals(doc: &Json) -> Result<DesignGoals, String> {
    let d = DesignGoals::default();
    let Some(g) = doc.get("goals") else {
        return Ok(d);
    };
    Ok(DesignGoals {
        nf_db: opt_num(g, "goals.", "nf_db", d.nf_db)?,
        gain_db: opt_num(g, "goals.", "gain_db", d.gain_db)?,
        return_loss_db: opt_num(g, "goals.", "return_loss_db", d.return_loss_db)?,
        nf_weight: opt_num(g, "goals.", "nf_weight", d.nf_weight)?,
        gain_weight: opt_num(g, "goals.", "gain_weight", d.gain_weight)?,
        stability_margin: opt_num(g, "goals.", "stability_margin", d.stability_margin)?,
    })
}

fn parse_spec(doc: &Json) -> Result<YieldSpec, String> {
    let d = YieldSpec::default();
    let Some(s) = doc.get("spec") else {
        return Ok(d);
    };
    Ok(YieldSpec {
        max_nf_db: opt_num(s, "spec.", "max_nf_db", d.max_nf_db)?,
        min_gain_db: opt_num(s, "spec.", "min_gain_db", d.min_gain_db)?,
        max_s11_db: opt_num(s, "spec.", "max_s11_db", d.max_s11_db)?,
        require_stability: match s.get("require_stability") {
            None | Some(Json::Null) => d.require_stability,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("spec.require_stability must be a bool".into()),
        },
    })
}

impl Request {
    /// Parses and validates one request payload. On failure the error
    /// carries the request id when one was readable (0 otherwise) so the
    /// caller can still correlate the error response.
    pub fn parse(payload: &str) -> Result<Request, (u64, String)> {
        let doc = json::parse(payload).map_err(|e| (0, format!("malformed JSON: {e}")))?;
        let id = doc
            .get("id")
            .and_then(Json::as_f64)
            .map(|v| v.max(0.0) as u64)
            .unwrap_or(0);
        let kind = match doc.get("type").and_then(Json::as_str) {
            Some(k) => k,
            None => return Err((id, "missing string field `type`".into())),
        };
        let deadline_ms = doc
            .get("deadline_ms")
            .and_then(Json::as_f64)
            .map(|v| v.max(0.0) as u64);
        let body = match kind {
            "ping" => RequestBody::Ping,
            "stats" => RequestBody::Stats,
            "sweep" => RequestBody::Sweep {
                vars: parse_vars(&doc).map_err(|m| (id, m))?,
                band: parse_band(&doc).map_err(|m| (id, m))?,
                policy: parse_policy(&doc, DegradePolicy::strict()).map_err(|m| (id, m))?,
            },
            "verify" => RequestBody::Verify {
                vars: parse_vars(&doc).map_err(|m| (id, m))?,
                band: parse_band(&doc).map_err(|m| (id, m))?,
            },
            "design" => {
                let evals = opt_num(&doc, "", "max_evals", 1200.0)
                    .and_then(|v| count(v, "", "max_evals"))
                    .map_err(|m| (id, m))?;
                RequestBody::Design {
                    goals: parse_goals(&doc).map_err(|m| (id, m))?,
                    max_evals: evals.clamp(DESIGN_EVALS_RANGE.0, DESIGN_EVALS_RANGE.1),
                    seed: opt_num(&doc, "", "seed", 0x1a5 as f64).map_err(|m| (id, m))? as u64,
                    band: parse_band(&doc).map_err(|m| (id, m))?,
                }
            }
            "yield" => {
                let units = opt_num(&doc, "", "units", 64.0)
                    .and_then(|v| count(v, "", "units"))
                    .map_err(|m| (id, m))?;
                RequestBody::Yield {
                    vars: parse_vars(&doc).map_err(|m| (id, m))?,
                    band: parse_band(&doc).map_err(|m| (id, m))?,
                    spec: parse_spec(&doc).map_err(|m| (id, m))?,
                    units: units.clamp(1, MAX_YIELD_UNITS),
                    seed: opt_num(&doc, "", "seed", 1.0).map_err(|m| (id, m))? as u64,
                    policy: parse_policy(&doc, DegradePolicy::lenient(1.0)).map_err(|m| (id, m))?,
                }
            }
            other => return Err((id, format!("unknown request type `{other}`"))),
        };
        Ok(Request {
            id,
            deadline_ms,
            body,
        })
    }
}

/// A parsed response frame — the client-side view.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed request id (0 when the server could not read one).
    pub id: u64,
    /// Terminal status: `ok`, `degraded`, `infeasible`, `failed`,
    /// `overloaded`, `expired`, or `error`.
    pub status: String,
    /// Type-specific result object (`Json::Null` when absent).
    pub result: Json,
    /// Grid-ordered per-point diagnostics for degraded/failed work.
    pub diagnostics: Vec<PointDiagnostic>,
    /// Human-readable reason for `error`/`overloaded`/`expired`.
    pub error: Option<String>,
    /// The raw payload, byte-for-byte — determinism tests compare this.
    pub raw: String,
}

impl Response {
    /// Parses one response payload.
    pub fn parse(payload: &str) -> Result<Response, String> {
        let doc = json::parse(payload)?;
        let id = doc
            .get("id")
            .and_then(Json::as_f64)
            .map(|v| v.max(0.0) as u64)
            .unwrap_or(0);
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| "response missing `status`".to_string())?
            .to_string();
        let diagnostics = doc
            .get("diagnostics")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|d| {
                        Some(PointDiagnostic {
                            index: d.get("index")?.as_f64()? as usize,
                            at: d.get("at")?.as_f64()?,
                            detail: d.get("detail")?.as_str()?.to_string(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(Response {
            id,
            status,
            result: doc.get("result").cloned().unwrap_or(Json::Null),
            diagnostics,
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
            raw: payload.to_string(),
        })
    }

    /// `true` when the request completed cleanly.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }
}

/// Serializes a design vector as the wire `vars` object.
pub fn vars_json(vars: &DesignVariables) -> String {
    let mut o = JsonObj::new();
    o.num("vds", vars.vds);
    o.num("ids", vars.ids);
    o.num("l1", vars.l1);
    o.num("ls_deg", vars.ls_deg);
    o.num("l2", vars.l2);
    o.num("c2", vars.c2);
    o.num("r_bias", vars.r_bias);
    o.finish()
}

pub(crate) fn response_base(id: u64, status: &str) -> JsonObj {
    let mut o = JsonObj::new();
    o.num("id", id as f64);
    o.str("status", status);
    o
}

pub(crate) fn error_response(id: u64, detail: &str) -> String {
    let mut o = response_base(id, "error");
    o.str("error", detail);
    o.finish()
}

pub(crate) fn overloaded_response(id: u64, capacity: usize) -> String {
    let mut o = response_base(id, "overloaded");
    o.str(
        "error",
        &format!("queue at capacity ({capacity}); retry with backoff"),
    );
    o.num("queue_capacity", capacity as f64);
    o.finish()
}

pub(crate) fn expired_response(id: u64, waited_ms: u64, deadline_ms: u64) -> String {
    let mut o = response_base(id, "expired");
    o.str(
        "error",
        &format!("queued {waited_ms} ms, past the {deadline_ms} ms deadline"),
    );
    o.finish()
}

pub(crate) fn diagnostics_json(diags: &[PointDiagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = JsonObj::new();
        o.num("index", d.index as f64);
        o.num("at", d.at);
        o.str("detail", &d.detail);
        out.push_str(&o.finish());
    }
    out.push(']');
    out
}

pub(crate) fn metrics_json(m: &lna::BandMetrics) -> String {
    let mut o = JsonObj::new();
    o.num("worst_nf_db", m.worst_nf_db);
    o.num("min_gain_db", m.min_gain_db);
    o.num("worst_s11_db", m.worst_s11_db);
    o.num("worst_s22_db", m.worst_s22_db);
    o.num("min_mu", m.min_mu);
    o.num("min_k", m.min_k);
    o.finish()
}

/// Serializes an `f64` slice as a JSON array (shortest-roundtrip float
/// formatting, like every number on this wire).
pub(crate) fn f64_array_json(xs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(x));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"type":"ping"}"#).unwrap();
        let mut cursor = &buf[..];
        let got = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(got, r#"{"type":"ping"}"#);
        // Stream exhausted: next read is a clean close.
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"ignored");
        let err = read_frame(&mut &buf[..], 1 << 20).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(n) if n == u32::MAX as usize));
        assert!(!err.recoverable());
    }

    #[test]
    fn truncation_is_distinguished_from_clean_close() {
        // Prefix promises 100 bytes, stream carries 3.
        let mut buf = Vec::from(100u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &buf[..], 1 << 20),
            Err(FrameError::Truncated)
        ));
        // Half a prefix is also a truncation, not a close.
        let half = [0u8, 0];
        assert!(matches!(
            read_frame(&mut &half[..], 1 << 20),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn request_parse_validates() {
        let r = Request::parse(r#"{"id":7,"type":"ping"}"#).unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.body, RequestBody::Ping);

        let (id, msg) = Request::parse(r#"{"id":9,"type":"frobnicate"}"#).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("unknown request type"));

        let (_, msg) = Request::parse(r#"{"type":"sweep"}"#).unwrap_err();
        assert!(msg.contains("vars"));

        let (_, msg) = Request::parse("{not json").unwrap_err();
        assert!(msg.contains("malformed JSON"));

        // Band validation: inverted edges are rejected, not panicked on.
        let bad = r#"{"type":"sweep","vars":{"vds":3,"ids":0.05,"l1":6.8e-9,
            "ls_deg":0.4e-9,"l2":1e-8,"c2":2.2e-12,"r_bias":30},
            "band":{"f_lo":2e9,"f_hi":1e9,"points":5}}"#;
        let (_, msg) = Request::parse(bad).unwrap_err();
        assert!(msg.contains("f_lo < f_hi"));
    }

    const VARS: &str = r#""vars":{"vds":3,"ids":0.05,"l1":6.8e-9,"ls_deg":0.4e-9,
        "l2":1e-8,"c2":2.2e-12,"r_bias":30}"#;

    #[test]
    fn band_points_must_be_integral() {
        let req = format!(
            r#"{{"id":4,"type":"sweep",{VARS},"band":{{"f_lo":1e9,"f_hi":2e9,"points":7.9}}}}"#
        );
        assert_eq!(
            Request::parse(&req).unwrap_err(),
            (4, "field `band.points` is not an integer".to_string())
        );
        assert!(matches!(
            Request::parse(&req.replace("7.9", "7")).map(|r| r.body),
            Ok(RequestBody::Sweep { band, .. }) if band.n_points() == 7
        ));
    }

    #[test]
    fn yield_units_must_be_integral() {
        let req = format!(r#"{{"id":5,"type":"yield",{VARS},"units":12.5}}"#);
        assert_eq!(
            Request::parse(&req).unwrap_err(),
            (5, "field `units` is not an integer".to_string())
        );
        assert!(matches!(
            Request::parse(&req.replace("12.5", "12")).map(|r| r.body),
            Ok(RequestBody::Yield { units: 12, .. })
        ));
    }

    #[test]
    fn design_max_evals_must_be_integral() {
        let req = r#"{"id":6,"type":"design","max_evals":1200.5}"#;
        assert_eq!(
            Request::parse(req).unwrap_err(),
            (6, "field `max_evals` is not an integer".to_string())
        );
        assert!(matches!(
            Request::parse(&req.replace("1200.5", "1200")).map(|r| r.body),
            Ok(RequestBody::Design {
                max_evals: 1200,
                ..
            })
        ));
    }

    #[test]
    fn response_parse_round_trips_diagnostics() {
        let payload = format!(
            r#"{{"id":3,"status":"degraded","result":{{"worst_nf_db":0.7}},"diagnostics":{}}}"#,
            diagnostics_json(&[PointDiagnostic {
                index: 4,
                at: 1.3e9,
                detail: "injected point failure".into(),
            }])
        );
        let r = Response::parse(&payload).unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.status, "degraded");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].index, 4);
        assert_eq!(r.diagnostics[0].at, 1.3e9);
    }
}
