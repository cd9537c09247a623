//! The wire protocol: newline-delimited JSON, one request per line, one
//! response per line. `docs/protocol.md` is the normative human-readable
//! spec; this module is its implementation.
//!
//! Every request is a JSON object with a `"type"` member selecting the
//! operation; every response is a JSON object whose first member is
//! `"ok"` (after the echoed `"id"`, when present). Failures carry a
//! stable machine-readable `"code"` (see [`ErrorCode`]) plus a
//! human-readable `"error"` message.
//!
//! Two protocol generations share the framing:
//!
//! - **v1 (legacy, default)**: strictly in-order — one response per
//!   request, written in request order.
//! - **v2 (negotiated)**: a connection that sends `{"type":"hello",
//!   "proto":2}` switches to multiplexed mode: every subsequent request
//!   must carry an `id`, responses may arrive **out of order** (matched
//!   by id), and `batch`/`sweep` stream per-trial/per-lane
//!   `{"id":..,"seq":N,"partial":true,...}` frames before the terminal
//!   response.

use core::fmt;

use sempe_compile::Backend;
use sempe_core::json::{self, Json};
use sempe_sim::{SecurityMode, SimConfig, Stepping};

/// Hard cap on one request line (bytes, newline included).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;
/// Hard cap on submitted WIR source (bytes).
pub const MAX_SOURCE_BYTES: usize = 64 * 1024;
/// Hard cap on attack candidate count.
pub const MAX_CANDIDATES: usize = 32;
/// Hard cap on `batch` input vectors per request. Raised from 128 when
/// streaming landed: a v2 batch flows per-trial frames instead of one
/// giant reply, so large trial counts no longer buffer a huge response.
pub const MAX_BATCH_ITEMS: usize = 4096;
/// Default simulation fuel per run.
pub const DEFAULT_MAX_CYCLES: u64 = 200_000_000;
/// Hard cap on requested simulation fuel.
pub const MAX_MAX_CYCLES: u64 = 2_000_000_000;
/// Hard cap on a request's `deadline_ms` (10 minutes).
pub const MAX_DEADLINE_MS: u64 = 600_000;
/// Hard cap on a request's client-chosen `id` (encoded bytes).
pub const MAX_ID_BYTES: usize = 128;
/// The protocol generation a v2 `hello` negotiates.
pub const PROTO_VERSION: u64 = 2;

/// Machine-readable error codes (the `"code"` member of error responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line is not valid JSON or not a JSON object.
    Parse,
    /// The request is well-formed JSON but semantically invalid.
    BadRequest,
    /// The WIR source failed to parse.
    Wir,
    /// Code generation failed.
    Compile,
    /// Simulation failed (fault, watchdog, fuel exhausted).
    Sim,
    /// The request's `deadline_ms` expired before the job finished.
    Deadline,
    /// The job queue is full — retry later (backpressure).
    Busy,
    /// The server is shutting down.
    Shutdown,
    /// Internal failure (worker died mid-job).
    Internal,
}

impl ErrorCode {
    /// The stable wire string.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "E_PARSE",
            ErrorCode::BadRequest => "E_BAD_REQUEST",
            ErrorCode::Wir => "E_WIR",
            ErrorCode::Compile => "E_COMPILE",
            ErrorCode::Sim => "E_SIM",
            ErrorCode::Deadline => "E_DEADLINE",
            ErrorCode::Busy => "E_BUSY",
            ErrorCode::Shutdown => "E_SHUTDOWN",
            ErrorCode::Internal => "E_INTERNAL",
        }
    }
}

/// A request-level failure, rendered as an `{"ok":false,...}` line.
/// Deadline errors carry the partial progress made before the budget
/// expired under `"partial"`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable message.
    pub message: String,
    /// Partial progress at the point of failure (`E_DEADLINE` only).
    pub partial: Option<Json>,
}

impl ServiceError {
    /// Build an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServiceError { code, message: message.into(), partial: None }
    }

    /// Attach partial progress (rendered as the `"partial"` member).
    #[must_use]
    pub fn with_partial(mut self, partial: Json) -> Self {
        self.partial = Some(partial);
        self
    }

    /// Serialize as a response line (without trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut j = Json::obj()
            .with("ok", false)
            .with("code", self.code.as_str())
            .with("error", self.message.as_str());
        if let Some(p) = &self.partial {
            j.set("partial", p.clone());
        }
        j.encode()
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ServiceError {}

/// Which (compiler backend, machine model) pair a request targets —
/// the same three combinations the paper's figures measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendSel {
    /// Baseline binary on the unprotected pipeline.
    Baseline,
    /// SeMPE binary on the SeMPE pipeline.
    Sempe,
    /// Constant-time binary on the unprotected pipeline.
    Cte,
}

impl BackendSel {
    /// The three measured combinations, in report order.
    pub const ALL: [BackendSel; 3] = [BackendSel::Baseline, BackendSel::Sempe, BackendSel::Cte];

    /// Stable wire name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            BackendSel::Baseline => "baseline",
            BackendSel::Sempe => "sempe",
            BackendSel::Cte => "cte",
        }
    }

    /// Parse a wire name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "baseline" => Some(BackendSel::Baseline),
            "sempe" => Some(BackendSel::Sempe),
            "cte" => Some(BackendSel::Cte),
            _ => None,
        }
    }

    /// The compiler backend of the pair.
    #[must_use]
    pub const fn backend(self) -> Backend {
        match self {
            BackendSel::Baseline => Backend::Baseline,
            BackendSel::Sempe => Backend::Sempe,
            BackendSel::Cte => Backend::Cte,
        }
    }

    /// The machine model of the pair (CTE needs no hardware support).
    #[must_use]
    pub fn sim_config(self) -> SimConfig {
        match self {
            BackendSel::Sempe => SimConfig::paper(),
            BackendSel::Baseline | BackendSel::Cte => SimConfig::baseline(),
        }
    }

    /// The security mode of the machine model.
    #[must_use]
    pub fn mode(self) -> SecurityMode {
        self.sim_config().mode
    }
}

/// Which execution tier a `run`/`batch` request simulates under (the
/// request's optional `"mode"` member).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Full cycle-accurate simulation (the default).
    #[default]
    Detailed,
    /// Tiered execution: functional fast-forward outside the regions of
    /// interest, detailed pipeline inside them (`docs/performance.md`,
    /// layer 4). Architecturally identical to detailed; cycle counters
    /// only cover the detailed spans.
    Tiered,
}

impl ExecMode {
    /// Stable wire name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            ExecMode::Detailed => "detailed",
            ExecMode::Tiered => "tiered",
        }
    }

    /// The machine configuration for `sel` under this tier. The
    /// stepping is part of [`SimConfig::digest`], so tiered and
    /// detailed requests can never alias in the result cache or share a
    /// fork-server checkpoint.
    #[must_use]
    pub fn sim_config(self, sel: BackendSel) -> SimConfig {
        match self {
            ExecMode::Detailed => sel.sim_config(),
            ExecMode::Tiered => sel.sim_config().with_stepping(Stepping::Tiered),
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile WIR source for one backend; return binary metadata and a
    /// disassembly listing.
    Compile {
        /// WIR source text.
        source: String,
        /// Target backend.
        backend: BackendSel,
    },
    /// Compile and simulate; return cycles/committed/stats/outputs.
    Run {
        /// WIR source text.
        source: String,
        /// Target (backend, machine) pair.
        backend: BackendSel,
        /// Execution tier (detailed or tiered).
        mode: ExecMode,
        /// Simulation fuel.
        max_cycles: u64,
    },
    /// Fan one program across all three combinations concurrently;
    /// return paper-style overhead ratios.
    Sweep {
        /// WIR source text.
        source: String,
        /// Simulation fuel per run.
        max_cycles: u64,
    },
    /// Run the timing and branch-profile attackers against the
    /// observation trace; report whether the secret is recoverable.
    Attack {
        /// WIR source text (must declare at least one `secret`).
        source: String,
        /// Machine model under attack.
        mode: SecurityMode,
        /// Name of the secret variable (default: first declared secret).
        secret: Option<String>,
        /// The victim's actual secret (default: the declared initializer).
        secret_value: Option<u64>,
        /// Candidate secrets the attacker calibrates over (default `[0,1]`).
        candidates: Vec<u64>,
        /// Simulation fuel per run.
        max_cycles: u64,
    },
    /// Run one compiled program under N input vectors on the fork
    /// server: built once, checkpointed once, each item restores the
    /// checkpoint, patches the named scalars' data slots, and runs.
    Batch {
        /// WIR source text.
        source: String,
        /// Target (backend, machine) pair.
        backend: BackendSel,
        /// Execution tier (detailed or tiered).
        mode: ExecMode,
        /// One entry per trial: `(variable name, value)` assignments
        /// applied in order on top of the declared initializers.
        inputs: Vec<Vec<(String, u64)>>,
        /// Pair items `(0,1), (2,3), …` as secret pairs and check the
        /// leak invariant (equal cycles, equal committed count,
        /// `Strictness::Full`-identical observation traces).
        leak_check: bool,
        /// Simulation fuel per item.
        max_cycles: u64,
    },
    /// Server health: queue depth, cache hit rate, worker utilization.
    Stats,
    /// Readiness/liveness probe: queue pressure, worker pool state,
    /// restart and fault-injection counters. Served inline, never queued.
    Health,
    /// Full telemetry snapshot: every counter, gauge, and latency
    /// histogram in the registry. Served inline, never queued.
    Metrics {
        /// Rendering of the snapshot.
        format: MetricsFormat,
    },
    /// Stop accepting connections and exit cleanly.
    Shutdown,
    /// Protocol negotiation: switches the connection to the multiplexed
    /// v2 mode (pipelined ids, out-of-order responses, streaming frames).
    /// Served inline, never queued.
    Hello {
        /// Requested protocol generation (must be [`PROTO_VERSION`]).
        proto: u64,
    },
}

/// How a [`Request::Metrics`] response renders the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Structured JSON snapshot (the default).
    #[default]
    Json,
    /// Prometheus-style text exposition, carried as a `"text"` member.
    Prometheus,
}

/// The compute ops, in the order of every per-op metric handle array.
pub(crate) const COMPUTE_OPS: [&str; 5] = ["compile", "run", "sweep", "attack", "batch"];

/// Index of a compute op in [`COMPUTE_OPS`]; `None` for an inline op.
pub(crate) fn op_slot(op: &str) -> Option<usize> {
    COMPUTE_OPS.iter().position(|&o| o == op)
}

impl Request {
    /// Does this request go through the job queue (and the result cache)?
    #[must_use]
    pub fn is_compute(&self) -> bool {
        !matches!(
            self,
            Request::Stats
                | Request::Health
                | Request::Metrics { .. }
                | Request::Shutdown
                | Request::Hello { .. }
        )
    }

    /// The wire name of this request's `type`, for telemetry labels.
    #[must_use]
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Compile { .. } => "compile",
            Request::Run { .. } => "run",
            Request::Sweep { .. } => "sweep",
            Request::Attack { .. } => "attack",
            Request::Batch { .. } => "batch",
            Request::Stats => "stats",
            Request::Health => "health",
            Request::Metrics { .. } => "metrics",
            Request::Shutdown => "shutdown",
            Request::Hello { .. } => "hello",
        }
    }

    /// Is this a heavy fan-out request (`batch`/`sweep`) — the first to
    /// be shed under queue pressure?
    #[must_use]
    pub fn is_heavy(&self) -> bool {
        matches!(self, Request::Batch { .. } | Request::Sweep { .. })
    }

    /// Parse one request line.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] with [`ErrorCode::Parse`] for malformed JSON and
    /// [`ErrorCode::BadRequest`] for semantic problems.
    pub fn parse(line: &str) -> Result<Request, ServiceError> {
        let v = json::parse(line)
            .map_err(|e| ServiceError::new(ErrorCode::Parse, format!("invalid JSON: {e}")))?;
        if !matches!(v, Json::Obj(_)) {
            return Err(ServiceError::new(ErrorCode::Parse, "request must be a JSON object"));
        }
        Request::from_json(&v)
    }

    /// Parse an already-decoded request object (sans envelope members).
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn from_json(v: &Json) -> Result<Request, ServiceError> {
        let ty = require_str(v, "type")?;
        match ty {
            "compile" => Ok(Request::Compile {
                source: take_source(v)?,
                backend: opt_backend(v)?.unwrap_or(BackendSel::Sempe),
            }),
            "run" => Ok(Request::Run {
                source: take_source(v)?,
                backend: opt_backend(v)?.unwrap_or(BackendSel::Sempe),
                mode: opt_exec_mode(v)?,
                max_cycles: opt_fuel(v)?,
            }),
            "sweep" => Ok(Request::Sweep { source: take_source(v)?, max_cycles: opt_fuel(v)? }),
            "attack" => {
                let mode = match opt_str(v, "mode")? {
                    None | Some("baseline") => SecurityMode::Baseline,
                    Some("sempe") => SecurityMode::Sempe,
                    Some(other) => {
                        return Err(ServiceError::new(
                            ErrorCode::BadRequest,
                            format!("unknown mode `{other}` (expected baseline|sempe)"),
                        ))
                    }
                };
                let candidates = match v.get("candidates") {
                    None => vec![0, 1],
                    Some(c) => parse_candidates(c)?,
                };
                Ok(Request::Attack {
                    source: take_source(v)?,
                    mode,
                    secret: opt_str(v, "secret")?.map(str::to_string),
                    secret_value: opt_u64(v, "secret_value")?,
                    candidates,
                    max_cycles: opt_fuel(v)?,
                })
            }
            "batch" => {
                let inputs = match v.get("inputs") {
                    Some(i) => parse_inputs(i)?,
                    None => {
                        return Err(ServiceError::new(
                            ErrorCode::BadRequest,
                            "batch needs an `inputs` array",
                        ))
                    }
                };
                let leak_check = match v.get("leak_check") {
                    None | Some(Json::Null) => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => {
                        return Err(ServiceError::new(
                            ErrorCode::BadRequest,
                            "member `leak_check` must be a boolean",
                        ))
                    }
                };
                if leak_check && inputs.len() % 2 != 0 {
                    return Err(ServiceError::new(
                        ErrorCode::BadRequest,
                        "leak_check pairs items (0,1),(2,3),… — `inputs` must have even length",
                    ));
                }
                Ok(Request::Batch {
                    source: take_source(v)?,
                    backend: opt_backend(v)?.unwrap_or(BackendSel::Sempe),
                    mode: opt_exec_mode(v)?,
                    inputs,
                    leak_check,
                    max_cycles: opt_fuel(v)?,
                })
            }
            "stats" => Ok(Request::Stats),
            "health" => Ok(Request::Health),
            "metrics" => {
                let format = match opt_str(v, "format")? {
                    None | Some("json") => MetricsFormat::Json,
                    Some("prometheus") => MetricsFormat::Prometheus,
                    Some(other) => {
                        return Err(ServiceError::new(
                            ErrorCode::BadRequest,
                            format!("unknown format `{other}` (expected json|prometheus)"),
                        ))
                    }
                };
                Ok(Request::Metrics { format })
            }
            "shutdown" => Ok(Request::Shutdown),
            "hello" => Ok(Request::Hello { proto: opt_u64(v, "proto")?.unwrap_or(PROTO_VERSION) }),
            other => Err(ServiceError::new(
                ErrorCode::BadRequest,
                format!(
                    "unknown request type `{other}` \
                     (expected hello|compile|run|sweep|attack|batch|stats|health|metrics|shutdown)"
                ),
            )),
        }
    }
}

/// One request line with its envelope members peeled off: the optional
/// client-chosen `id` (echoed back verbatim as the first member of the
/// response) and the optional `deadline_ms` budget.
///
/// `req` is itself a `Result` so that a semantically invalid body still
/// yields the envelope — the error response must echo the `id` the
/// client sent, and a bad `deadline_ms` must not hide a known id.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The client's request id, already encoded as a JSON scalar
    /// (`"abc"` or `42`), ready for splicing into the response line.
    pub id: Option<String>,
    /// Wall-clock budget for the whole request, milliseconds.
    pub deadline_ms: Option<u64>,
    /// The request body, or the structured error to answer with.
    pub req: Result<Request, ServiceError>,
}

impl Envelope {
    /// Parse one request line, separating envelope members from the
    /// request body.
    ///
    /// # Errors
    ///
    /// Only for failures that leave no trustworthy envelope: malformed
    /// JSON ([`ErrorCode::Parse`]) or an invalid `id` member. Every
    /// later problem (bad `deadline_ms`, bad body) is reported through
    /// `req` so the caller can still echo the id.
    pub fn parse(line: &str) -> Result<Envelope, ServiceError> {
        let v = json::parse(line)
            .map_err(|e| ServiceError::new(ErrorCode::Parse, format!("invalid JSON: {e}")))?;
        if !matches!(v, Json::Obj(_)) {
            return Err(ServiceError::new(ErrorCode::Parse, "request must be a JSON object"));
        }
        let id = parse_id(v.get("id"))?;
        let deadline_ms = match parse_deadline(&v) {
            Ok(d) => d,
            Err(e) => return Ok(Envelope { id, deadline_ms: None, req: Err(e) }),
        };
        let req = Request::from_json(&v);
        Ok(Envelope { id, deadline_ms, req })
    }
}

/// Re-encode the optional `id` member (string or non-negative integer),
/// the one id rule of both front doors.
pub(crate) fn parse_id(id: Option<&Json>) -> Result<Option<String>, ServiceError> {
    match id {
        None | Some(Json::Null) => Ok(None),
        Some(id @ (Json::Str(_) | Json::U64(_))) => {
            let encoded = id.encode();
            if encoded.len() > MAX_ID_BYTES {
                return Err(ServiceError::new(
                    ErrorCode::BadRequest,
                    format!("`id` exceeds {MAX_ID_BYTES} encoded bytes"),
                ));
            }
            Ok(Some(encoded))
        }
        Some(_) => Err(ServiceError::new(
            ErrorCode::BadRequest,
            "member `id` must be a string or a non-negative integer",
        )),
    }
}

pub(crate) fn parse_deadline(v: &Json) -> Result<Option<u64>, ServiceError> {
    match opt_u64(v, "deadline_ms")? {
        None => Ok(None),
        Some(ms) if (1..=MAX_DEADLINE_MS).contains(&ms) => Ok(Some(ms)),
        Some(ms) => Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("deadline_ms {ms} outside 1..={MAX_DEADLINE_MS}"),
        )),
    }
}

/// Splice an encoded envelope id into a finished response line:
/// `{"ok":...}` becomes `{"id":<id>,"ok":...}`. Cached response bodies
/// stay id-free (byte-identical across clients); the id is attached at
/// write time per request.
#[must_use]
pub fn with_id(body: &str, id: Option<&str>) -> String {
    match id {
        None => body.to_string(),
        Some(id) => {
            debug_assert!(body.starts_with('{'), "response lines are JSON objects");
            let rest = body.strip_prefix('{').unwrap_or(body);
            format!("{{\"id\":{id},{rest}")
        }
    }
}

fn require_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ServiceError> {
    v.get(key).and_then(Json::as_str).ok_or_else(|| {
        ServiceError::new(ErrorCode::BadRequest, format!("missing string member `{key}`"))
    })
}

fn opt_str<'a>(v: &'a Json, key: &str) -> Result<Option<&'a str>, ServiceError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(m) => m.as_str().map(Some).ok_or_else(|| {
            ServiceError::new(ErrorCode::BadRequest, format!("member `{key}` must be a string"))
        }),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ServiceError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(m) => m.as_u64().map(Some).ok_or_else(|| {
            ServiceError::new(
                ErrorCode::BadRequest,
                format!("member `{key}` must be a non-negative integer"),
            )
        }),
    }
}

fn take_source(v: &Json) -> Result<String, ServiceError> {
    let src = require_str(v, "source")?;
    if src.len() > MAX_SOURCE_BYTES {
        return Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("source exceeds {MAX_SOURCE_BYTES} bytes"),
        ));
    }
    Ok(src.to_string())
}

fn opt_backend(v: &Json) -> Result<Option<BackendSel>, ServiceError> {
    match opt_str(v, "backend")? {
        None => Ok(None),
        Some(s) => BackendSel::parse(s).map(Some).ok_or_else(|| {
            ServiceError::new(
                ErrorCode::BadRequest,
                format!("unknown backend `{s}` (expected baseline|sempe|cte)"),
            )
        }),
    }
}

fn opt_exec_mode(v: &Json) -> Result<ExecMode, ServiceError> {
    match opt_str(v, "mode")? {
        None | Some("detailed") => Ok(ExecMode::Detailed),
        Some("tiered") => Ok(ExecMode::Tiered),
        Some(other) => Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("unknown mode `{other}` (expected detailed|tiered)"),
        )),
    }
}

fn opt_fuel(v: &Json) -> Result<u64, ServiceError> {
    let fuel = opt_u64(v, "max_cycles")?.unwrap_or(DEFAULT_MAX_CYCLES);
    if fuel == 0 || fuel > MAX_MAX_CYCLES {
        return Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("max_cycles must be in 1..={MAX_MAX_CYCLES}"),
        ));
    }
    Ok(fuel)
}

/// Parse `inputs`: an array of objects, each mapping variable names to
/// u64 values. Member order is preserved — assignments apply in request
/// order, and the batch cache key digests them in that order.
fn parse_inputs(v: &Json) -> Result<Vec<Vec<(String, u64)>>, ServiceError> {
    let bad = |what: &str| ServiceError::new(ErrorCode::BadRequest, what.to_string());
    let items =
        v.as_array().ok_or_else(|| bad("`inputs` must be an array of {\"var\": value} objects"))?;
    if items.is_empty() || items.len() > MAX_BATCH_ITEMS {
        return Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("need 1..={MAX_BATCH_ITEMS} batch inputs"),
        ));
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let Json::Obj(members) = item else {
            return Err(bad("each batch input must be a {\"var\": value} object"));
        };
        let mut assigns = Vec::with_capacity(members.len());
        for (name, value) in members {
            let v = value
                .as_u64()
                .ok_or_else(|| bad("batch input values must be non-negative integers"))?;
            assigns.push((name.clone(), v));
        }
        out.push(assigns);
    }
    Ok(out)
}

fn parse_candidates(v: &Json) -> Result<Vec<u64>, ServiceError> {
    let items = v.as_array().ok_or_else(|| {
        ServiceError::new(ErrorCode::BadRequest, "`candidates` must be an array of integers")
    })?;
    let mut out: Vec<u64> = Vec::with_capacity(items.len());
    for item in items {
        let c = item.as_u64().ok_or_else(|| {
            ServiceError::new(ErrorCode::BadRequest, "`candidates` must be an array of integers")
        })?;
        if !out.contains(&c) {
            out.push(c);
        }
    }
    if out.len() < 2 || out.len() > MAX_CANDIDATES {
        return Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("need 2..={MAX_CANDIDATES} distinct candidates"),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_request_type() {
        let r = Request::parse(r#"{"type":"compile","source":"output x;","backend":"cte"}"#);
        assert!(matches!(r, Ok(Request::Compile { backend: BackendSel::Cte, .. })));
        let r = Request::parse(r#"{"type":"run","source":"s","max_cycles":1000}"#).unwrap();
        assert!(matches!(r, Request::Run { backend: BackendSel::Sempe, max_cycles: 1000, .. }));
        let r = Request::parse(r#"{"type":"sweep","source":"s"}"#).unwrap();
        assert!(matches!(r, Request::Sweep { max_cycles: DEFAULT_MAX_CYCLES, .. }));
        let r = Request::parse(
            r#"{"type":"attack","source":"s","mode":"sempe","secret":"k","candidates":[3,5,3]}"#,
        )
        .unwrap();
        match r {
            Request::Attack { mode, secret, candidates, .. } => {
                assert_eq!(mode, SecurityMode::Sempe);
                assert_eq!(secret.as_deref(), Some("k"));
                assert_eq!(candidates, vec![3, 5], "duplicates collapse");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(Request::parse(r#"{"type":"stats"}"#), Ok(Request::Stats));
        assert_eq!(Request::parse(r#"{"type":"health"}"#), Ok(Request::Health));
        assert_eq!(Request::parse(r#"{"type":"shutdown"}"#), Ok(Request::Shutdown));
    }

    #[test]
    fn parses_execution_mode() {
        let r = Request::parse(r#"{"type":"run","source":"s","mode":"tiered"}"#).unwrap();
        assert!(matches!(r, Request::Run { mode: ExecMode::Tiered, .. }));
        let r = Request::parse(r#"{"type":"run","source":"s","mode":"detailed"}"#).unwrap();
        assert!(matches!(r, Request::Run { mode: ExecMode::Detailed, .. }));
        let r = Request::parse(r#"{"type":"run","source":"s"}"#).unwrap();
        assert!(matches!(r, Request::Run { mode: ExecMode::Detailed, .. }), "detailed by default");
        let r = Request::parse(r#"{"type":"batch","source":"s","inputs":[{}],"mode":"tiered"}"#)
            .unwrap();
        assert!(matches!(r, Request::Batch { mode: ExecMode::Tiered, .. }));
        assert_eq!(
            Request::parse(r#"{"type":"run","source":"s","mode":"warp"}"#).unwrap_err().code,
            ErrorCode::BadRequest
        );
        // The stepping is a digest component: tiered and detailed
        // machines must never alias in caches keyed by it.
        for sel in BackendSel::ALL {
            assert_ne!(
                ExecMode::Tiered.sim_config(sel).digest(),
                ExecMode::Detailed.sim_config(sel).digest()
            );
        }
    }

    #[test]
    fn parses_hello_requests() {
        assert_eq!(
            Request::parse(r#"{"type":"hello","proto":2}"#),
            Ok(Request::Hello { proto: 2 })
        );
        // `proto` defaults to the current generation; validation of the
        // value is the server's job (it must echo a structured error).
        assert_eq!(
            Request::parse(r#"{"type":"hello"}"#),
            Ok(Request::Hello { proto: PROTO_VERSION })
        );
        let h = Request::Hello { proto: 2 };
        assert!(!h.is_compute(), "hello is served inline, never queued");
        assert_eq!(h.op_name(), "hello");
    }

    #[test]
    fn parses_metrics_requests() {
        assert_eq!(
            Request::parse(r#"{"type":"metrics"}"#),
            Ok(Request::Metrics { format: MetricsFormat::Json })
        );
        assert_eq!(
            Request::parse(r#"{"type":"metrics","format":"json"}"#),
            Ok(Request::Metrics { format: MetricsFormat::Json })
        );
        assert_eq!(
            Request::parse(r#"{"type":"metrics","format":"prometheus"}"#),
            Ok(Request::Metrics { format: MetricsFormat::Prometheus })
        );
        assert_eq!(
            Request::parse(r#"{"type":"metrics","format":"xml"}"#).unwrap_err().code,
            ErrorCode::BadRequest
        );
        let m = Request::Metrics { format: MetricsFormat::Json };
        assert!(!m.is_compute(), "metrics is served inline, never queued");
        assert_eq!(m.op_name(), "metrics");
    }

    #[test]
    fn envelope_peels_id_and_deadline() {
        let e = Envelope::parse(r#"{"type":"stats","id":"req-1","deadline_ms":250}"#).unwrap();
        assert_eq!(e.id.as_deref(), Some("\"req-1\""));
        assert_eq!(e.deadline_ms, Some(250));
        assert_eq!(e.req, Ok(Request::Stats));

        let e = Envelope::parse(r#"{"type":"stats","id":42}"#).unwrap();
        assert_eq!(e.id.as_deref(), Some("42"), "integer ids re-encode as digits");

        let e = Envelope::parse(r#"{"type":"stats"}"#).unwrap();
        assert_eq!(e.id, None);
        assert_eq!(e.deadline_ms, None);
    }

    #[test]
    fn envelope_reports_body_errors_with_the_id_intact() {
        // Unknown op with deadline_ms set: the satellite case — must be
        // a structured error that still knows the envelope.
        let e = Envelope::parse(r#"{"type":"warp","id":"x","deadline_ms":5}"#).unwrap();
        assert_eq!(e.id.as_deref(), Some("\"x\""));
        assert_eq!(e.req.unwrap_err().code, ErrorCode::BadRequest);

        // Bad deadline: id survives, error lands in the body slot.
        let e = Envelope::parse(r#"{"type":"stats","id":"y","deadline_ms":0}"#).unwrap();
        assert_eq!(e.id.as_deref(), Some("\"y\""));
        assert_eq!(e.req.unwrap_err().code, ErrorCode::BadRequest);
        let e = Envelope::parse(r#"{"type":"stats","deadline_ms":999999999}"#).unwrap();
        assert_eq!(e.req.unwrap_err().code, ErrorCode::BadRequest);

        // Unusable envelopes are hard errors.
        assert_eq!(Envelope::parse("junk").unwrap_err().code, ErrorCode::Parse);
        assert_eq!(
            Envelope::parse(r#"{"type":"stats","id":[1]}"#).unwrap_err().code,
            ErrorCode::BadRequest
        );
        let long = format!(r#"{{"type":"stats","id":"{}"}}"#, "a".repeat(MAX_ID_BYTES + 1));
        assert_eq!(Envelope::parse(&long).unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn with_id_splices_the_first_member() {
        assert_eq!(with_id(r#"{"ok":true}"#, None), r#"{"ok":true}"#);
        assert_eq!(with_id(r#"{"ok":true}"#, Some("\"r1\"")), r#"{"id":"r1","ok":true}"#);
        assert_eq!(with_id(r#"{"ok":true}"#, Some("7")), r#"{"id":7,"ok":true}"#);
    }

    #[test]
    fn deadline_errors_carry_partial_progress() {
        let e = ServiceError::new(ErrorCode::Deadline, "deadline expired")
            .with_partial(Json::obj().with("cycles", 123_u64).with("committed", 45_u64));
        assert_eq!(
            e.to_json(),
            r#"{"ok":false,"code":"E_DEADLINE","error":"deadline expired","partial":{"cycles":123,"committed":45}}"#
        );
    }

    #[test]
    fn parses_batch_requests() {
        let r = Request::parse(
            r#"{"type":"batch","source":"s","backend":"baseline",
                "inputs":[{"k":1,"x":7},{"k":2}],"leak_check":true,"max_cycles":5000}"#,
        )
        .unwrap();
        match r {
            Request::Batch { backend, inputs, leak_check, max_cycles, .. } => {
                assert_eq!(backend, BackendSel::Baseline);
                assert_eq!(
                    inputs,
                    vec![
                        vec![("k".to_string(), 1), ("x".to_string(), 7)],
                        vec![("k".to_string(), 2)]
                    ]
                );
                assert!(leak_check);
                assert_eq!(max_cycles, 5000);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Defaults: sempe backend, leak_check off.
        let r = Request::parse(r#"{"type":"batch","source":"s","inputs":[{}]}"#).unwrap();
        assert!(matches!(r, Request::Batch { backend: BackendSel::Sempe, leak_check: false, .. }));
    }

    #[test]
    fn rejects_malformed_batch_requests() {
        let code = |line: &str| Request::parse(line).unwrap_err().code;
        assert_eq!(code(r#"{"type":"batch","source":"s"}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"type":"batch","source":"s","inputs":[]}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"type":"batch","source":"s","inputs":[3]}"#), ErrorCode::BadRequest);
        assert_eq!(
            code(r#"{"type":"batch","source":"s","inputs":[{"k":-1}]}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"type":"batch","source":"s","inputs":[{"k":1}],"leak_check":true}"#),
            ErrorCode::BadRequest,
            "leak_check needs an even item count"
        );
        let too_many = format!(
            r#"{{"type":"batch","source":"s","inputs":[{}]}}"#,
            vec!["{}"; MAX_BATCH_ITEMS + 1].join(",")
        );
        assert_eq!(code(&too_many), ErrorCode::BadRequest);
    }

    #[test]
    fn rejects_malformed_requests() {
        let code = |line: &str| Request::parse(line).unwrap_err().code;
        assert_eq!(code("not json"), ErrorCode::Parse);
        assert_eq!(code("[1,2]"), ErrorCode::Parse);
        assert_eq!(code(r#"{"type":"warp"}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"type":"run"}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"type":"run","source":"s","backend":"gpu"}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"type":"run","source":"s","max_cycles":0}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"type":"run","source":"s","max_cycles":01}"#), ErrorCode::Parse);
        assert_eq!(
            code(r#"{"type":"attack","source":"s","candidates":[1]}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"type":"attack","source":"s","mode":"quantum"}"#),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn huge_integer_parameters_survive_the_wire_exactly() {
        // 2^53 and 2^53+1 collide under f64; the JSON layer must keep
        // them distinct or the candidate list collapses to one entry
        // (and cache keys for distinct requests collide).
        let r = Request::parse(
            r#"{"type":"attack","source":"s","candidates":[9007199254740992,9007199254740993,18446744073709551615]}"#,
        )
        .unwrap();
        match r {
            Request::Attack { candidates, .. } => {
                assert_eq!(
                    candidates,
                    vec![9007199254740992, 9007199254740993, u64::MAX],
                    "adjacent >2^53 candidates must stay distinct"
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let r = Request::parse(r#"{"type":"run","source":"s","max_cycles":1999999999}"#).unwrap();
        assert!(matches!(r, Request::Run { max_cycles: 1_999_999_999, .. }));
    }

    #[test]
    fn error_lines_are_stable() {
        let e = ServiceError::new(ErrorCode::Busy, "queue full (capacity 64)");
        assert_eq!(
            e.to_json(),
            r#"{"ok":false,"code":"E_BUSY","error":"queue full (capacity 64)"}"#
        );
    }

    #[test]
    fn backend_pairs_match_the_paper_methodology() {
        assert_eq!(BackendSel::Sempe.sim_config().mode, SecurityMode::Sempe);
        assert_eq!(BackendSel::Baseline.sim_config().mode, SecurityMode::Baseline);
        assert_eq!(BackendSel::Cte.sim_config().mode, SecurityMode::Baseline);
        for b in BackendSel::ALL {
            assert_eq!(BackendSel::parse(b.name()), Some(b));
        }
    }
}
