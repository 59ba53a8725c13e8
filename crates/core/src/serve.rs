//! Request/response types for the batched serving front door.
//!
//! The serving API is built around two types: a [`ServeRequest`] carries a
//! prompt plus its session, priority and per-request policy overrides into
//! `GuillotineDeployment::serve_batch`, and a [`ServeResponse`] carries back
//! a typed [`ServeOutcomeKind`], the delivered text, the verdict every
//! detector stage produced for the request, a simulated
//! [`LatencyBreakdown`], and the isolation level the deployment was at when
//! the request completed.

use guillotine_detect::Verdict;
use guillotine_physical::IsolationLevel;
use guillotine_types::encode::Escaped;
use guillotine_types::{SessionId, SimDuration, TicketId};
use std::fmt::{self, Write};
use std::sync::Arc;

/// Scheduling priority of one request within a batch.
///
/// `serve_batch` processes higher priorities first (ties broken by
/// submission order) while still returning responses in submission order —
/// so when a batch-level escalation short-circuits serving, it is the
/// lowest-priority tail that goes unserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ServePriority {
    /// Bulk/offline traffic; served last.
    Batch,
    /// Ordinary interactive traffic.
    #[default]
    Normal,
    /// Latency-sensitive traffic; served first.
    Interactive,
}

impl ServePriority {
    /// The admission-tier priority class of this priority (higher classes
    /// are batched and retained first; the shed policy drops lowest-class
    /// requests first).
    pub fn class(self) -> u8 {
        match self {
            ServePriority::Batch => 0,
            ServePriority::Normal => 1,
            ServePriority::Interactive => 2,
        }
    }

    /// The inverse of [`ServePriority::class`], for decoding journaled
    /// requests. Unknown classes clamp to `Interactive` (recovered work is
    /// never down-prioritized by a decode gap).
    pub fn from_class(class: u8) -> Self {
        match class {
            0 => ServePriority::Batch,
            1 => ServePriority::Normal,
            _ => ServePriority::Interactive,
        }
    }
}

/// Per-request policy overrides layered over the deployment's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestPolicy {
    /// When true, a response the output stage would sanitize is refused
    /// outright instead — for sessions where redacted text is worse than no
    /// text (e.g. downstream tools parsing the output).
    pub refuse_sanitized: bool,
    /// Hard cap on delivered response bytes; longer responses are truncated
    /// at a character boundary. A response truncated to nothing is refused
    /// rather than delivered empty.
    pub max_response_bytes: Option<usize>,
}

/// One prompt entering the screened, batched front door.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// The prompt text.
    pub prompt: String,
    /// The requester's session, for audit correlation.
    pub session: SessionId,
    /// Scheduling priority within the batch.
    pub priority: ServePriority,
    /// Per-request policy overrides.
    pub policy: RequestPolicy,
    /// The admission ticket correlating this request's telemetry spans.
    /// Stamped by the front door at dispatch; deliberately *not* part of
    /// the wire form (recovery re-stamps after replay), so it never
    /// affects equality of round-tripped requests.
    pub ticket: Option<TicketId>,
}

impl ServeRequest {
    /// Creates a normal-priority request in the anonymous session.
    pub fn new(prompt: impl Into<String>) -> Self {
        ServeRequest {
            prompt: prompt.into(),
            session: SessionId::new(0),
            priority: ServePriority::Normal,
            policy: RequestPolicy::default(),
            ticket: None,
        }
    }

    /// Sets the session id.
    pub fn with_session(mut self, session: SessionId) -> Self {
        self.session = session;
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: ServePriority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the per-request policy overrides.
    pub fn with_policy(mut self, policy: RequestPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Stamps the admission ticket used to correlate telemetry spans.
    pub fn with_ticket(mut self, ticket: TicketId) -> Self {
        self.ticket = Some(ticket);
        self
    }

    /// The request's stable wire form, carried as the payload of journaled
    /// admission records so recovery can re-enqueue acked work after a
    /// control-plane crash.
    pub fn to_wire(&self) -> String {
        let mut wire = String::with_capacity(self.prompt.len() + 32);
        // Writing to a `String` cannot fail.
        let _ = write!(wire, "{}", self.wire());
        wire
    }

    /// [`ServeRequest::to_wire`] as a `Display`, so a snapshot can write a
    /// queued request's wire form straight into its own buffer.
    pub(crate) fn wire(&self) -> WireForm<'_> {
        WireForm(self)
    }

    /// Decodes [`ServeRequest::to_wire`]. `None` means the payload is
    /// corrupt; recovery treats that like a torn record.
    pub fn from_wire(wire: &str) -> Option<Self> {
        use guillotine_types::encode::{split_fields, unescape_field};
        let fields = split_fields(wire);
        if fields.len() != 5 {
            return None;
        }
        let cap = if fields[3] == "-" {
            None
        } else {
            Some(fields[3].parse().ok()?)
        };
        Some(ServeRequest {
            prompt: unescape_field(fields[4]),
            session: SessionId::new(fields[0].parse().ok()?),
            priority: ServePriority::from_class(fields[1].parse().ok()?),
            policy: RequestPolicy {
                refuse_sanitized: fields[2].parse::<u8>().ok()? != 0,
                max_response_bytes: cap,
            },
            ticket: None,
        })
    }
}

/// A borrowed [`ServeRequest`] whose `Display` is its wire form.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireForm<'a>(&'a ServeRequest);

impl fmt::Display for WireForm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let request = self.0;
        write!(
            f,
            "{}|{}|{}|",
            request.session.raw(),
            request.priority.class(),
            u8::from(request.policy.refuse_sanitized),
        )?;
        match request.policy.max_response_bytes {
            Some(bytes) => write!(f, "{bytes}|")?,
            None => f.write_str("-|")?,
        }
        Escaped(f).write_str(&request.prompt)
    }
}

impl From<&str> for ServeRequest {
    fn from(prompt: &str) -> Self {
        ServeRequest::new(prompt)
    }
}

impl From<String> for ServeRequest {
    fn from(prompt: String) -> Self {
        ServeRequest::new(prompt)
    }
}

/// How one request left the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeOutcomeKind {
    /// The model's answer was delivered unmodified.
    Delivered,
    /// A detector rewrote the answer; the sanitized text was delivered.
    Sanitized,
    /// The request (or its answer) was blocked by a detector, by policy, or
    /// by the isolation level; nothing usable was delivered.
    Refused,
    /// The request was never fully served because a batch-level escalation
    /// fired first (another request's verdict, or a system-level anomaly,
    /// drove the deployment to a stricter isolation level).
    Escalated,
}

/// The pipeline stage a [`StageVerdict`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeStage {
    /// The once-per-batch system-counter pass of the anomaly detector.
    SystemAnomaly,
    /// Prompt screening before the forward pass.
    InputShield,
    /// Response screening after the forward pass.
    OutputSanitizer,
}

/// One detector verdict, tagged with the stage that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct StageVerdict {
    /// Where in the pipeline the verdict was produced.
    pub stage: ServeStage,
    /// The aggregated verdict of the detector stack at that stage. Behind
    /// an `Arc` because a batch has one `SystemAnomaly` verdict and every
    /// response of the batch carries it: shared, not copied per request.
    pub verdict: Arc<Verdict>,
}

/// Simulated time spent in each stage of the pipeline for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Batch admission and queueing.
    pub queue: SimDuration,
    /// Input shielding.
    pub input_screen: SimDuration,
    /// The forward pass: the per-request share of the batch launch, plus
    /// this request's own prefill (proportional to its *uncached* prompt
    /// tokens) and decode time.
    pub inference: SimDuration,
    /// Output screening and delivery.
    pub output_screen: SimDuration,
    /// Prefill latency this request did **not** pay because its prompt
    /// prefix was served from the KV tier. Counterfactual savings, so it is
    /// deliberately excluded from [`LatencyBreakdown::total`] — `inference`
    /// already reflects only the work actually done. Zero when the
    /// deployment has no KV tier.
    pub kv_saved: SimDuration,
    /// Time from entering `serve_batch` until this request's first decoded
    /// chunk left the streaming pipeline — the TTFT the admission tier
    /// schedules against. Zero when no token was ever emitted (refused at
    /// input, or severed before decode began). A component view of the
    /// pipeline, not an additional stage, so it is excluded from
    /// [`LatencyBreakdown::total`].
    pub time_to_first_token: SimDuration,
}

impl LatencyBreakdown {
    /// Total simulated latency across all stages (excludes the
    /// counterfactual `kv_saved`).
    pub fn total(&self) -> SimDuration {
        self.queue
            .saturating_add(self.input_screen)
            .saturating_add(self.inference)
            .saturating_add(self.output_screen)
    }
}

/// The structured result of serving one [`ServeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The session the request belonged to.
    pub session: SessionId,
    /// How the request left the front door.
    pub outcome: ServeOutcomeKind,
    /// The text actually delivered (empty for refused/escalated requests).
    pub response: String,
    /// Every detector-stage verdict recorded for this request, in pipeline
    /// order. The `SystemAnomaly` entry is shared by the whole batch.
    pub verdicts: Vec<StageVerdict>,
    /// Simulated per-stage latency.
    pub latency: LatencyBreakdown,
    /// True when the KV tier served at least one cached block of this
    /// request's prompt prefix (always false without a tier, and for
    /// requests that never reached the forward pass).
    pub kv_hit: bool,
    /// The deployment's isolation level when this request completed.
    pub isolation: IsolationLevel,
}

impl ServeResponse {
    /// True when usable text reached the requester (delivered or sanitized).
    pub fn delivered(&self) -> bool {
        matches!(
            self.outcome,
            ServeOutcomeKind::Delivered | ServeOutcomeKind::Sanitized
        )
    }

    /// True when a detector flagged *this request's* content — its prompt or
    /// its response. The batch-shared `SystemAnomaly` verdict is deliberately
    /// excluded (it describes the observation window, not this request); use
    /// [`ServeResponse::system_flagged`] for that signal.
    pub fn flagged(&self) -> bool {
        self.verdicts
            .iter()
            .any(|v| v.stage != ServeStage::SystemAnomaly && v.verdict.flagged)
    }

    /// True when the batch-wide system-anomaly pass flagged the observation
    /// window this request was served in.
    pub fn system_flagged(&self) -> bool {
        self.stage_verdict(ServeStage::SystemAnomaly)
            .is_some_and(|v| v.flagged)
    }

    /// The verdict recorded for `stage`, if that stage ran for this request.
    pub fn stage_verdict(&self, stage: ServeStage) -> Option<&Verdict> {
        self.verdicts
            .iter()
            .find(|v| v.stage == stage)
            .map(|v| &*v.verdict)
    }
}

/// The largest character boundary of `text` at or below `max` bytes: where
/// a `max`-byte cap cuts it.
pub(crate) fn char_boundary_at_or_below(text: &str, max: usize) -> usize {
    if text.len() <= max {
        return text.len();
    }
    let mut cut = max;
    while cut > 0 && !text.is_char_boundary(cut) {
        cut -= 1;
    }
    cut
}

/// Truncates `text` to at most `max` bytes on a character boundary.
pub(crate) fn truncate_on_char_boundary(text: &mut String, max: usize) {
    text.truncate(char_boundary_at_or_below(text, max));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_compose() {
        let r = ServeRequest::new("hello")
            .with_session(SessionId::new(9))
            .with_priority(ServePriority::Interactive)
            .with_policy(RequestPolicy {
                refuse_sanitized: true,
                max_response_bytes: Some(16),
            });
        assert_eq!(r.prompt, "hello");
        assert_eq!(r.session, SessionId::new(9));
        assert_eq!(r.priority, ServePriority::Interactive);
        assert!(r.policy.refuse_sanitized);
        assert_eq!(ServeRequest::from("x").priority, ServePriority::Normal);
    }

    #[test]
    fn priorities_order_interactive_first() {
        assert!(ServePriority::Interactive > ServePriority::Normal);
        assert!(ServePriority::Normal > ServePriority::Batch);
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let request = ServeRequest::new("prompt with | pipe\nand newline")
            .with_session(SessionId::new(7))
            .with_priority(ServePriority::Batch)
            .with_policy(RequestPolicy {
                refuse_sanitized: true,
                max_response_bytes: Some(64),
            });
        assert_eq!(ServeRequest::from_wire(&request.to_wire()), Some(request));
        let plain = ServeRequest::new("");
        assert_eq!(ServeRequest::from_wire(&plain.to_wire()), Some(plain));
        assert_eq!(ServeRequest::from_wire("1|2"), None);
        assert_eq!(ServeRequest::from_wire("x|1|0|-|p"), None);
        for class in 0..=3u8 {
            assert_eq!(ServePriority::from_class(class).class(), class.min(2));
        }
    }

    #[test]
    fn latency_breakdown_totals() {
        let l = LatencyBreakdown {
            queue: SimDuration::from_micros(10),
            input_screen: SimDuration::from_micros(20),
            inference: SimDuration::from_micros(30),
            output_screen: SimDuration::from_micros(40),
            kv_saved: SimDuration::from_micros(999),
            time_to_first_token: SimDuration::from_micros(35),
        };
        // kv_saved is counterfactual and time_to_first_token is a component
        // view of the same pipeline; neither counts toward the total.
        assert_eq!(l.total(), SimDuration::from_micros(100));
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        let mut s = String::from("héllo");
        truncate_on_char_boundary(&mut s, 2);
        assert_eq!(s, "h");
        let mut t = String::from("abc");
        truncate_on_char_boundary(&mut t, 8);
        assert_eq!(t, "abc");
    }
}
