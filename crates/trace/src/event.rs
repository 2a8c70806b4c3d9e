//! Structured flight-recorder events.

use starfish_util::VirtualTime;

use crate::context::TraceCtx;

/// One recorded event. `seq` and `lamport` are both strictly monotone per
/// recorder; `lamport` additionally respects cross-process happens-before
/// (a receive folds the sender's clock in before stamping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-recorder event index, counted across both of its rings and
    /// across evictions (a gap in a dump is history that was dropped).
    pub seq: u64,
    /// Lamport timestamp.
    pub lamport: u64,
    /// Virtual time the event was recorded at.
    pub vt: VirtualTime,
    pub kind: EventKind,
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A message left this process. `ctx` is the context stamped on the
    /// wire (its `span` is the id a matching `Recv` will carry).
    Send {
        peer: u32,
        context: u32,
        tag: u64,
        bytes: u32,
        ctx: TraceCtx,
    },
    /// A message was delivered to this process. `ctx` is what arrived on
    /// the wire ([`TraceCtx::NONE`] if the sender was not tracing).
    Recv {
        peer: u32,
        context: u32,
        tag: u64,
        bytes: u32,
        ctx: TraceCtx,
    },
    /// A named phase opened (collective phase, checkpoint protocol phase).
    /// Paired with a later `PhaseEnd` of the same name on this recorder.
    PhaseBegin { name: String },
    /// The matching close of a `PhaseBegin`. `detail` carries what is only
    /// known at the end (checkpoint index, chosen algorithm, bytes).
    PhaseEnd { name: String, detail: String },
    /// A membership view was installed at this node's ensemble endpoint.
    ViewChange { view: u64, members: u32 },
    /// A point annotation (checkpoint markers, protocol milestones).
    Mark { name: String, detail: String },
    /// A fault was injected (chaos harness, heartbeat chaos).
    Fault { desc: String },
}

impl TraceEvent {
    /// One-line rendering used by the `TRACE DUMP|TAIL` management
    /// commands and the `.trace.json` sidecar summaries.
    pub fn summary(&self) -> String {
        let body = match &self.kind {
            EventKind::Send {
                peer,
                context,
                tag,
                bytes,
                ctx,
            } => format!(
                "send -> r{peer} ctx{context} tag{tag} {bytes}B span={:x}",
                ctx.span
            ),
            EventKind::Recv {
                peer,
                context,
                tag,
                bytes,
                ctx,
            } => {
                if ctx.is_some() {
                    format!(
                        "recv <- r{peer} ctx{context} tag{tag} {bytes}B span={:x}",
                        ctx.span
                    )
                } else {
                    format!("recv <- r{peer} ctx{context} tag{tag} {bytes}B (untraced)")
                }
            }
            EventKind::PhaseBegin { name } => format!("begin {name}"),
            EventKind::PhaseEnd { name, detail } => {
                if detail.is_empty() {
                    format!("end {name}")
                } else {
                    format!("end {name}: {detail}")
                }
            }
            EventKind::ViewChange { view, members } => {
                format!("view v{view} ({members} members)")
            }
            EventKind::Mark { name, detail } => {
                if detail.is_empty() {
                    format!("mark {name}")
                } else {
                    format!("mark {name}: {detail}")
                }
            }
            EventKind::Fault { desc } => format!("fault {desc}"),
        };
        format!(
            "#{} L{} @{}us {}",
            self.seq,
            self.lamport,
            self.vt.as_nanos() / 1_000,
            body
        )
    }
}
