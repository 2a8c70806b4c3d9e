//! Event tracing for tests and the Table 1 message-taxonomy audit.
//!
//! The paper (Table 1) classifies every Starfish message into six types, each
//! flowing only between sanctioned parties:
//!
//! | type | sent between |
//! |---|---|
//! | Control | Starfish daemons |
//! | Coordination | application processes, *through* daemons |
//! | Data | application processes, through MPI + VNI fast path |
//! | Lightweight membership | lightweight endpoint module ↔ application processes |
//! | Configuration | local daemon ↔ application processes |
//! | Checkpoint/restart | C/R modules, through daemons |
//!
//! Every subsystem records the messages it moves into a shared
//! [`TraceSink`]; the `table1_message_audit` harness and the
//! `integration_message_taxonomy` test replay a full application lifecycle and
//! assert that each class was observed, and observed only on its sanctioned
//! path.
//!
//! The sink itself keeps only the path audit: exact per-class totals and the
//! exact set of `(class, from, to, path)` combinations seen. The
//! authoritative per-class counters live in the telemetry registry: attach
//! one with [`TraceSink::attach_metrics`] and every recorded message is
//! forwarded through the [`MsgCounter`] hook, so there is a single
//! accounting channel instead of two drifting ones.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// The six message classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgClass {
    /// Exchanged solely by daemons (cluster configuration & bookkeeping).
    Control,
    /// Application-to-application coordination, relayed by daemons.
    Coordination,
    /// User MPI payload on the fast path (never touches the object bus).
    Data,
    /// Lightweight-group view traffic between a daemon's lightweight endpoint
    /// module and its local application process.
    LwMembership,
    /// Local daemon ↔ application process configuration/synchronization.
    Configuration,
    /// Checkpoint/restart protocol messages between C/R modules, relayed by
    /// daemons.
    CheckpointRestart,
}

impl MsgClass {
    pub const ALL: [MsgClass; 6] = [
        MsgClass::Control,
        MsgClass::Coordination,
        MsgClass::Data,
        MsgClass::LwMembership,
        MsgClass::Configuration,
        MsgClass::CheckpointRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MsgClass::Control => "Control",
            MsgClass::Coordination => "Coordination",
            MsgClass::Data => "Data",
            MsgClass::LwMembership => "Lightweight membership",
            MsgClass::Configuration => "Configuration",
            MsgClass::CheckpointRestart => "Checkpoint/restart",
        }
    }
}

impl fmt::Display for MsgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The kind of actor an endpoint of a traced message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActorKind {
    Daemon,
    AppProcess,
    Client,
}

/// Sink into which per-class message accounting is forwarded.
///
/// Implemented by `starfish-telemetry`'s `Registry`, which maps each class to
/// its Table 1 count/bytes counters; the trait keeps `util` free of an upward
/// dependency.
pub trait MsgCounter: Send + Sync {
    fn on_message(&self, class: MsgClass, bytes: usize);
}

type Path = (MsgClass, ActorKind, ActorKind, &'static str);

#[derive(Default)]
struct Inner {
    /// Keep the path audit (a default sink only forwards to its hook).
    enabled: bool,
    hook: OnceLock<Arc<dyn MsgCounter>>,
    counts: [AtomicU64; 6],
    bytes: [AtomicU64; 6],
    /// Distinct paths seen, in first-seen order. A handful at most, so a
    /// linear scan under a short lock beats hashing.
    paths: Mutex<Vec<Path>>,
}

/// A shared, thread-safe audit of message movements: what moved, how much,
/// and between whom. Cheap to clone; all clones share the audit.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Arc<Inner>,
}

impl TraceSink {
    /// A sink that audits nothing. Per-class accounting still reaches an
    /// attached [`MsgCounter`] hook, lock-free.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// A sink that keeps the exact per-class totals and path set.
    pub fn enabled() -> Self {
        TraceSink {
            inner: Arc::new(Inner {
                enabled: true,
                ..Inner::default()
            }),
        }
    }

    /// Forward all per-class accounting to `hook` (the telemetry registry).
    /// A sink feeds one registry: the first hook attached stays.
    pub fn attach_metrics(&self, hook: Arc<dyn MsgCounter>) {
        let _ = self.inner.hook.set(hook);
    }

    /// Record one message movement.
    pub fn record(
        &self,
        class: MsgClass,
        from: ActorKind,
        to: ActorKind,
        path: &'static str,
        bytes: usize,
    ) {
        let inner = &*self.inner;
        if let Some(hook) = inner.hook.get() {
            hook.on_message(class, bytes);
        }
        if !inner.enabled {
            return;
        }
        inner.counts[class as usize].fetch_add(1, Ordering::Relaxed);
        inner.bytes[class as usize].fetch_add(bytes as u64, Ordering::Relaxed);
        let key = (class, from, to, path);
        let mut paths = inner.paths.lock();
        if !paths.contains(&key) {
            paths.push(key);
        }
    }

    /// Number of messages recorded for `class`.
    pub fn count(&self, class: MsgClass) -> u64 {
        self.inner.counts[class as usize].load(Ordering::Relaxed)
    }

    /// Total bytes recorded for `class`.
    pub fn bytes(&self, class: MsgClass) -> u64 {
        self.inner.bytes[class as usize].load(Ordering::Relaxed)
    }

    /// All `(from, to, path)` combinations observed for `class`.
    pub fn paths_for(&self, class: MsgClass) -> Vec<(ActorKind, ActorKind, &'static str)> {
        self.inner
            .paths
            .lock()
            .iter()
            .filter(|p| p.0 == class)
            .map(|&(_, from, to, path)| (from, to, path))
            .collect()
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.inner.enabled)
            .field("hooked", &self.inner.hook.get().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(s: &TraceSink, bytes: usize) {
        s.record(
            MsgClass::Data,
            ActorKind::AppProcess,
            ActorKind::AppProcess,
            "fast-path",
            bytes,
        );
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let s = TraceSink::disabled();
        data(&s, 10);
        assert_eq!(s.count(MsgClass::Data), 0);
        assert!(s.paths_for(MsgClass::Data).is_empty());
    }

    #[test]
    fn enabled_sink_counts_every_message() {
        let s = TraceSink::enabled();
        for i in 0..5 {
            s.record(
                MsgClass::Control,
                ActorKind::Daemon,
                ActorKind::Daemon,
                "ensemble",
                i,
            );
        }
        assert_eq!(s.count(MsgClass::Control), 5);
        assert_eq!(s.bytes(MsgClass::Control), 10); // 0+1+2+3+4
        assert_eq!(s.count(MsgClass::Data), 0);
    }

    /// The path audit is a set, and an exact one: a rare path is still
    /// there after any amount of other traffic.
    #[test]
    fn paths_are_an_exact_set() {
        let s = TraceSink::enabled();
        s.record(
            MsgClass::Coordination,
            ActorKind::Daemon,
            ActorKind::AppProcess,
            "via-daemon",
            1,
        );
        for _ in 0..10_000 {
            s.record(
                MsgClass::Coordination,
                ActorKind::AppProcess,
                ActorKind::Daemon,
                "via-daemon",
                1,
            );
            data(&s, 1);
        }
        assert_eq!(s.paths_for(MsgClass::Coordination).len(), 2);
        assert_eq!(s.paths_for(MsgClass::Data).len(), 1);
    }

    #[test]
    fn hook_sees_messages_even_when_audit_is_off() {
        #[derive(Default)]
        struct CountHook {
            msgs: AtomicU64,
            bytes: AtomicU64,
        }
        impl MsgCounter for CountHook {
            fn on_message(&self, _class: MsgClass, bytes: usize) {
                self.msgs.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
        }
        let hook = Arc::new(CountHook::default());
        let s = TraceSink::disabled();
        s.attach_metrics(hook.clone());
        data(&s, 7);
        data(&s.clone(), 5);
        assert_eq!(hook.msgs.load(Ordering::Relaxed), 2);
        assert_eq!(hook.bytes.load(Ordering::Relaxed), 12);
        assert_eq!(s.count(MsgClass::Data), 0);
    }

    /// The cluster attaches its registry to whatever sink the builder was
    /// given; a sink handed to a second cluster keeps feeding the first.
    #[test]
    fn first_attached_hook_stays() {
        struct Tally(AtomicU64);
        impl MsgCounter for Tally {
            fn on_message(&self, _class: MsgClass, _bytes: usize) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (first, second) = (
            Arc::new(Tally(AtomicU64::new(0))),
            Arc::new(Tally(AtomicU64::new(0))),
        );
        let s = TraceSink::enabled();
        s.attach_metrics(first.clone());
        s.attach_metrics(second.clone());
        data(&s, 1);
        assert_eq!(first.0.load(Ordering::Relaxed), 1);
        assert_eq!(second.0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn all_classes_have_names() {
        for c in MsgClass::ALL {
            assert!(!c.name().is_empty());
        }
    }
}
