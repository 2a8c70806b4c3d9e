//! The node-host interface: how a daemon starts and steers the actual MPI
//! processes on its node.
//!
//! The daemon crate stays application-agnostic; the `starfish` crate
//! implements [`NodeHost`] with the real application-process runtime. The
//! two queues between a daemon and a process are the paper's local TCP
//! connection between the daemon's lightweight endpoint module and the
//! process's group handler module (§2.3). Neither end has a thread on its
//! queue: each sender queues, then kicks the receiver's one wait point.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use starfish_util::{AppId, Epoch, NodeId, Rank, VirtualTime};
use starfish_vni::KickSender;

use crate::config::AppEntry;
use crate::msg::{ProcDown, ProcUp};

/// Everything a node host needs to start (or restart) one application
/// process.
pub struct ProcSpec {
    pub app: AppId,
    pub rank: Rank,
    pub node: NodeId,
    pub epoch: Epoch,
    pub entry: AppEntry,
    /// Restore from this checkpoint index (0 ⇒ fresh start from the initial
    /// state).
    pub restore_from: u64,
    /// Process → daemon messages, tagged with the process identity.
    pub up_tx: Arc<KickSender<(AppId, Rank, ProcUp)>>,
    /// Virtual time at which the spawn happens (inherited by the process).
    pub spawn_vt: VirtualTime,
}

/// The daemon's end of the daemon → process queue (lightweight membership,
/// configuration, relayed coordination / C-R), made by the host around the
/// process it started. Dropping it wakes the process to the disconnect.
pub struct DownLink {
    tx: KickSender<ProcDown>,
    abort: Arc<AtomicBool>,
}

impl DownLink {
    /// `tx` queues, then kicks the rank's wait point; `abort` is the rank's
    /// sticky flag, which fails the blocking MPI waits that cannot be
    /// re-posted (a rendezvous send awaiting its CTS).
    pub fn new(tx: KickSender<ProcDown>, abort: Arc<AtomicBool>) -> Self {
        DownLink { tx, abort }
    }

    /// Flag first (`Rollback` / `Kill`), so that whoever can receive the
    /// message also sees the flag; then queue; then kick.
    pub fn send(&self, msg: ProcDown) {
        if matches!(msg, ProcDown::Rollback { .. } | ProcDown::Kill { .. }) {
            self.abort.store(true, Ordering::Relaxed);
        }
        let _ = self.tx.send(msg);
    }
}

/// Implemented by the `starfish` crate: the runtime half of each node.
pub trait NodeHost: Send + 'static {
    /// Placement or epoch of an application changed (submit or restart):
    /// update the MPI rank directory. Called by every daemon; must be
    /// idempotent.
    fn placement_update(&self, entry: &AppEntry);

    /// Start an application process on this node (fresh or restored,
    /// depending on `spec.restore_from`) and hand back the link to it —
    /// `None` if nothing was started.
    fn spawn(&self, spec: ProcSpec) -> Option<DownLink>;

    /// A rank was lost with no replacement (NotifyView policy): unplace it.
    fn rank_lost(&self, app: AppId, rank: Rank);
}

/// A no-op host for daemon-level tests.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct NullHost;

#[cfg(test)]
impl NodeHost for NullHost {
    fn placement_update(&self, _entry: &AppEntry) {}
    fn spawn(&self, _spec: ProcSpec) -> Option<DownLink> {
        None
    }
    fn rank_lost(&self, _app: AppId, _rank: Rank) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{self, Receiver, TryRecvError};
    use starfish_util::Error;
    use starfish_vni::{Addr, Fabric, Ideal, LayerCosts, Port, PortId};
    use std::time::Duration;

    /// A link to a "rank" whose wait point is a bare port.
    fn rig() -> (DownLink, Receiver<ProcDown>, Arc<AtomicBool>, Port) {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        f.add_node(NodeId(0));
        let port = f.bind(Addr::new(NodeId(0), PortId(7))).unwrap();
        let (tx, rx) = channel::unbounded();
        let abort = Arc::new(AtomicBool::new(false));
        let link = DownLink::new(KickSender::new(tx, port.kicker()), abort.clone());
        (link, rx, abort, port)
    }

    fn rollback() -> ProcDown {
        ProcDown::Rollback {
            index: 0,
            epoch: Epoch(1),
            vt: VirtualTime::ZERO,
        }
    }

    /// A rank that can receive the `Rollback` can already see the abort
    /// flag: a receiver spinning on the queue never finds the message first.
    #[test]
    fn the_abort_flag_is_up_before_the_rollback_is_receivable() {
        const ROUNDS: usize = 2_000;
        let (link, rx, abort, _port) = rig();
        let served = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let rank = {
            let served = served.clone();
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    while rx.try_recv().is_err() {
                        std::hint::spin_loop();
                    }
                    assert!(abort.swap(false, Ordering::Relaxed), "message before flag");
                    served.fetch_add(1, Ordering::Release);
                }
            })
        };
        for round in 1..=ROUNDS {
            link.send(rollback());
            while served.load(Ordering::Acquire) < round && !rank.is_finished() {
                std::hint::spin_loop();
            }
        }
        rank.join().unwrap();
    }

    /// The kick follows the message, anything but `Rollback` / `Kill`
    /// leaves the flag alone, and a dropped link is a kick too: a parked
    /// rank wakes and finds the disconnect.
    #[test]
    fn the_kick_follows_the_message_and_a_dropped_link_wakes_the_rank() {
        let (link, rx, abort, port) = rig();
        let parked = |port: &Port| port.recv_batch_timeout(1, Duration::from_secs(30));
        link.send(ProcDown::Resume {
            vt: VirtualTime::ZERO,
        });
        assert!(!abort.load(Ordering::Relaxed));
        assert!(matches!(parked(&port), Err(Error::Interrupted(_))));
        assert!(matches!(rx.try_recv(), Ok(ProcDown::Resume { .. })));
        let rank = std::thread::spawn(move || (parked(&port), rx.try_recv()));
        drop(link);
        let (woken, found) = rank.join().unwrap();
        assert!(matches!(woken, Err(Error::Interrupted(_))), "{woken:?}");
        assert!(matches!(found, Err(TryRecvError::Disconnected)));
    }
}
