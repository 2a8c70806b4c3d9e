//! Protocol models: finite environments wrapped around the *deployed* pure
//! protocol cores.
//!
//! Each model owns real engine values — [`starfish_checkpoint::proto`]
//! engines, [`starfish_mpi::reliability`] flow machines,
//! [`starfish_ensemble::group`] membership machines — and contributes only the
//! environment the runtime normally provides: message channels with the
//! transport's actual ordering guarantees, crash/restart surgery, and local
//! completion callbacks. Every protocol *decision* explored by the checker
//! is taken by the same code the cluster runs.
//!
//! Channel fidelity matters in both directions. The daemon-relayed control
//! path and the VNI data path are FIFO per (sender, receiver) — modeling
//! them as unordered would report "bugs" the transport excludes (e.g. a
//! `Stop{k+1}` overtaking `Resume{k}` from the same coordinator), while
//! modeling them as globally ordered would hide real races (the data-path
//! mark overtaking the control-path stop). The checkpoint and membership
//! models therefore use per-link FIFO queues with *cross-link* interleaving
//! free. The reliability model's wire, by contrast, is an unordered lossy
//! bag — that is exactly the adversary the flow layer exists to tame; the
//! three MPI models share it as [`link::Link`].

pub mod chandy;
pub mod membership;
pub mod reliability;
pub mod rendezvous;
pub mod replica;
pub mod ring;
pub mod stop_sync;

/// Per-link FIFO channel map shared by the checkpoint/membership models.
pub(crate) mod chan {
    use std::collections::BTreeMap;

    /// FIFO queues keyed by `(from, to)`. `BTreeMap` keeps the `Debug`
    /// rendering canonical, which is what keys the explorer's visited set.
    pub type Fifo<K, M> = BTreeMap<(K, K), Vec<M>>;

    /// Push onto the `(from, to)` queue.
    pub fn push<K: Ord + Copy, M>(f: &mut Fifo<K, M>, from: K, to: K, m: M) {
        f.entry((from, to)).or_default().push(m);
    }

    /// Pop the head of the `(from, to)` queue; removes drained queues so
    /// equal channel states render identically.
    pub fn pop<K: Ord + Copy, M>(f: &mut Fifo<K, M>, from: K, to: K) -> Option<M> {
        let q = f.get_mut(&(from, to))?;
        let m = if q.is_empty() {
            None
        } else {
            Some(q.remove(0))
        };
        if q.is_empty() {
            f.remove(&(from, to));
        }
        m
    }

    /// Heads available for delivery, in canonical order.
    pub fn heads<K: Ord + Copy, M>(f: &Fifo<K, M>) -> Vec<(K, K)> {
        f.iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(k, _)| *k)
            .collect()
    }

    pub fn is_empty<K: Ord + Copy, M>(f: &Fifo<K, M>) -> bool {
        f.values().all(Vec::is_empty)
    }
}

/// One directed link of the MPI reliability layer under the
/// `starfish_vni::LinkFault` adversary, shared by the reliability,
/// rendezvous and ring models: the deployed flow pair and the wire between
/// them.
pub(crate) mod link {
    use std::collections::BTreeSet;

    use starfish_mpi::reliability::{FlowRx, FlowTx, RxVerdict};

    /// The wire is an unordered *set* of sequenced frames: the adversary
    /// delivers any element in any order, may lose it, or deliver it without
    /// consuming it (duplication — so one element per sequence suffices).
    /// The control round trips are collapsed into atomic repair actions,
    /// which keeps the space finite without hiding decisions: a NACK, a
    /// [`ping`](Link::ping) and a [`flush`](Link::flush) each put what the
    /// sender's window still holds straight back on the wire.
    #[derive(Clone, Debug)]
    pub struct Link<M> {
        pub tx: FlowTx<M>,
        pub rx: FlowRx<M>,
        pub wire: BTreeSet<(u64, M)>,
    }

    impl<M: Copy + Ord> Link<M> {
        pub fn new(window: usize) -> Self {
            Link {
                tx: FlowTx::new(window),
                rx: FlowRx::new(),
                wire: BTreeSet::new(),
            }
        }

        /// The sender commits `m` to its flow and puts it on the wire.
        pub fn send(&mut self, m: M) {
            let seq = self.tx.peek_seq();
            self.tx.commit(seq, m);
            self.wire.insert((seq, m));
        }

        /// Frame `seq` off the wire — or, if `keep`, a copy of it (a loss
        /// takes it and forgets it).
        pub fn take(&mut self, seq: u64, keep: bool) -> Option<(u64, M)> {
            let frame = self.wire.iter().find(|(q, _)| *q == seq).copied()?;
            if !keep {
                self.wire.remove(&frame);
            }
            Some(frame)
        }

        /// The wire hands frame `seq` (or, if `keep`, a duplicate of it) to
        /// the receiving flow. Returns what the flow delivers, in order,
        /// each with its sequence; a gap is NACKed and the sender
        /// retransmits what was asked for.
        pub fn deliver(&mut self, seq: u64, keep: bool) -> Vec<(u64, M)> {
            let Some((seq, m)) = self.take(seq, keep) else {
                return Vec::new();
            };
            match self.rx.on_data(seq, m) {
                RxVerdict::Duplicate => Vec::new(),
                // Sequences are contiguous from the arrival's.
                RxVerdict::Deliver(ready) => (seq..).zip(ready).collect(),
                RxVerdict::Parked { nack } => {
                    self.resend(&nack);
                    Vec::new()
                }
            }
        }

        /// The receiver's cumulative ack reaches the sender, which prunes
        /// its buffer and retransmits everything unacked.
        pub fn ping(&mut self) {
            let unacked = self.tx.on_ping(self.rx.next_expected());
            self.resend(&unacked);
        }

        /// The sender's tail-loss probe: the receiver NACKs its gaps below
        /// the advertised high-water mark, the sender retransmits them.
        pub fn flush(&mut self) {
            if let Some(highest) = self.tx.highest() {
                let missing = self.rx.missing_upto(highest);
                self.resend(&missing);
            }
        }

        fn resend(&mut self, seqs: &[u64]) {
            let buffered = self.tx.select(seqs);
            let again: Vec<(u64, M)> = buffered.iter().map(|(q, m)| (*q, **m)).collect();
            self.wire.extend(again);
        }
    }
}
