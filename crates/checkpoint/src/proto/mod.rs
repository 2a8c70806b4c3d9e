//! Distributed checkpoint/restart protocols.
//!
//! The paper's architecture keeps C/R protocols pluggable: "The set of C/R
//! messages seems to be rich enough to express all C/R protocols we have
//! encountered" (§2.2), and protocols can run side by side for comparison
//! (§3.2.2). We realize that with *pure protocol engines*: each engine is a
//! deterministic state machine that consumes protocol messages ([`CrMsg`])
//! and local completion callbacks, and emits [`CrEffect`]s. What a rank does
//! with them is one more pure machine, [`rank::RankCr`]; the runtime in the
//! `starfish` crate carries its answers out (sends through the daemons'
//! lightweight groups for control, marks on the VNI data path, image
//! writes), and the `verify` crate drives the same values.
//!
//! Implemented protocols:
//! * [`stop_and_sync`] — the coordinated protocol the paper measures in
//!   Figures 3 and 4 \[14\];
//! * [`chandy_lamport`] — coordinated, non-blocking distributed snapshots
//!   \[10\];
//! * [`independent`] — uncoordinated checkpointing with dependency tracking,
//!   paired with [`crate::recovery`] for recovery-line computation.

pub mod chandy_lamport;
pub(crate) mod independent;
pub mod rank;
pub mod stop_and_sync;

use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::{Error, Rank, Result, VirtualTime};

/// Which distributed C/R protocol an application runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptProto {
    StopAndSync,
    ChandyLamport,
    Independent,
}

/// Checkpoint/restart protocol messages (Table 1's "Checkpoint/restart"
/// class; exchanged by C/R modules through the daemons, opaque to them).
/// `Marker` and `FlushMark` additionally travel the *data* path so they are
/// FIFO-ordered with application messages — that is what makes channel
/// flushing/recording sound. Rollbacks are not a C/R message: the daemon
/// orders them directly (`ProcDown::Rollback`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrMsg {
    /// Coordinator tells everyone to stop and checkpoint (stop-and-sync).
    Stop { index: u64 },
    /// A member finished writing its local image.
    Saved { rank: Rank, index: u64 },
    /// Coordinator: all images are on stable storage, resume computing.
    Resume { index: u64 },
    /// Chandy–Lamport marker (data path).
    Marker { index: u64 },
    /// Stop-and-sync channel-flush mark (data path).
    FlushMark { index: u64 },
}

impl CrMsg {
    /// Stable label for flight-recorder marks and trace tooling: protocol
    /// message kind plus its checkpoint index, e.g. `"marker #3"`.
    pub fn trace_label(&self) -> String {
        match self {
            CrMsg::Stop { index } => format!("stop #{index}"),
            CrMsg::Saved { rank, index } => format!("saved {rank} #{index}"),
            CrMsg::Resume { index } => format!("resume #{index}"),
            CrMsg::Marker { index } => format!("marker #{index}"),
            CrMsg::FlushMark { index } => format!("flush-mark #{index}"),
        }
    }
}

const T_STOP: u8 = 1;
const T_SAVED: u8 = 2;
const T_RESUME: u8 = 3;
const T_MARKER: u8 = 4;
const T_FLUSH: u8 = 5;

impl Encode for CrMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            CrMsg::Stop { index } => {
                enc.put_u8(T_STOP);
                index.encode(enc);
            }
            CrMsg::Saved { rank, index } => {
                enc.put_u8(T_SAVED);
                rank.encode(enc);
                index.encode(enc);
            }
            CrMsg::Resume { index } => {
                enc.put_u8(T_RESUME);
                index.encode(enc);
            }
            CrMsg::Marker { index } => {
                enc.put_u8(T_MARKER);
                index.encode(enc);
            }
            CrMsg::FlushMark { index } => {
                enc.put_u8(T_FLUSH);
                index.encode(enc);
            }
        }
    }
}

impl Decode for CrMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            T_STOP => CrMsg::Stop {
                index: u64::decode(dec)?,
            },
            T_SAVED => CrMsg::Saved {
                rank: Rank::decode(dec)?,
                index: u64::decode(dec)?,
            },
            T_RESUME => CrMsg::Resume {
                index: u64::decode(dec)?,
            },
            T_MARKER => CrMsg::Marker {
                index: u64::decode(dec)?,
            },
            T_FLUSH => CrMsg::FlushMark {
                index: u64::decode(dec)?,
            },
            t => return Err(Error::codec(format!("unknown CrMsg tag {t}"))),
        })
    }
}

/// Instructions from a protocol engine to its hosting runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrEffect {
    /// Send a C/R message to one rank through the daemons.
    Send { to: Rank, msg: CrMsg },
    /// Send a C/R message to every *other* rank through the daemons.
    Broadcast { msg: CrMsg },
    /// Send a mark/marker on the data path (FIFO with app messages).
    DataMark { to: Rank, msg: CrMsg },
    /// Stop the application at the next service point; report in-flight
    /// flush completion via `on_flush_mark` as marks arrive.
    BeginQuiesce { index: u64 },
    /// Snapshot local state (+ captured channel state) and write it to
    /// stable storage; call `on_saved` when done.
    TakeCheckpoint { index: u64 },
    /// Start recording data messages arriving from `from` into the current
    /// image's channel state (Chandy–Lamport).
    RecordChannel { from: Rank },
    /// Stop recording the channel from `from`.
    StopRecord { from: Rank },
    /// Let the application run again.
    Resume { index: u64 },
    /// The distributed checkpoint is fully committed (coordinator only).
    Committed { index: u64 },
}

/// Fitted daemon-side coordination overheads for the distributed phase of a
/// checkpoint (EXPERIMENTS.md documents the fit against Figures 3 and 4).
/// Charged once per distributed checkpoint at the coordinator, on top of the
/// genuine protocol-message latencies.
#[derive(Debug, Clone, Copy)]
pub struct SyncCostModel;

impl SyncCostModel {
    /// Native-level stop-and-sync overhead for `n` participating nodes.
    /// `55.6 ms × (1 − 1/n)`: 0 for n=1, 27.8 ms for n=2 (paper: +27.8 ms),
    /// 41.7 ms for n=4 (paper: +45.2 ms).
    pub fn native_sync(n: usize) -> VirtualTime {
        if n <= 1 {
            return VirtualTime::ZERO;
        }
        VirtualTime::from_nanos((55_600_000.0 * (1.0 - 1.0 / n as f64)) as u64)
    }

    /// VM-level overhead: the coordinator serially validates each member's
    /// portable representation header. `13.9 ms × (n − 1)`: 13.9 ms for n=2
    /// (paper: +12.8 ms), 41.7 ms for n=4 (paper: +44.3 ms).
    pub fn vm_sync(n: usize) -> VirtualTime {
        if n <= 1 {
            return VirtualTime::ZERO;
        }
        VirtualTime::from_nanos(13_900_000 * (n as u64 - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::codec::roundtrip;

    #[test]
    fn crmsg_codec_roundtrip() {
        let msgs = vec![
            CrMsg::Stop { index: 3 },
            CrMsg::Saved {
                rank: Rank(2),
                index: 3,
            },
            CrMsg::Resume { index: 3 },
            CrMsg::Marker { index: 1 },
            CrMsg::FlushMark { index: 9 },
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
        assert!(CrMsg::decode_from_bytes(&[77]).is_err());
    }

    #[test]
    fn sync_cost_model_anchors() {
        assert_eq!(SyncCostModel::native_sync(1), VirtualTime::ZERO);
        let n2 = SyncCostModel::native_sync(2).as_millis_f64();
        assert!((n2 - 27.8).abs() < 0.1, "native n=2: {n2}ms");
        let n4 = SyncCostModel::native_sync(4).as_millis_f64();
        assert!((n4 - 41.7).abs() < 0.1, "native n=4: {n4}ms");

        assert_eq!(SyncCostModel::vm_sync(1), VirtualTime::ZERO);
        let v2 = SyncCostModel::vm_sync(2).as_millis_f64();
        assert!((v2 - 13.9).abs() < 0.1, "vm n=2: {v2}ms");
        let v4 = SyncCostModel::vm_sync(4).as_millis_f64();
        assert!((v4 - 41.7).abs() < 0.1, "vm n=4: {v4}ms");
    }

    #[test]
    fn sync_cost_grows_monotonically() {
        for n in 1..8 {
            assert!(SyncCostModel::native_sync(n + 1) > SyncCostModel::native_sync(n) || n == 0);
            assert!(SyncCostModel::vm_sync(n + 1) > SyncCostModel::vm_sync(n) || n == 0);
        }
    }
}
