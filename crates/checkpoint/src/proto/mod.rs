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
use starfish_util::{Error, Rank, Result};

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
}
