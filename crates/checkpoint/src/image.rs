//! Checkpoint images.
//!
//! An image captures one application process: its registered state (the "VM
//! heap"), the in-transit messages that logically belong to it (channel
//! state), and enough metadata to place it on the recovery line. Native
//! images additionally carry the architecture-locked virtual-machine segment,
//! which is why the paper's smallest native image is 632 KB while the
//! smallest VM-level image is only 260 KB (§5).

use starfish_util::{AppId, Epoch, Rank, Result, VirtualTime};

use crate::arch::Arch;
use crate::portable::{self, ConversionReport};
use crate::value::CkptValue;

/// Base size of a native (process-level) image of an *empty* program:
/// the paper's Figure 3 smallest data point (632 KB). Includes the OCaml
/// virtual machine's own data, which must be saved at this level.
pub(crate) const NATIVE_BASE_BYTES: u64 = 632 * 1024;

/// Base size of a VM-level image of an empty program: Figure 4's smallest
/// point (260 KB). The VM itself is *not* saved — only the heap — hence the
/// smaller constant (§5: "the checkpointed data does not contain the virtual
/// machine data").
pub(crate) const VM_BASE_BYTES: u64 = 260 * 1024;

/// At which level a checkpoint was taken (paper §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CkptLevel {
    /// Native process level: OS-dependent, restorable only on an identical
    /// architecture + OS.
    Native { arch: Arch },
    /// OCaml-virtual-machine level: heterogeneous, restorable anywhere.
    Vm { arch: Arch },
}

impl CkptLevel {
    pub fn arch(&self) -> Arch {
        match self {
            CkptLevel::Native { arch } | CkptLevel::Vm { arch } => *arch,
        }
    }

    pub(crate) fn base_bytes(&self) -> u64 {
        match self {
            CkptLevel::Native { .. } => NATIVE_BASE_BYTES,
            CkptLevel::Vm { .. } => VM_BASE_BYTES,
        }
    }
}

/// An in-transit data message captured as part of a checkpoint (stop-and-sync
/// flushes these into the image; Chandy–Lamport records them per channel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMsg {
    pub src: Rank,
    pub dst: Rank,
    /// MPI communicator context the message was sent on.
    pub context: u32,
    pub tag: u64,
    pub payload: Vec<u8>,
}

/// One process checkpoint.
#[derive(Debug, Clone)]
pub struct CkptImage {
    pub(crate) app: AppId,
    pub(crate) rank: Rank,
    #[expect(
        dead_code,
        reason = "read by nothing; `capture`'s signature, which bench-e2e pins, still takes it"
    )]
    pub(crate) epoch: Epoch,
    /// Checkpoint index of this process (1, 2, 3, ... per incarnation).
    pub(crate) index: u64,
    pub level: CkptLevel,
    /// The registered state, serialized in the saving machine's native
    /// representation by [`portable::encode_portable`].
    pub(crate) body: Vec<u8>,
    /// Captured channel state.
    pub channel: Vec<ChannelMsg>,
    /// Virtual instant the checkpoint was taken.
    #[expect(
        dead_code,
        reason = "read by nothing; `capture`'s signature, which bench-e2e pins, still takes it"
    )]
    pub(crate) taken_at: VirtualTime,
    /// Heap footprint of the registered state, taken from the value at
    /// capture so that sizing an image never decodes its body.
    heap_bytes: u64,
}

impl CkptImage {
    /// Build an image by serializing `state` on `arch` at the given level.
    #[expect(clippy::too_many_arguments, reason = "every field of an image header")]
    pub fn capture(
        app: AppId,
        rank: Rank,
        epoch: Epoch,
        index: u64,
        level: CkptLevel,
        state: &CkptValue,
        channel: Vec<ChannelMsg>,
        taken_at: VirtualTime,
    ) -> Result<CkptImage> {
        let body = portable::encode_portable(state, level.arch())?;
        Ok(CkptImage {
            heap_bytes: state.heap_bytes() as u64,
            app,
            rank,
            epoch,
            index,
            level,
            body,
            channel,
            taken_at,
        })
    }

    /// Total accounted size on stable storage: level base, serialized state,
    /// and channel payloads. This is the size the disk model charges for and
    /// the size the Figure 3/4 harnesses report.
    pub fn total_bytes(&self) -> u64 {
        let chan: u64 = self
            .channel
            .iter()
            .map(|m| m.payload.len() as u64 + 24)
            .sum();
        // `Zeros` regions are stored compressed in `body` but account at
        // their full heap footprint, like real untouched pages hitting disk.
        self.level.base_bytes() + self.heap_bytes + chan
    }

    /// Restore the state on a machine of architecture `target`.
    ///
    /// * VM-level images convert representation as needed.
    /// * Native images require the *identical* machine type (architecture
    ///   and OS), as on real systems (§4).
    pub fn restore_state(&self, target: Arch) -> Result<(CkptValue, ConversionReport)> {
        if let CkptLevel::Native { arch } = self.level {
            if arch != target {
                return Err(starfish_util::Error::checkpoint(format!(
                    "native image from [{arch}] cannot restore on [{target}]"
                )));
            }
        }
        portable::decode_portable(&self.body, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;

    fn state() -> CkptValue {
        CkptValue::record(vec![
            ("iter", CkptValue::Int(10)),
            ("data", CkptValue::Bytes(vec![7; 1000])),
        ])
    }

    fn img(level: CkptLevel) -> CkptImage {
        CkptImage::capture(
            AppId(1),
            Rank(0),
            Epoch(0),
            1,
            level,
            &state(),
            vec![],
            VirtualTime::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn empty_program_image_sizes_match_paper() {
        let native = CkptImage::capture(
            AppId(1),
            Rank(0),
            Epoch(0),
            1,
            CkptLevel::Native { arch: MACHINES[0] },
            &CkptValue::Unit,
            vec![],
            VirtualTime::ZERO,
        )
        .unwrap();
        let vm = CkptImage::capture(
            AppId(1),
            Rank(0),
            Epoch(0),
            1,
            CkptLevel::Vm { arch: MACHINES[0] },
            &CkptValue::Unit,
            vec![],
            VirtualTime::ZERO,
        )
        .unwrap();
        // 632 KB vs 260 KB, ± the tiny encoded Unit.
        assert!(native.total_bytes() >= 632 * 1024);
        assert!(native.total_bytes() < 632 * 1024 + 64);
        assert!(vm.total_bytes() >= 260 * 1024);
        assert!(vm.total_bytes() < 260 * 1024 + 64);
    }

    #[test]
    fn native_restores_only_on_identical_machine() {
        let i = img(CkptLevel::Native { arch: MACHINES[0] });
        assert!(i.restore_state(MACHINES[0]).is_ok());
        // Same representation but different machine (NT vs Linux): refused.
        assert!(i.restore_state(MACHINES[4]).is_err());
        assert!(i.restore_state(MACHINES[1]).is_err());
    }

    #[test]
    fn vm_restores_anywhere() {
        let i = img(CkptLevel::Vm { arch: MACHINES[0] });
        for m in MACHINES {
            let (v, _) = i.restore_state(m).unwrap();
            assert_eq!(v, state());
        }
    }

    #[test]
    fn channel_state_counts_toward_size() {
        let mut i = img(CkptLevel::Vm { arch: MACHINES[0] });
        let before = i.total_bytes();
        i.channel.push(ChannelMsg {
            src: Rank(1),
            dst: Rank(0),
            context: 1,
            tag: 0,
            payload: vec![0; 5000],
        });
        assert!(i.total_bytes() >= before + 5000);
    }

    /// Sizing an image from the value captured equals sizing it from its
    /// decoded body, on every machine and at both levels.
    #[test]
    fn the_captured_heap_size_is_the_decoded_bodys() {
        let state = CkptValue::record(vec![
            ("unit", CkptValue::Unit),
            ("flag", CkptValue::Bool(true)),
            ("iter", CkptValue::Int(-7)),
            ("x", CkptValue::Float(0.5)),
            ("name", CkptValue::Str("jacobi".into())),
            ("raw", CkptValue::Bytes(vec![1; 300])),
            ("ints", CkptValue::IntArray(vec![3; 40])),
            ("grid", CkptValue::FloatArray(vec![1.5; 500])),
            (
                "list",
                CkptValue::List(vec![CkptValue::Int(1), CkptValue::Zeros(9)]),
            ),
            ("heap", CkptValue::Zeros(1 << 20)),
        ]);
        for arch in MACHINES {
            for level in [CkptLevel::Native { arch }, CkptLevel::Vm { arch }] {
                let i = CkptImage::capture(
                    AppId(1),
                    Rank(0),
                    Epoch(0),
                    1,
                    level,
                    &state,
                    vec![],
                    VirtualTime::ZERO,
                )
                .unwrap();
                let (decoded, _) = portable::decode_portable(&i.body, arch).unwrap();
                let want = level.base_bytes() + decoded.heap_bytes() as u64;
                assert_eq!(i.total_bytes(), want, "{level:?}");
            }
        }
    }

    #[test]
    fn zeros_regions_account_full_size() {
        let big = CkptImage::capture(
            AppId(1),
            Rank(0),
            Epoch(0),
            1,
            CkptLevel::Vm { arch: MACHINES[0] },
            &CkptValue::Zeros(50_000_000),
            vec![],
            VirtualTime::ZERO,
        )
        .unwrap();
        assert!(big.total_bytes() >= 50_000_000);
        // ...but the stored body is tiny (the whole point of Zeros).
        assert!(big.body.len() < 64);
    }
}
