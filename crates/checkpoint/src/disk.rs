//! Disk timing model for checkpoint images.
//!
//! The paper's testbed used "regular IDE bus and controller" (§5) for native
//! checkpoints; VM-level images are small enough to be absorbed by the
//! buffer cache, which is why Figure 4's absolute times are an order of
//! magnitude below Figure 3's. Both behaviours are modelled as
//! `fixed + size/bandwidth` with constants calibrated to the papers'
//! smallest-point anchors (see DESIGN.md §6 and EXPERIMENTS.md).

use starfish_util::VirtualTime;

/// A simple linear disk model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Fixed per-image overhead (open, seek, sync, metadata).
    pub(crate) fixed: VirtualTime,
    /// Sustained write bandwidth, bytes/second.
    pub(crate) write_bw: f64,
    /// Sustained read bandwidth, bytes/second (restore path).
    pub(crate) read_bw: f64,
}

impl DiskModel {
    /// 1999-era IDE disk writing a native (synchronous) core dump.
    /// Calibrated: 632 KB native image → 0.104061 s on one node (Figure 3).
    /// 0.050 s fixed + 647_168 B / 12 MB/s = 0.1039 s.
    pub fn ide_1999() -> Self {
        DiskModel {
            fixed: VirtualTime::from_millis(50),
            write_bw: 12.0e6,
            read_bw: 14.0e6,
        }
    }

    /// Buffer-cache-absorbed write path used by the small VM-level images.
    /// Calibrated: 260 KB VM image → 0.0077 s on one node (Figure 4).
    /// 0.0033 s fixed + 266_240 B / 60 MB/s = 0.00774 s.
    pub(crate) fn vm_buffered() -> Self {
        DiskModel {
            fixed: VirtualTime::from_micros(3300),
            write_bw: 60.0e6,
            read_bw: 60.0e6,
        }
    }

    /// A free disk, for pure protocol-logic tests.
    #[cfg(test)]
    fn instant() -> Self {
        DiskModel {
            fixed: VirtualTime::ZERO,
            write_bw: 0.0,
            read_bw: 0.0,
        }
    }

    /// Virtual time to write an image of `bytes`.
    pub fn write_time(&self, bytes: u64) -> VirtualTime {
        self.fixed + VirtualTime::transfer(bytes, self.write_bw)
    }

    /// Virtual time to read an image of `bytes` back (restart path).
    pub fn read_time(&self, bytes: u64) -> VirtualTime {
        self.fixed + VirtualTime::transfer(bytes, self.read_bw)
    }

    /// Application-visible cost of a *forked* (copy-on-write) checkpoint
    /// \[32,33\]: the process forks, the child writes the image while the
    /// parent computes on. The parent pays only the fork (page-table copy +
    /// COW faults on the write-heavy fraction); the full
    /// [`write_time`](Self::write_time) still elapses in the background and
    /// gates the *next* checkpoint.
    pub fn fork_time(&self, bytes: u64) -> VirtualTime {
        // ~1 ms fork syscall + page-table copy at ~1 GB/s equivalent.
        VirtualTime::from_millis(1) + VirtualTime::transfer(bytes, 1.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 3 anchor: a 632 KB native image takes ≈ 0.104 s on one node.
    #[test]
    fn figure3_single_node_anchor() {
        let t = DiskModel::ide_1999().write_time(632 * 1024);
        let s = t.as_secs_f64();
        assert!((s - 0.104061).abs() < 0.002, "native 632KB = {s}s");
    }

    /// Figure 4 anchor: a 260 KB VM image takes ≈ 0.0077 s on one node.
    #[test]
    fn figure4_single_node_anchor() {
        let t = DiskModel::vm_buffered().write_time(260 * 1024);
        let s = t.as_secs_f64();
        assert!((s - 0.0077).abs() < 0.0004, "vm 260KB = {s}s");
    }

    /// §5: "the checkpoint time grows linearly with the size".
    #[test]
    fn write_time_linear_in_size() {
        let m = DiskModel::ide_1999();
        let t0 = m.write_time(0).as_nanos() as f64;
        let t1 = m.write_time(10_000_000).as_nanos() as f64;
        let t2 = m.write_time(20_000_000).as_nanos() as f64;
        assert!(((t2 - t1) - (t1 - t0)).abs() < 10.0);
    }

    /// §5: the largest native checkpoint (135 MB) is "on the order of
    /// seconds".
    #[test]
    fn largest_images_order_of_seconds() {
        let native = DiskModel::ide_1999().write_time(135_000_000).as_secs_f64();
        assert!(native > 1.0 && native < 60.0, "native 135MB = {native}s");
        let vm = DiskModel::vm_buffered()
            .write_time(96_000_000)
            .as_secs_f64();
        assert!(vm > 0.5 && vm < 10.0, "vm 96MB = {vm}s");
    }

    #[test]
    fn fork_is_much_cheaper_than_the_write() {
        let m = DiskModel::ide_1999();
        for bytes in [632 * 1024, 10_000_000, 135_000_000u64] {
            assert!(
                m.fork_time(bytes) * 10 < m.write_time(bytes),
                "fork must be an order of magnitude below the write at {bytes}B"
            );
        }
    }

    #[test]
    fn instant_disk_is_free() {
        let m = DiskModel::instant();
        assert_eq!(m.write_time(1 << 30), VirtualTime::ZERO);
        assert_eq!(m.read_time(1 << 30), VirtualTime::ZERO);
    }
}
