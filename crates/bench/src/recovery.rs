//! Modelled checkpoint recovery: the paper-era disk against the diskless
//! replica store, at one image size, in virtual time.
//!
//! The `calibrate` bench prints these rows and writes them to
//! `BENCH_calibrate.json`'s `recovery_ns` section, and
//! `tests/committed_report.rs` recomputes the committed rows from here.
//! Everything is a pure function of the image size.

use starfish_checkpoint::{
    CkptBackend, CkptImage, CkptLevel, CkptStore, CkptValue, DiskModel, MACHINES,
};
use starfish_util::{AppId, Epoch, NodeId, Rank, VirtualTime};

/// Replication factor and cluster size of the recovery rows.
pub const K: u8 = 2;
pub const NODES: u32 = 8;
const APP: AppId = AppId(1);

/// The four legs of the disk-vs-replica comparison.
pub const LEGS: [&str; 4] = ["disk_write", "replica_push", "disk_read", "replica_fetch"];

fn image(bytes: usize) -> CkptImage {
    CkptImage::capture(
        APP,
        Rank(0),
        Epoch(0),
        1,
        CkptLevel::Vm { arch: MACHINES[0] },
        &CkptValue::Bytes(vec![0x5a; bytes]),
        vec![],
        VirtualTime::ZERO,
    )
    .expect("capture image")
}

/// Virtual-time disk-vs-replica comparison at one image size: the [`LEGS`]
/// in nanoseconds. The disk legs charge the paper's IDE disk
/// ([`DiskModel::ide_1999`]); the replica legs go through the checkpoint
/// store, which loses the owner node before the fetch, so the image is
/// reassembled purely from surviving peers.
pub fn recovery_model(bytes: usize) -> [u64; 4] {
    let disk = DiskModel::ide_1999();
    let img = image(bytes);
    let total = img.total_bytes();
    let dw = disk.write_time(total).as_nanos();
    let dr = disk.read_time(total).as_nanos();

    let store = CkptStore::new();
    for n in 0..NODES {
        store.node_up(NodeId(n));
    }
    store.set_backend(APP, CkptBackend::Replica { k: K }, vec![NodeId(0)]);
    let receipt = store.put(img);
    assert!(!receipt.under_replicated);
    store.node_down(NodeId(0)); // the owner dies with its local state
    let fetch = store
        .fetch(APP, Rank(0), 1, NodeId(1))
        .expect("image must be recoverable from peers after owner loss");
    assert_eq!(fetch.parity_rebuilds, 0, "k−1 losses never need parity");
    [dw, receipt.cost.as_nanos(), dr, fetch.cost.as_nanos()]
}

/// How many times faster the replica fetch is than the disk read, as the
/// report prints it (two decimals).
pub fn speedup(legs: [u64; 4]) -> String {
    let [.., disk_read, replica_fetch] = legs;
    format!("{:.2}", disk_read as f64 / replica_fetch as f64)
}
