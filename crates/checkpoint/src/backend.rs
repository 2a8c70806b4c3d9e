//! Per-application checkpoint storage policy.
//!
//! [`CkptBackend`] is selected at submit time via the daemon config, like
//! the C/R protocol and level:
//!
//! * `disk` — the paper's stable storage behind the modeled NFS/IDE disk
//!   ([`crate::disk::DiskModel`] charges the timing);
//! * `replica:<k>` — diskless: `k` copies of every fragment in peer memory
//!   ([`crate::replica`]).
//!
//! Both are the one [`CkptStore`](crate::store::CkptStore): it keeps each
//! app's backend, places a replica app's images over its live peers, and
//! charges every put and fetch by the app's backend.

/// Which storage backend an application's checkpoints use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CkptBackend {
    /// Stable storage behind the modeled disk (the paper's NFS testbed).
    #[default]
    Disk,
    /// Diskless: fragments replicated to `k` distinct peer nodes' memory.
    Replica { k: u8 },
}

impl CkptBackend {
    /// Parse a mgmt/CLI spelling: `disk`, `replica` (k = 2) or `replica:3`.
    pub fn parse(s: &str) -> Option<CkptBackend> {
        let t = s.trim().to_ascii_lowercase();
        match t.as_str() {
            "disk" => Some(CkptBackend::Disk),
            "replica" => Some(CkptBackend::Replica { k: 2 }),
            _ => {
                let k = t.strip_prefix("replica:")?.parse::<u8>().ok()?;
                (k >= 1).then_some(CkptBackend::Replica { k })
            }
        }
    }
}

impl std::fmt::Display for CkptBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptBackend::Disk => write!(f, "disk"),
            CkptBackend::Replica { k } => write!(f, "replica:{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;
    use crate::image::{CkptImage, CkptLevel};
    use crate::store::CkptStore;
    use crate::value::CkptValue;
    use starfish_util::{AppId, Epoch, Error, NodeId, Rank, VirtualTime};
    use std::time::Duration;

    fn img(app: u32, rank: u32, index: u64) -> CkptImage {
        CkptImage::capture(
            AppId(app),
            Rank(rank),
            Epoch(0),
            index,
            CkptLevel::Vm { arch: MACHINES[0] },
            &CkptValue::Int(index as i64),
            vec![],
            VirtualTime::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn backend_parse_and_display_roundtrip() {
        assert_eq!(CkptBackend::parse("disk"), Some(CkptBackend::Disk));
        assert_eq!(
            CkptBackend::parse("REPLICA"),
            Some(CkptBackend::Replica { k: 2 })
        );
        assert_eq!(
            CkptBackend::parse("replica:3"),
            Some(CkptBackend::Replica { k: 3 })
        );
        assert_eq!(CkptBackend::parse("replica:0"), None);
        assert_eq!(CkptBackend::parse("tape"), None);
        for b in [CkptBackend::Disk, CkptBackend::Replica { k: 3 }] {
            assert_eq!(CkptBackend::parse(&b.to_string()), Some(b));
        }
    }

    #[test]
    fn hub_defaults_unregistered_apps_to_disk() {
        let store = CkptStore::new();
        let receipt = store.put(img(1, 0, 1));
        assert_eq!(store.backend_of(AppId(1)), CkptBackend::Disk);
        assert_eq!(receipt.fragments, 0, "a disk put places no fragments");
        assert_eq!(store.latest_index(AppId(1), Rank(0)), 1);
    }

    #[test]
    fn wait_common_index_wakes_on_the_completing_put() {
        let store = CkptStore::new();
        let ranks = [Rank(0), Rank(1)];
        let long = Duration::from_secs(30);
        store.put(img(1, 0, 1));
        let waiter = {
            let store = store.clone();
            std::thread::spawn(move || store.wait_common_index(AppId(1), &ranks, 0, long))
        };
        // Images of other apps and of the same rank again wake the waiter
        // but do not satisfy it; rank 1's does.
        store.put(img(2, 1, 1));
        store.put(img(1, 0, 2));
        store.put(img(1, 1, 1));
        assert_eq!(waiter.join().unwrap().unwrap(), 1);
        // Already satisfied: returns without waiting. Never satisfied:
        // times out at the deadline.
        assert_eq!(
            store.wait_common_index(AppId(1), &ranks, 0, long).unwrap(),
            1
        );
        let late = store.wait_common_index(AppId(1), &ranks, 1, Duration::from_millis(10));
        assert!(matches!(late, Err(Error::Timeout(_))), "{late:?}");
    }

    #[test]
    fn replica_apps_route_to_peer_memory_and_disk_stays_empty() {
        let store = CkptStore::new();
        for n in 0..4 {
            store.node_up(NodeId(n));
        }
        store.set_backend(
            AppId(2),
            CkptBackend::Replica { k: 2 },
            vec![NodeId(0), NodeId(1)],
        );
        store.put(img(2, 0, 1));
        store.put(img(2, 1, 1));
        // Every rank's latest image is placed in peer memory, off its owner.
        let health = store.health(AppId(2));
        assert_eq!(health.len(), 2, "{health:?}");
        for h in &health {
            assert!(
                h.map.iter().all(|f| !f.replicas.contains(&h.owner)),
                "{h:?}"
            );
        }
        assert_eq!(store.latest_index(AppId(2), Rank(0)), 1);
        assert_eq!(store.latest_common_index(AppId(2), &[Rank(0), Rank(1)]), 1);
        // Survives one node loss at k=2 …
        store.node_down(NodeId(1));
        assert_eq!(store.latest_common_index(AppId(2), &[Rank(0), Rank(1)]), 1);
        let r = store.fetch(AppId(2), Rank(1), 1, NodeId(3)).unwrap();
        assert_eq!(r.img.rank, Rank(1));
        // … and only a replica put is split into fragments.
        assert!(store.put(img(2, 0, 2)).fragments > 0);
        assert_eq!(store.put(img(9, 0, 1)).fragments, 0);
    }

    #[test]
    fn remove_app_clears_policy_and_data() {
        let store = CkptStore::new();
        store.node_up(NodeId(0));
        store.node_up(NodeId(1));
        store.set_backend(AppId(3), CkptBackend::Replica { k: 1 }, vec![NodeId(0)]);
        store.put(img(3, 0, 1));
        store.remove_app(AppId(3));
        assert_eq!(store.stats().0, 0);
        assert_eq!(store.backend_of(AppId(3)), CkptBackend::Disk);
    }
}
