//! Concurrency model tests for the per-endpoint [`Inbox`] shard.
//!
//! Written against the `loom` API: under the real crate (CI images that
//! patch it in) every interleaving is explored exhaustively; under the
//! offline stand-in the closure runs as a many-schedule stress loop. The
//! assertions are interleaving-universal either way:
//!
//! * **no lost wakeups** — consumers blocked in `pop_wait` (the
//!   `recv_timeout` path) always observe every packet concurrent senders
//!   push, however pushes and timeouts interleave;
//! * **oldest-first delivery** — each sender's packets come out in the
//!   order that sender pushed them (the inbox is one FIFO; interleaving
//!   across senders is free, reordering within a sender is a tear);
//! * **a kick is never lost** — a `kick()` racing the owner's
//!   `pop_batch_timeout` surfaces as `Kicked` from that wait or the next
//!   one; packets win over it without clearing it; `close()` wakes a parked
//!   owner, after the drain.

use std::time::Duration;

use bytes::Bytes;
use loom::sync::Arc;
use loom::thread;
use starfish_util::NodeId;
use starfish_vni::inbox::{Inbox, Pop, PopBatch};
use starfish_vni::{Addr, Packet, PacketKind, PortId};

const SENDERS: u64 = 3;
const PER_SENDER: u64 = 4;

fn pkt(sender: u64, k: u64) -> Packet {
    let src = Addr::new(NodeId(sender as u32), PortId(1));
    let dst = Addr::new(NodeId(99), PortId(1));
    // tag encodes (sender, index) so the consumer can check per-sender order
    Packet::new(
        src,
        dst,
        PacketKind::Data,
        sender * 1000 + k,
        Bytes::from_static(b"x"),
    )
}

fn assert_per_sender_fifo(tags: &[u64]) {
    for s in 0..SENDERS {
        let got: Vec<u64> = tags.iter().copied().filter(|t| t / 1000 == s).collect();
        let want: Vec<u64> = (0..PER_SENDER).map(|k| s * 1000 + k).collect();
        assert_eq!(got, want, "sender {s} packets reordered");
    }
}

#[test]
fn concurrent_senders_racing_recv_timeout_lose_nothing() {
    loom::model(|| {
        let inbox = Inbox::new();
        let producers: Vec<_> = (0..SENDERS)
            .map(|s| {
                let inbox = Arc::clone(&inbox);
                thread::spawn(move || {
                    for k in 0..PER_SENDER {
                        assert!(inbox.push(pkt(s, k)), "push into open inbox failed");
                        thread::yield_now();
                    }
                })
            })
            .collect();
        let consumer = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                let mut tags = Vec::new();
                while (tags.len() as u64) < SENDERS * PER_SENDER {
                    // Race short timeouts against the senders: a lost
                    // wakeup turns into a stream of TimedOut with packets
                    // stranded in the queue, which the outer deadline in
                    // the harness would surface as a hang.
                    match inbox.pop_wait(Some(Duration::from_millis(1))) {
                        Pop::Packet(p) => tags.push(p.tag),
                        Pop::TimedOut => thread::yield_now(),
                        Pop::Closed => panic!("inbox closed under consumer"),
                    }
                }
                tags
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        let tags = consumer.join().unwrap();
        assert_eq!(tags.len() as u64, SENDERS * PER_SENDER);
        assert_per_sender_fifo(&tags);
    });
}

/// The owner of a wait point with other queues to serve: every kick means
/// "look at your queues", so none may vanish — neither into a wait that is
/// just starting, nor into one that returns packets instead.
#[test]
fn a_kick_is_never_lost() {
    const FAR: Duration = Duration::from_secs(10);
    loom::model(|| {
        let inbox = Inbox::new();
        let kicker = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || inbox.kick())
        };
        let sender = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || assert!(inbox.push(pkt(0, 0))))
        };
        // One kick and one packet, racing the owner's waits in any order:
        // exactly one `Kicked` and one batch come out, and no wait runs to
        // its limit. If the packet wins a wait the kick was pending for,
        // the kick is still there for the next.
        let (mut kicks, mut packets) = (0, 0);
        while (kicks, packets) != (1, 1) {
            match inbox.pop_batch_timeout(8, FAR) {
                PopBatch::Kicked => kicks += 1,
                PopBatch::Packets(b) => packets += b.len(),
                PopBatch::TimedOut => panic!("lost a wake-up ({kicks} kicks, {packets} packets)"),
                PopBatch::Closed => panic!("inbox closed under its owner"),
            }
        }
        kicker.join().unwrap();
        sender.join().unwrap();
        // Packets win over a pending kick and leave it pending.
        inbox.kick();
        inbox.push(pkt(0, 1));
        assert!(matches!(inbox.pop_batch_timeout(8, FAR), PopBatch::Packets(b) if b.len() == 1));
        assert!(matches!(inbox.pop_batch_timeout(8, FAR), PopBatch::Kicked));
        // close() wakes a parked owner — after the drain.
        inbox.push(pkt(0, 2));
        let closer = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || inbox.close())
        };
        assert!(matches!(inbox.pop_batch_timeout(8, FAR), PopBatch::Packets(b) if b.len() == 1));
        assert!(matches!(inbox.pop_batch_timeout(8, FAR), PopBatch::Closed));
        closer.join().unwrap();
    });
}

#[test]
fn close_wakes_blocked_consumer_after_drain() {
    loom::model(|| {
        let inbox = Inbox::new();
        inbox.push(pkt(0, 0));
        let closer = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                inbox.close();
            })
        };
        // Packets win over closure: the queued packet is drained first,
        // whichever side of the close the consumer lands on...
        match inbox.pop_wait(Some(Duration::from_secs(10))) {
            Pop::Packet(p) => assert_eq!(p.tag, 0),
            _ => panic!("queued packet must survive close"),
        }
        closer.join().unwrap();
        // ...and only then does the consumer observe the closure.
        assert!(matches!(inbox.pop_wait(None), Pop::Closed));
        assert!(matches!(inbox.try_pop(), Pop::Closed));
    });
}
