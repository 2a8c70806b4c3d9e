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
//! * **a kick is never lost** — a `kick()` racing the owner's waiting
//!   `pop_batch` surfaces as `Kicked` from that wait or the next one;
//!   packets win over it without clearing it, and a look (`pop_batch` with
//!   no wait) leaves it pending; `close()` wakes a parked owner, after the
//!   drain.
//!
//! `pop_batch` is the pop every consumer uses: it trades the consumer's
//! emptied buffer for the queued one, or moves `max` packets when more are
//! queued, so the properties are checked for both paths.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use loom::sync::Arc;
use loom::thread;
use starfish_util::NodeId;
use starfish_vni::inbox::{Inbox, Pop, PopBatch};
use starfish_vni::{Addr, Packet, PacketKind, PortId};

const SENDERS: u64 = 3;
const PER_SENDER: u64 = 4;
const FAR: Duration = Duration::from_secs(10);
/// A wait given `FAR` must be woken well inside it: a lost wake-up would
/// sit the limit out, find the packet or kick on its final look and pass.
const STALL: Duration = Duration::from_secs(1);

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

/// Run one wait given `FAR` and fail if it came back by running into it.
fn woken<R>(wait: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let got = wait();
    let took = t0.elapsed();
    assert!(took < STALL, "a wait took {took:?}: lost wake-up");
    got
}

/// `pop_batch` with a fresh buffer: `(outcome, packets handed over)`.
fn pop(inbox: &Inbox, wait: Option<Duration>) -> (PopBatch, usize) {
    let mut buf = VecDeque::new();
    let got = woken(|| inbox.pop_batch(&mut buf, 8, wait));
    (got, buf.len())
}

/// The owner of a wait point with other queues to serve: every kick means
/// "look at your queues", so none may vanish — neither into a wait that is
/// just starting, nor into one that returns packets instead.
#[test]
fn a_kick_is_never_lost() {
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
            match pop(&inbox, Some(FAR)) {
                (PopBatch::Kicked, _) => kicks += 1,
                (PopBatch::Packets, n) => packets += n,
                (PopBatch::Empty, _) => {
                    panic!("lost a wake-up ({kicks} kicks, {packets} packets)")
                }
                (PopBatch::Closed, _) => panic!("inbox closed under its owner"),
            }
        }
        kicker.join().unwrap();
        sender.join().unwrap();
        // Packets win over a pending kick and leave it pending.
        inbox.kick();
        inbox.push(pkt(0, 1));
        assert!(matches!(pop(&inbox, Some(FAR)), (PopBatch::Packets, 1)));
        assert!(matches!(pop(&inbox, Some(FAR)), (PopBatch::Kicked, 0)));
        // close() wakes a parked owner — after the drain.
        inbox.push(pkt(0, 2));
        let closer = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || inbox.close())
        };
        assert!(matches!(pop(&inbox, Some(FAR)), (PopBatch::Packets, 1)));
        assert!(matches!(pop(&inbox, Some(FAR)), (PopBatch::Closed, 0)));
        closer.join().unwrap();
    });
}

/// The trading pop as a rank drives it — one buffer, emptied after every
/// round, alternately looking and waiting, at most two packets a round —
/// raced by concurrent senders and a kick, then by senders and a close.
/// Every packet comes out once and in its sender's order, the kick comes
/// out exactly once, and a close loses nothing that was accepted before it.
#[test]
fn the_trading_pop_racing_senders_a_kick_and_a_close_loses_nothing() {
    loom::model(|| {
        let inbox = Inbox::new();
        let kicker = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || inbox.kick())
        };
        let producers: Vec<_> = (0..SENDERS)
            .map(|s| {
                let inbox = Arc::clone(&inbox);
                thread::spawn(move || {
                    for k in 0..PER_SENDER {
                        assert!(inbox.push(pkt(s, k)));
                        thread::yield_now();
                    }
                })
            })
            .collect();
        let mut buf = VecDeque::new();
        let (mut tags, mut kicks, mut round) = (Vec::new(), 0, 0u64);
        while (tags.len() as u64) < SENDERS * PER_SENDER || kicks == 0 {
            round += 1;
            let wait = (round % 2 == 0).then_some(FAR);
            match woken(|| inbox.pop_batch(&mut buf, 2, wait)) {
                PopBatch::Packets => tags.extend(buf.drain(..).map(|p| p.tag)),
                PopBatch::Kicked => kicks += 1,
                PopBatch::Empty if wait.is_none() => thread::yield_now(),
                PopBatch::Empty => panic!("lost a wake-up ({kicks} kicks, {tags:?})"),
                PopBatch::Closed => panic!("inbox closed under its owner"),
            }
        }
        kicker.join().unwrap();
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(kicks, 1);
        assert_eq!(tags.len() as u64, SENDERS * PER_SENDER);
        assert_per_sender_fifo(&tags);

        // A close racing a sender: whatever was accepted comes out, in
        // order, before the owner sees the closure.
        let sender = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                (0..PER_SENDER)
                    .take_while(|&k| inbox.push(pkt(0, k)))
                    .count()
            })
        };
        let closer = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || inbox.close())
        };
        let mut tail = Vec::new();
        loop {
            match woken(|| inbox.pop_batch(&mut buf, 2, Some(FAR))) {
                PopBatch::Packets => tail.extend(buf.drain(..).map(|p| p.tag)),
                PopBatch::Closed => break,
                PopBatch::Kicked | PopBatch::Empty => panic!("no kick pending, nothing lost"),
            }
        }
        let accepted = sender.join().unwrap() as u64;
        closer.join().unwrap();
        assert_eq!(tail, (0..accepted).collect::<Vec<_>>());
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
        match woken(|| inbox.pop_wait(Some(FAR))) {
            Pop::Packet(p) => assert_eq!(p.tag, 0),
            _ => panic!("queued packet must survive close"),
        }
        closer.join().unwrap();
        // ...and only then does the consumer observe the closure.
        assert!(matches!(inbox.pop_wait(None), Pop::Closed));
        assert!(matches!(inbox.try_pop(), Pop::Closed));
    });
}
