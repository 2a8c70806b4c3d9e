//! Exhaustive model of the rank's checkpoint/restart service loop: *n*
//! deployed [`RankCr`] machines — each with the deployed stop-and-sync
//! engine inside — running an application skeleton over FIFO links.
//!
//! Every C/R decision — when a rank is held, when and of what it is
//! captured, which `checkpoint()` call a capture belongs to, which sends a
//! restored rank suppresses — is taken by the machine the runtime's shell
//! drives (`starfish_checkpoint::proto::rank`). The model plays the shell
//! and the world around it:
//!
//! * the **skeleton**: every rank runs `steps` steps of `segs` blocking
//!   exchanges (send to the right neighbour, receive from the left), with a
//!   plain safepoint between two exchanges, then `checkpoint()` with the
//!   next step as its state; rank 0 coordinates. At a plain safepoint the
//!   shell may copy the state in hand into its cache or keep the older copy
//!   (and its growing log): the checker explores both, so every refresh
//!   policy is covered; `checkpoint()` always refreshes;
//! * **daemon relays** (`Stop` / `Saved` / `Resume`): FIFO per link;
//! * the **data path**: one FIFO per link carrying application messages and
//!   flush marks in order. An arriving data message is queued at once (in
//!   the rank's port, which its next look drains); a flush mark and a relay
//!   are serviced only at a
//!   service point — and not while a capture put off inside a receive waits
//!   for that receive's look;
//! * where a rank services: blocked in a send (no state in hand), inside
//!   its receive, or at a plain safepoint or inside `checkpoint()` (state
//!   in hand);
//! * image writes that complete at once; the safepoint cache and the
//!   consumed log of each rank;
//! * up to `crashes` failures: every rank restores the last committed line
//!   (program position, channel state, owed captures, sends to suppress),
//!   links drain with the epoch.
//!
//! Safety: no image is written twice; commits increase; every committed
//! line is a **consistent cut** — on every link, what the receiver's image
//! consumed plus its channel state is exactly what the sender's image had
//! sent; and **no message is delivered twice** across a rollback: every
//! rank consumes, in order, exactly the messages its program position
//! expects. Liveness: every interleaving ends with every rank done and the
//! links empty — no rank waits in `checkpoint()` for a round nobody will
//! start.
//!
//! Three switches put back defects, for the checker to find: `late_claim`
//! (a member's `checkpoint()` waits for an image newer than the one it had
//! at the call, as the runtime did) deadlocks a rank captured blocked
//! before its call; `resend` (a restored rank sends what the machine
//! suppresses) delivers a message twice; `reset_on_keep` (a safepoint that
//! keeps the older copy still restarts the machine's sent counts) images
//! too few sends, so the restored rank sends again what its receiver holds.

use std::collections::BTreeMap;

use starfish_checkpoint::proto::rank::{Capture, Out, Point, RankCr};
use starfish_checkpoint::proto::{CkptProto, CrMsg};
use starfish_util::{Rank, VirtualTime};

use super::chan::{self, Fifo};
use crate::explorer::Model;

/// One configuration.
#[derive(Debug, Clone, Copy)]
pub struct RankCrModel {
    pub ranks: u32,
    pub steps: u32,
    /// Exchanges per step.
    pub segs: u32,
    pub crashes: u32,
    /// Mutation (i): a member's `checkpoint()` waits for a newer image.
    pub late_claim: bool,
    /// Mutation (ii): a restored rank sends what the machine suppresses.
    pub resend: bool,
    /// Mutation (iii): a safepoint that keeps the cached state restarts
    /// the machine's sent counts all the same.
    pub reset_on_keep: bool,
}

impl RankCrModel {
    pub const fn ring(ranks: u32, steps: u32, segs: u32, crashes: u32) -> Self {
        RankCrModel {
            ranks,
            steps,
            segs,
            crashes,
            late_claim: false,
            resend: false,
            reset_on_keep: false,
        }
    }
}

/// Where a rank's program is.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Pc {
    Send {
        step: u32,
        seg: u32,
    },
    Recv {
        step: u32,
        seg: u32,
    },
    /// At the plain safepoint before exchange `seg` (> 0) of `step`.
    Safe {
        step: u32,
        seg: u32,
    },
    /// Inside `checkpoint()` after `step`; `before`: its last image then.
    Call {
        step: u32,
        before: u64,
    },
    Done,
}

/// What the data path carries.
#[derive(Clone, Debug)]
enum Wire {
    Data(u32),
    Mark(CrMsg),
}

/// A written image: where the program resumes (the id of its next
/// exchange), the channel state, and the machine's fields.
#[derive(Clone, Debug)]
struct Image {
    resume: u32,
    channel: Vec<u32>,
    owed: u64,
    sent: Vec<u64>,
}

#[derive(Clone, Debug)]
struct Proc {
    cr: RankCr,
    pc: Pc,
    /// The exchange the state of the cached safepoint resumes at.
    cache: u32,
    /// Messages consumed since that safepoint.
    consumed: Vec<u32>,
    /// Arrived, unconsumed data messages.
    queue: Vec<u32>,
    /// A capture until its write.
    captured: Option<Image>,
}

#[derive(Clone, Debug)]
pub struct RcState {
    procs: Vec<Proc>,
    ctrl: Fifo<u32, CrMsg>,
    data: Fifo<u32, Wire>,
    images: Vec<BTreeMap<u64, Image>>,
    committed: u64,
    crashes_left: u32,
    broken: Option<String>,
}

#[derive(Clone, Debug)]
pub enum RcAction {
    /// Rank's program makes progress; at a plain safepoint, refreshing
    /// its cache.
    Step(u32),
    /// Rank leaves a plain safepoint keeping its cache.
    Keep(u32),
    /// Deliver the head relay on link `from → to`.
    Ctrl(u32, u32),
    /// Deliver the head of data link `from → to`.
    Data(u32, u32),
    /// A failure: every rank rolls back to the last committed line.
    Crash,
}

impl RankCrModel {
    fn right(&self, r: u32) -> u32 {
        (r + 1) % self.ranks
    }

    fn id(&self, step: u32, seg: u32) -> u32 {
        step * self.segs + seg
    }

    fn fresh(&self, r: u32) -> Proc {
        Proc {
            cr: RankCr::new(CkptProto::StopAndSync, Rank(r), self.ranks, 0),
            pc: Pc::Send { step: 0, seg: 0 },
            cache: 0,
            consumed: Vec::new(),
            queue: Vec::new(),
            captured: None,
        }
    }

    /// Where `r` services, if it can now.
    fn point(&self, p: &Proc) -> Option<Point> {
        match p.pc {
            Pc::Send { .. } => Some(Point::Busy),
            Pc::Recv { .. } if p.cr.deferred() => None,
            Pc::Recv { .. } => Some(Point::InRecv),
            Pc::Safe { .. } | Pc::Call { .. } => Some(Point::Safepoint),
            Pc::Done => None,
        }
    }

    /// Play the shell for what `r`'s machine answered.
    fn carry(&self, s: &mut RcState, r: u32, outs: Vec<Out>) {
        for out in outs {
            match out {
                Out::Up { to: Some(to), msg } => chan::push(&mut s.ctrl, r, to.0, msg),
                Out::Up { to: None, msg } => {
                    for p in (0..self.ranks).filter(|p| *p != r) {
                        chan::push(&mut s.ctrl, r, p, msg.clone());
                    }
                }
                Out::Mark { to, msg, .. } => chan::push(&mut s.data, r, to.0, Wire::Mark(msg)),
                Out::Capture { kind, owed, .. } => {
                    let p = &mut s.procs[r as usize];
                    let (resume, replay, sent) = match kind {
                        Capture::Live => (self.here(&p.pc), Vec::new(), Vec::new()),
                        Capture::Cached { sent } => (p.cache, p.consumed.clone(), sent),
                    };
                    p.captured = Some(Image {
                        resume,
                        channel: replay,
                        owed,
                        sent,
                    });
                }
                Out::Write { index, .. } => {
                    let p = &mut s.procs[r as usize];
                    let mut img = p.captured.take().expect("captured before written");
                    img.channel.extend(p.queue.iter().copied());
                    if s.images[r as usize].insert(index, img).is_some() {
                        s.broken
                            .get_or_insert(format!("rank {r} imaged index {index} twice"));
                    }
                    let outs = s.procs[r as usize].cr.written(index, VirtualTime::ZERO);
                    self.carry(s, r, outs);
                }
                Out::Committed { index, .. } => {
                    if index <= s.committed {
                        s.broken.get_or_insert(format!(
                            "commit regressed: {index} after {}",
                            s.committed
                        ));
                    }
                    s.committed = index;
                }
                Out::Merge(_)
                | Out::Record(_)
                | Out::Unrecord(_)
                | Out::Interval(_)
                | Out::RoundClosed => {}
            }
        }
    }

    /// `r` services at its point, then takes `event`.
    fn service(&self, s: &mut RcState, r: u32, event: impl FnOnce(&mut RankCr) -> Vec<Out>) {
        let p = &mut s.procs[r as usize];
        let Some(point) = self.point(p) else {
            return; // a finished rank: what reaches it is dropped
        };
        let outs = p.cr.service(point);
        self.carry(s, r, outs);
        let outs = event(&mut s.procs[r as usize].cr);
        self.carry(s, r, outs);
    }

    fn step_enabled(&self, r: usize, p: &Proc) -> bool {
        match &p.pc {
            // A held send services at once: a capture put off for the
            // receive before it is taken there.
            Pc::Send { .. } => !p.cr.held() || p.cr.deferred(),
            Pc::Recv { .. } => !p.queue.is_empty() || p.cr.deferred(),
            Pc::Safe { .. } => !p.cr.held() || p.cr.deferred(),
            // Rank 0 coordinates: its call waits for the commit either way.
            Pc::Call { before, .. } if self.late_claim && r > 0 => p.cr.last_index() > *before,
            Pc::Call { .. } => !p.cr.in_call(),
            Pc::Done => false,
        }
    }

    fn step(&self, s: &mut RcState, r: u32) {
        let pc = s.procs[r as usize].pc.clone();
        match pc {
            Pc::Send { .. } if s.procs[r as usize].cr.held() => {
                let outs = s.procs[r as usize].cr.service(Point::Busy);
                self.carry(s, r, outs);
            }
            Pc::Send { step, seg } => {
                let p = &mut s.procs[r as usize];
                let right = Rank(self.right(r));
                let suppressed = p.cr.suppress(right);
                if !suppressed {
                    p.cr.sent(right);
                }
                p.pc = Pc::Recv { step, seg };
                if !suppressed || self.resend {
                    let m = Wire::Data(self.id(step, seg));
                    chan::push(&mut s.data, r, right.0, m);
                }
            }
            Pc::Recv { step, seg } => {
                let p = &mut s.procs[r as usize];
                if p.queue.is_empty() {
                    // The look a put-off capture waited for: still blocked.
                    let outs = p.cr.recv_would_block();
                    return self.carry(s, r, outs);
                }
                let m = p.queue.remove(0);
                let want = self.id(step, seg);
                if m != want {
                    s.broken.get_or_insert(format!(
                        "rank {r} consumed message {m} where {want} belongs: delivered twice"
                    ));
                }
                p.consumed.push(m);
                if seg + 1 < self.segs {
                    p.pc = Pc::Safe { step, seg: seg + 1 };
                    return;
                }
                // `checkpoint()` with the next step as its state.
                p.cache = self.id(step + 1, 0);
                p.consumed.clear();
                p.cr.safepoint();
                let before = p.cr.last_index();
                p.pc = Pc::Call { step, before };
                let outs = p.cr.checkpoint_called();
                self.carry(s, r, outs);
                let outs = s.procs[r as usize].cr.service(Point::Safepoint);
                self.carry(s, r, outs);
            }
            Pc::Safe { .. } => self.leave_safepoint(s, r, true),
            Pc::Call { step, .. } if step + 1 < self.steps => {
                s.procs[r as usize].pc = Pc::Send {
                    step: step + 1,
                    seg: 0,
                };
            }
            Pc::Call { .. } => {
                let p = &mut s.procs[r as usize];
                p.pc = Pc::Done;
                let outs = p.cr.finish();
                self.carry(s, r, outs);
            }
            Pc::Done => {}
        }
    }

    /// Where a capture with the state in hand resumes: the exchange after
    /// the safepoint or `checkpoint()` call `pc` is at.
    fn here(&self, pc: &Pc) -> u32 {
        match *pc {
            Pc::Safe { step, seg } => self.id(step, seg),
            Pc::Call { step, .. } => self.id(step + 1, 0),
            _ => unreachable!("a live capture outside a safepoint: {pc:?}"),
        }
    }

    /// `r` services at its plain safepoint and, unless that holds it, goes
    /// on to its next exchange — having copied its state into the cache
    /// (`refresh`) or kept the older copy.
    fn leave_safepoint(&self, s: &mut RcState, r: u32, refresh: bool) {
        let outs = s.procs[r as usize].cr.service(Point::Safepoint);
        self.carry(s, r, outs);
        let p = &mut s.procs[r as usize];
        let Pc::Safe { step, seg } = p.pc else {
            unreachable!("left a safepoint it was not at")
        };
        if p.cr.held() {
            return;
        }
        if refresh {
            p.cache = self.id(step, seg);
            p.consumed.clear();
        }
        if refresh || self.reset_on_keep {
            p.cr.safepoint();
        }
        p.pc = Pc::Send { step, seg };
    }

    /// Every rank restores the last committed line.
    fn crash(&self, s: &mut RcState) {
        let line = s.committed;
        for r in 0..self.ranks {
            let mut p = self.fresh(r);
            if let Some(img) = s.images[r as usize].get(&line) {
                p.cr.restored(line, img.owed, &img.sent);
                p.cache = img.resume;
                p.queue = img.channel.clone();
                // A program restored mid-step calls its safepoint again.
                let (step, seg) = (img.resume / self.segs, img.resume % self.segs);
                p.pc = match seg {
                    _ if step >= self.steps => Pc::Done,
                    0 => Pc::Send { step, seg },
                    _ => Pc::Safe { step, seg },
                };
            }
            s.procs[r as usize] = p;
            s.images[r as usize].retain(|k, _| *k <= line);
        }
        s.ctrl.clear();
        s.data.clear();
        s.crashes_left -= 1;
    }

    /// The committed line is a consistent cut.
    fn cut(&self, s: &RcState) -> Result<(), String> {
        let line = s.committed;
        let img = |r: u32| s.images[r as usize].get(&line);
        for r in 0..self.ranks {
            let left = (r + self.ranks - 1) % self.ranks;
            let (Some(to), Some(from)) = (img(r), img(left)) else {
                return Err(format!("index {line} committed without rank {r}'s image"));
            };
            let sent = from.resume + from.sent.get(r as usize).copied().unwrap_or(0) as u32;
            let want: Vec<u32> = (to.resume..sent).collect();
            if let Some(again) = to.channel.strip_prefix(&want[..]).filter(|a| !a.is_empty()) {
                return Err(format!(
                    "index {line}: rank {r} holds {again:?}, which rank {left} restored \
                     from its image sends again: delivered twice"
                ));
            }
            if to.channel != want {
                return Err(format!(
                    "index {line}: link {left} → {r} is cut at {sent} sent, but rank {r} \
                     resumes at {} with channel {:?}",
                    to.resume, to.channel
                ));
            }
        }
        Ok(())
    }
}

impl Model for RankCrModel {
    type State = RcState;
    type Action = RcAction;

    fn init(&self) -> Vec<RcState> {
        vec![RcState {
            procs: (0..self.ranks).map(|r| self.fresh(r)).collect(),
            ctrl: Fifo::new(),
            data: Fifo::new(),
            images: vec![BTreeMap::new(); self.ranks as usize],
            committed: 0,
            crashes_left: self.crashes,
            broken: None,
        }]
    }

    fn actions(&self, s: &RcState) -> Vec<RcAction> {
        let mut acts = Vec::new();
        for (r, p) in s.procs.iter().enumerate() {
            if self.step_enabled(r, p) {
                acts.push(RcAction::Step(r as u32));
                if matches!(p.pc, Pc::Safe { .. }) {
                    acts.push(RcAction::Keep(r as u32));
                }
            }
        }
        let takes = |t: u32| {
            let p = &s.procs[t as usize];
            p.pc == Pc::Done || self.point(p).is_some()
        };
        for (f, t) in chan::heads(&s.ctrl) {
            if takes(t) {
                acts.push(RcAction::Ctrl(f, t));
            }
        }
        for (f, t) in chan::heads(&s.data) {
            let data = matches!(s.data[&(f, t)][0], Wire::Data(_));
            if data || takes(t) {
                acts.push(RcAction::Data(f, t));
            }
        }
        if s.crashes_left > 0 {
            acts.push(RcAction::Crash);
        }
        acts
    }

    fn next(&self, s: &RcState, a: &RcAction) -> RcState {
        let mut s = s.clone();
        match a {
            RcAction::Step(r) => self.step(&mut s, *r),
            RcAction::Keep(r) => self.leave_safepoint(&mut s, *r, false),
            RcAction::Ctrl(f, t) => {
                let msg = chan::pop(&mut s.ctrl, *f, *t).expect("enabled action");
                let from = Rank(*f);
                self.service(&mut s, *t, |cr| cr.relay(from, &msg, VirtualTime::ZERO));
            }
            RcAction::Data(f, t) => match chan::pop(&mut s.data, *f, *t) {
                Some(Wire::Data(m)) => s.procs[*t as usize].queue.push(m),
                Some(Wire::Mark(msg)) => {
                    self.service(&mut s, *t, |cr| cr.mark(Rank(*f), &msg, VirtualTime::ZERO))
                }
                _ => {}
            },
            RcAction::Crash => self.crash(&mut s),
        }
        s
    }

    fn check(&self, s: &RcState) -> Result<(), String> {
        if let Some(b) = &s.broken {
            return Err(b.clone());
        }
        if s.committed > 0 {
            self.cut(s)?;
        }
        Ok(())
    }

    fn accepting(&self, s: &RcState) -> bool {
        s.procs
            .iter()
            .all(|p| p.pc == Pc::Done && p.queue.is_empty())
            && chan::is_empty(&s.ctrl)
            && chan::is_empty(&s.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options, ViolationKind};

    #[test]
    fn a_ring_of_three_checkpoints_every_step_clean() {
        let r = explore(&RankCrModel::ring(3, 2, 1, 0), Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }

    #[test]
    fn a_crash_inside_a_segmented_step_restores_a_consistent_cut() {
        let r = explore(&RankCrModel::ring(3, 1, 2, 1), Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }

    /// Defect (i): without owed captures, a rank captured blocked before
    /// its call waits in that call for a round nobody will start.
    #[test]
    fn a_late_claim_wedges_the_ring() {
        let m = RankCrModel {
            late_claim: true,
            ..RankCrModel::ring(3, 2, 1, 0)
        };
        let v = explore(&m, Options::default()).violation.expect("caught");
        assert!(
            matches!(v.kind, ViolationKind::Deadlock | ViolationKind::Livelock),
            "{v:?}"
        );
    }

    /// Defect (ii): a rank restored from a blocked capture that sends again
    /// what its receiver holds delivers a message twice.
    #[test]
    fn a_resend_after_restore_is_delivered_twice() {
        let m = RankCrModel {
            resend: true,
            ..RankCrModel::ring(3, 2, 1, 1)
        };
        let v = explore(&m, Options::default()).violation.expect("caught");
        assert_eq!(v.kind, ViolationKind::Safety, "{v:?}");
        assert!(v.message.contains("delivered twice"), "{}", v.message);
    }

    /// Three exchanges a step put two plain safepoints inside it, each of
    /// which keeps or refreshes the cache: every line is a consistent cut.
    /// (`segs=2` above adds a crash.)
    #[test]
    fn kept_and_refreshed_safepoints_commit_consistent_cuts() {
        let r = explore(&RankCrModel::ring(3, 1, 3, 0), Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }

    /// Defect (iii): a safepoint that keeps the older copy but restarts the
    /// sent counts images too few sends; the restored rank sends again what
    /// its receiver holds.
    #[test]
    fn a_kept_safepoint_that_resets_sent_counts_is_delivered_twice() {
        let m = RankCrModel {
            reset_on_keep: true,
            ..RankCrModel::ring(3, 1, 2, 1)
        };
        let v = explore(&m, Options::default()).violation.expect("caught");
        assert_eq!(v.kind, ViolationKind::Safety, "{v:?}");
        assert!(v.message.contains("delivered twice"), "{}", v.message);
    }
}
