//! One rank's checkpoint/restart service loop as a pure machine (paper §2.2,
//! §3.1). A [`RankCr`] holds the protocol engine and every decision a rank
//! takes around it: whether the application is held for a round, when its
//! image is taken and of what, which `checkpoint()` call a capture belongs
//! to, which sends a restored incarnation suppresses, which marks wait for
//! an unbound port, when the rank leaves its code to roll back. Events are
//! method calls that answer with [`Out`]s, in the order they must happen;
//! the per-message hooks ([`RankCr::suppress`], [`RankCr::sent`],
//! [`RankCr::consumed`], [`RankCr::safepoint`]) allocate nothing. Payloads —
//! the state of the cached safepoint, the bytes consumed since, the
//! image, the clock — stay in the shell (`starfish`'s `ProcessRuntime`);
//! the `verify` crate composes *n* of these values over FIFO links.
//!
//! **The cut of a blocked rank.** A rank captured inside a communication
//! call has no state in hand: its image is the state of its cached
//! safepoint, the messages consumed since (replayed on restore), and how
//! many messages it sent to each peer since — which the restored
//! incarnation suppresses, because everything a rank sent before it stopped
//! precedes its flush mark and so is held by the receiver. The cached
//! safepoint is the last one at which the shell copied the state
//! ([`RankCr::safepoint`]): at or after the last `checkpoint()` call, not
//! necessarily the last safepoint. Such a capture comes *before* the
//! `checkpoint()` call it pairs with: it is **owed** to that call, which
//! claims it and returns at once instead of waiting for a round nobody will
//! start. Images record the owed count, so a restored rank claims alike.
// lint: sans-io

use starfish_util::{Epoch, Rank, VirtualTime};

use super::chandy_lamport::{ChandyLamport, ClPhase};
use super::independent::Independent;
use super::stop_and_sync::{Phase, StopAndSync};
use super::{CkptProto, CrEffect, CrMsg};
use crate::recovery::MsgDep;

/// The protocol engine a rank runs.
#[derive(Debug, Clone)]
enum Engine {
    Sync(StopAndSync),
    Cl(ChandyLamport),
    Indep(Independent),
}

/// Where the rank is when it services: what a capture taken there can use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// A safepoint or a `checkpoint()` call: the application state in hand.
    Safepoint,
    /// Inside a blocking receive.
    InRecv,
    /// Anywhere else inside a communication call.
    Busy,
}

/// What a local checkpoint is taken of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capture {
    /// The state in hand; nothing consumed or sent since.
    Live,
    /// The state of the cached safepoint, plus the messages consumed since
    /// (the shell's log) and `sent[p]` messages to each peer since.
    Cached { sent: Vec<u64> },
}

/// What the machine asks its shell to do, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Out {
    /// Merge a peer's virtual time into the rank's clock.
    Merge(VirtualTime),
    /// Relay a C/R message through the daemons: to one rank, or (`None`)
    /// to every other rank.
    Up {
        to: Option<Rank>,
        msg: CrMsg,
    },
    /// Put a mark on the data path, after every parked rendezvous payload.
    /// `at`: a retry, stamped with the original attempt's time.
    Mark {
        to: Rank,
        msg: CrMsg,
        at: Option<VirtualTime>,
    },
    /// Take local checkpoint `index`; the image carries `owed` (the
    /// captures no `checkpoint()` call has claimed yet, when non-zero).
    Capture {
        index: u64,
        kind: Capture,
        owed: u64,
    },
    /// Write the image captured for `index`, its channel state being the
    /// replay log followed by the recorded channels (`recorded`) or by the
    /// unconsumed receive queue. Answer with [`RankCr::written`].
    Write {
        index: u64,
        recorded: bool,
    },
    /// Start / stop recording the channel from a peer (Chandy–Lamport).
    Record(Rank),
    Unrecord(Rank),
    /// Piggyback this checkpoint interval on data messages (independent).
    Interval(u64),
    /// This rank's view of the round ends ([`RankCr::take_round_start`]).
    RoundClosed,
    /// The round `index` this rank coordinated committed, after taking in
    /// `saveds` members' `Saved`s.
    Committed {
        index: u64,
        saveds: u32,
    },
}

/// One rank's checkpoint/restart state.
#[derive(Debug, Clone)]
pub struct RankCr {
    proto: CkptProto,
    me: Rank,
    size: u32,
    engine: Engine,
    /// Where the current service point is.
    point: Point,
    /// Stop-and-sync: a round has the application held.
    stopped: bool,
    /// A `checkpoint()` call is waiting: for its commit (coordinator) or
    /// for its own image (everyone else).
    call: bool,
    /// Captures taken outside a `checkpoint()` call that no call has
    /// claimed yet.
    owed: u64,
    /// Highest checkpoint index written locally.
    last_index: u64,
    /// Rounds committed (coordinator only).
    committed: u64,
    /// Chandy–Lamport: the snapshot whose image waits for the markers.
    pending_cl: Option<u64>,
    /// A stop-and-sync capture that came due inside a blocking receive,
    /// put off until that receive completes or would block again.
    deferred: Option<u64>,
    /// Marks whose destination was not reachable, with their send time.
    pending_marks: Vec<(Rank, CrMsg, VirtualTime)>,
    /// Latest `Saved` time relayed this round, merged when it commits.
    saved_vt: Option<VirtualTime>,
    /// Latest flush mark or marker time this round, merged once every mark
    /// is in: before a stop-and-sync capture, before a Chandy–Lamport
    /// write (its snapshot, on the first marker, is at the rank's own
    /// time). In whatever order the marks and the daemons' relays arrive,
    /// the round's stamps are then the same.
    marks_vt: Option<VirtualTime>,
    /// `Saved`s relayed this round: what the commit takes in.
    saveds: u32,
    /// When this rank's current round began (its first image write).
    round_started: Option<VirtualTime>,
    /// Messages sent to each peer since the cached safepoint, suppressed
    /// ones included.
    sent: Vec<u64>,
    /// Sends to each peer since the cached safepoint that a restored
    /// incarnation's receivers already hold: suppressed while
    /// `sent[p] < skip[p]`.
    skip: Vec<u64>,
    /// Rollback ordered: the index to reload, and the epoch to enter.
    rewind: Option<(u64, Option<Epoch>)>,
    suspended: bool,
    killed: bool,
}

impl RankCr {
    /// A rank of `size` running `proto`; `restore_from > 0` starts it by
    /// reloading that checkpoint.
    pub fn new(proto: CkptProto, me: Rank, size: u32, restore_from: u64) -> Self {
        let mut cr = Self::at(proto, me, size, restore_from);
        cr.rewind = (restore_from > 0).then_some((restore_from, None));
        cr
    }

    fn at(proto: CkptProto, me: Rank, size: u32, index: u64) -> Self {
        let ranks: Vec<Rank> = (0..size).map(Rank).collect();
        let engine = match proto {
            CkptProto::StopAndSync => Engine::Sync(StopAndSync::new(me, ranks)),
            CkptProto::ChandyLamport => Engine::Cl(ChandyLamport::new(me, ranks)),
            CkptProto::Independent => {
                let mut e = Independent::new(me);
                e.rollback_to(index);
                Engine::Indep(e)
            }
        };
        RankCr {
            proto,
            me,
            size,
            engine,
            point: Point::Busy,
            stopped: false,
            call: false,
            owed: 0,
            last_index: index,
            committed: 0,
            pending_cl: None,
            deferred: None,
            pending_marks: Vec::new(),
            saved_vt: None,
            marks_vt: None,
            saveds: 0,
            round_started: None,
            sent: vec![0; size as usize],
            skip: Vec::new(),
            rewind: None,
            suspended: false,
            killed: false,
        }
    }

    /// The shell reloaded checkpoint `index` (0: started fresh) whose image
    /// owed `owed` captures and had sent `sent[p]` messages to each peer
    /// since its safepoint: start over from there.
    pub fn restored(&mut self, index: u64, owed: u64, sent: &[u64]) {
        *self = Self::at(self.proto, self.me, self.size, index);
        self.owed = owed;
        self.skip = sent.to_vec();
    }

    // ---- queries ---------------------------------------------------------------

    /// A round has the application stopped: sends wait.
    pub fn held(&self) -> bool {
        self.stopped
    }

    pub fn suspended(&self) -> bool {
        self.suspended
    }

    pub fn killed(&self) -> bool {
        self.killed
    }

    /// A `checkpoint()` call is still waiting.
    pub fn in_call(&self) -> bool {
        self.call
    }

    /// A capture is put off for a look at the receive it came due in.
    pub fn deferred(&self) -> bool {
        self.deferred.is_some()
    }

    /// A rollback is ordered and not taken yet.
    pub fn rewinding(&self) -> bool {
        self.rewind.is_some()
    }

    pub fn last_index(&self) -> u64 {
        self.last_index
    }

    /// The ordered rollback, once: the index to reload and the epoch to
    /// enter (none for a first incarnation's restore).
    pub fn take_rewind(&mut self) -> Option<(u64, Option<Epoch>)> {
        self.rewind.take()
    }

    /// When the round that just closed began, once.
    pub fn take_round_start(&mut self) -> Option<VirtualTime> {
        self.round_started.take()
    }

    /// Does this rank open the rounds of its protocol?
    fn coordinates(&self) -> bool {
        match &self.engine {
            Engine::Sync(e) => e.is_coordinator(),
            Engine::Cl(e) => e.is_initiator(),
            Engine::Indep(_) => false,
        }
    }

    // ---- per-message hooks -------------------------------------------------------

    /// The application is about to send to `to`: true if the send must be
    /// suppressed — a restored incarnation re-executing a send its
    /// receiver already holds. A suppressed send counts as sent.
    pub fn suppress(&mut self, to: Rank) -> bool {
        let p = to.0 as usize;
        let held = self.skip.get(p).copied().unwrap_or(0);
        match self.sent.get_mut(p) {
            Some(n) if *n < held => {
                *n += 1;
                true
            }
            _ => false,
        }
    }

    /// A send to `to` left.
    pub fn sent(&mut self, to: Rank) {
        if let Some(n) = self.sent.get_mut(to.0 as usize) {
            *n += 1;
        }
    }

    /// The application consumed a message of `from` sent in its checkpoint
    /// interval `interval`: the dependency to log, under the independent
    /// protocol.
    pub fn consumed(&self, from: Rank, interval: u64) -> Option<MsgDep> {
        match &self.engine {
            Engine::Indep(e) => Some(e.on_data_received(from, interval)),
            _ => None,
        }
    }

    /// The shell cached the application's state (at a `checkpoint()` call,
    /// or a safepoint where the copy is due): a Cached capture starts from
    /// here. A safepoint that keeps the older copy must not call this — the
    /// counts go on from the cached one. Sends still to suppress stay so — a
    /// restored program typically calls again the safepoint its image was
    /// cached at before re-executing its sends.
    pub fn safepoint(&mut self) {
        for (skip, sent) in self.skip.iter_mut().zip(&self.sent) {
            *skip = skip.saturating_sub(*sent);
        }
        self.sent.fill(0);
    }

    /// A mark could not be sent (its destination is not bound yet): keep
    /// it for the next service point, stamped `at`.
    pub fn mark_failed(&mut self, to: Rank, msg: CrMsg, at: VirtualTime) {
        self.pending_marks.push((to, msg, at));
    }

    // ---- events ------------------------------------------------------------------

    /// A service point begins at `point`: take a capture put off for a
    /// receive that has since completed, and retry the marks that failed.
    pub fn service(&mut self, point: Point) -> Vec<Out> {
        self.point = point;
        let mut out = Vec::new();
        if let Some(index) = self.deferred.take() {
            self.capture(index, &mut out);
        }
        let retry = self.pending_marks.drain(..);
        out.extend(retry.map(|(to, msg, at)| Out::Mark {
            to,
            msg,
            at: Some(at),
        }));
        out
    }

    /// A C/R message relayed by the daemons, handled at `vt`: its origin
    /// stamp, its path and its dispatch, whatever the daemons relayed
    /// first. A rank takes the times it waits on, where the protocol waits:
    /// a peer's `Saved` (stamped after that peer's image write) when the
    /// round commits, never before its own capture; a `Resume` on arrival.
    /// A `Stop`'s is not taken: no capture happens before the coordinator's
    /// flush mark, which carries its stop time exactly on the data path.
    pub fn relay(&mut self, from: Rank, msg: &CrMsg, vt: VirtualTime) -> Vec<Out> {
        let mut out = Vec::new();
        match msg {
            CrMsg::Saved { .. } => {
                self.saved_vt = self.saved_vt.max(Some(vt));
                self.saveds += 1;
            }
            CrMsg::Stop { .. } => {}
            _ => out.push(Out::Merge(vt)),
        }
        let effects = match &mut self.engine {
            Engine::Sync(e) => e.on_msg(from, msg),
            Engine::Cl(e) => e.on_msg(from, msg),
            Engine::Indep(_) => Vec::new(),
        };
        self.apply(effects, &mut out);
        out
    }

    /// A flush mark or marker from `from` on the data path, arrived at `vt`.
    pub fn mark(&mut self, from: Rank, msg: &CrMsg, vt: VirtualTime) -> Vec<Out> {
        self.marks_vt = self.marks_vt.max(Some(vt));
        let effects = match (&mut self.engine, msg) {
            (Engine::Sync(e), CrMsg::FlushMark { index }) => e.on_flush_mark(from, *index),
            (Engine::Cl(e), CrMsg::Marker { index }) => e.on_marker(from, *index),
            _ => Vec::new(),
        };
        let mut out = Vec::new();
        self.apply(effects, &mut out);
        out
    }

    /// The daemon orders a round: the coordinator opens one unless one is
    /// open; an independent rank checkpoints; anyone else ignores it.
    pub fn start_round(&mut self) -> Vec<Out> {
        let mut out = Vec::new();
        let effects = self.open_round();
        self.apply(effects, &mut out);
        out
    }

    fn open_round(&mut self) -> Vec<CrEffect> {
        let next = self.last_index + 1;
        match &mut self.engine {
            Engine::Sync(e) if e.is_coordinator() && e.phase() == Phase::Running => e.start(next),
            Engine::Cl(e) if e.is_initiator() && e.phase() == ClPhase::Idle => e.start(next),
            Engine::Indep(e) => e.take_checkpoint(),
            _ => Vec::new(),
        }
    }

    /// The application calls `checkpoint()` with its state in hand (the
    /// shell called [`safepoint`](Self::safepoint) first). The coordinator
    /// opens a round and the call waits for its commit (joining one already
    /// open); an independent rank checkpoints. A member claims a capture
    /// owed to this call, or waits for its image of the next round.
    pub fn checkpoint_called(&mut self) -> Vec<Out> {
        self.point = Point::Safepoint;
        let mut out = Vec::new();
        if self.coordinates() || matches!(self.engine, Engine::Indep(_)) {
            self.call = true;
            let effects = self.open_round();
            self.apply(effects, &mut out);
        } else if self.owed > 0 {
            self.owed -= 1;
        } else {
            self.call = true;
        }
        out
    }

    /// The receive a capture was put off for would block: the rank really
    /// is blocked, so the capture is taken of the cached state now.
    pub fn recv_would_block(&mut self) -> Vec<Out> {
        let mut out = Vec::new();
        if let Some(index) = self.deferred.take() {
            self.capture(index, &mut out);
        }
        out
    }

    /// The shell wrote image `index`, whose capture began at `taken_at`.
    pub fn written(&mut self, index: u64, taken_at: VirtualTime) -> Vec<Out> {
        self.last_index = index;
        self.round_started.get_or_insert(taken_at);
        if !self.coordinates() {
            self.call = false;
        }
        let mut out = Vec::new();
        let effects = match &mut self.engine {
            Engine::Sync(e) => e.on_saved(index),
            Engine::Indep(e) => {
                out.push(Out::Interval(e.current_interval()));
                Vec::new()
            }
            // The markers carried the news; nothing waits for the write.
            Engine::Cl(_) => Vec::new(),
        };
        self.apply(effects, &mut out);
        out
    }

    /// The application returned: no service point is left to take a
    /// capture put off for its last receive, and a member never hears the
    /// `Resume` of a round it finished with.
    pub fn finish(&mut self) -> Vec<Out> {
        let mut out = Vec::new();
        if let Some(index) = self.deferred.take() {
            self.point = Point::Busy;
            self.capture(index, &mut out);
        }
        out.push(Out::RoundClosed);
        out
    }

    pub fn suspend(&mut self) {
        self.suspended = true;
    }

    pub fn resume(&mut self) {
        self.suspended = false;
    }

    /// The daemon orders a rollback to `index` in `epoch`: the application
    /// code is left, and re-entered from that checkpoint.
    pub fn rollback(&mut self, index: u64, epoch: Epoch) {
        self.rewind = Some((index, Some(epoch)));
    }

    /// Killed, or the daemon is gone: the rank exits.
    pub fn kill(&mut self) {
        self.killed = true;
    }

    // ---- the engine's effects -------------------------------------------------------

    fn apply(&mut self, effects: Vec<CrEffect>, out: &mut Vec<Out>) {
        let commits = effects
            .iter()
            .any(|e| matches!(e, CrEffect::Committed { .. }));
        if let Some(t) = self.saved_vt.filter(|_| commits) {
            self.saved_vt = None;
            out.push(Out::Merge(t)); // before the Resume broadcast is stamped
        }
        for effect in effects {
            match effect {
                CrEffect::Send { to, msg } => out.push(Out::Up { to: Some(to), msg }),
                CrEffect::Broadcast { msg } => out.push(Out::Up { to: None, msg }),
                CrEffect::DataMark { to, msg } => out.push(Out::Mark { to, msg, at: None }),
                CrEffect::BeginQuiesce { .. } => self.stopped = true,
                CrEffect::TakeCheckpoint { index } => self.take(index, out),
                CrEffect::RecordChannel { from } => out.push(Out::Record(from)),
                CrEffect::StopRecord { from } => out.push(Out::Unrecord(from)),
                CrEffect::Resume { .. } => {
                    self.stopped = false;
                    out.push(Out::RoundClosed);
                }
                CrEffect::Committed { index } => {
                    self.committed += 1;
                    self.call = false;
                    let saveds = std::mem::take(&mut self.saveds);
                    out.push(Out::Committed { index, saveds });
                }
            }
        }
        // Chandy–Lamport: the image is complete once all markers are in.
        let cl_done = matches!(
            &self.engine,
            Engine::Cl(e) if matches!(e.phase(), ClPhase::Complete | ClPhase::Idle)
        );
        if let Some(index) = self.pending_cl.filter(|_| cl_done) {
            self.pending_cl = None;
            out.extend(self.marks_vt.take().map(Out::Merge));
            out.push(Out::Write {
                index,
                recorded: true,
            });
        }
    }

    /// Every flush mark is in, so everything the peers sent before they
    /// stopped has arrived. If that completes the receive we are inside of,
    /// the rank is not blocked — the Stop overtook the data on its way round
    /// the daemons — so the capture waits for the receive to have a look.
    fn take(&mut self, index: u64, out: &mut Vec<Out>) {
        if self.point == Point::InRecv && matches!(self.engine, Engine::Sync(_)) {
            self.deferred = Some(index);
        } else {
            self.capture(index, out);
        }
    }

    fn capture(&mut self, index: u64, out: &mut Vec<Out>) {
        let claims = !self.coordinates() && !matches!(self.engine, Engine::Indep(_));
        if claims && !self.call {
            self.owed += 1;
        }
        let kind = match self.point {
            Point::Safepoint => Capture::Live,
            // What the receivers hold: our sends, or — a restored rank that
            // has not re-executed them all yet — what its image had sent.
            Point::InRecv | Point::Busy => Capture::Cached {
                sent: (self.sent.iter().enumerate())
                    .map(|(p, n)| (*n).max(self.skip.get(p).copied().unwrap_or(0)))
                    .collect(),
            },
        };
        if !matches!(self.engine, Engine::Cl(_)) {
            out.extend(self.marks_vt.take().map(Out::Merge));
        }
        out.push(Out::Capture {
            index,
            kind,
            owed: self.owed,
        });
        match self.engine {
            // State snapshot now; the image when the markers are in.
            Engine::Cl(_) => self.pending_cl = Some(index),
            _ => out.push(Out::Write {
                index,
                recorded: false,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: VirtualTime = VirtualTime::ZERO;

    /// `n` stop-and-sync ranks wired back to back: daemon relays and data
    /// marks are queues, image writes complete at once (the shell's part,
    /// played here), and every answer is recorded per rank.
    struct Net {
        ranks: Vec<RankCr>,
        /// `(from, to, msg)` relayed by the daemons, in order.
        ctrl: Vec<(Rank, Rank, CrMsg)>,
        /// `(from, to, msg)` on the data path, in order.
        marks: Vec<(Rank, Rank, CrMsg)>,
        /// Every capture taken: `(rank, index, kind, owed)`.
        captures: Vec<(u32, u64, Capture, u64)>,
        /// Ranks whose mark sends fail (port not bound yet).
        unbound: Vec<Rank>,
        merges: Vec<(u32, VirtualTime)>,
        commits: Vec<u64>,
    }

    impl Net {
        fn new(n: u32) -> Net {
            let ranks = (0..n)
                .map(|r| RankCr::new(CkptProto::StopAndSync, Rank(r), n, 0))
                .collect();
            Net {
                ranks,
                ctrl: Vec::new(),
                marks: Vec::new(),
                captures: Vec::new(),
                unbound: Vec::new(),
                merges: Vec::new(),
                commits: Vec::new(),
            }
        }

        fn carry(&mut self, r: u32, outs: Vec<Out>) {
            for out in outs {
                match out {
                    Out::Merge(t) => self.merges.push((r, t)),
                    Out::Up { to: Some(to), msg } => self.ctrl.push((Rank(r), to, msg)),
                    Out::Up { to: None, msg } => {
                        for p in (0..self.ranks.len() as u32).filter(|p| *p != r) {
                            self.ctrl.push((Rank(r), Rank(p), msg.clone()));
                        }
                    }
                    Out::Mark { to, msg, .. } if self.unbound.contains(&to) => {
                        self.ranks[r as usize].mark_failed(to, msg, T0)
                    }
                    Out::Mark { to, msg, .. } => self.marks.push((Rank(r), to, msg)),
                    Out::Capture { index, kind, owed } => {
                        self.captures.push((r, index, kind, owed))
                    }
                    Out::Write { index, .. } => {
                        let outs = self.ranks[r as usize].written(index, T0);
                        self.carry(r, outs);
                    }
                    Out::Committed { index, .. } => self.commits.push(index),
                    Out::Record(_) | Out::Unrecord(_) | Out::Interval(_) | Out::RoundClosed => {}
                }
            }
        }

        /// Rank `r` services at `point`, then runs `event`.
        fn at(&mut self, r: u32, point: Point, event: impl FnOnce(&mut RankCr) -> Vec<Out>) {
            let outs = self.ranks[r as usize].service(point);
            self.carry(r, outs);
            let outs = event(&mut self.ranks[r as usize]);
            self.carry(r, outs);
        }

        /// Deliver every relayed message and mark, in order, each at the
        /// point its receiver is at.
        fn settle(&mut self, points: &[Point]) {
            while !self.ctrl.is_empty() || !self.marks.is_empty() {
                for (from, to, msg) in std::mem::take(&mut self.marks) {
                    self.at(to.0, points[to.0 as usize], |cr| cr.mark(from, &msg, T0));
                }
                for (from, to, msg) in std::mem::take(&mut self.ctrl) {
                    self.at(to.0, points[to.0 as usize], |cr| cr.relay(from, &msg, T0));
                }
            }
        }
    }

    fn cached(sent: &[u64]) -> Capture {
        Capture::Cached {
            sent: sent.to_vec(),
        }
    }

    /// A member at a safepoint is captured live; one blocked in a receive
    /// (sender stopped first) of the state of its cached safepoint,
    /// with what it sent since — and that capture is owed to its next call.
    #[test]
    fn live_and_cached_captures() {
        let mut net = Net::new(3);
        net.ranks[2].safepoint();
        assert!(!net.ranks[2].suppress(Rank(0)));
        net.ranks[2].sent(Rank(0));
        net.at(0, Point::Safepoint, RankCr::checkpoint_called);
        let points = [Point::Safepoint, Point::Safepoint, Point::Busy];
        net.settle(&points);
        net.captures.sort_by_key(|c| c.0);
        assert_eq!(
            net.captures,
            vec![
                (0, 1, Capture::Live, 0),
                (1, 1, Capture::Live, 1),
                (2, 1, cached(&[1, 0, 0]), 1),
            ]
        );
        assert_eq!(net.commits, vec![1]);
        assert!(!net.ranks[0].in_call() && !net.ranks[0].held());
        // Rank 1 was captured at a safepoint outside a call: also owed.
        assert_eq!((net.ranks[1].owed, net.ranks[2].owed), (1, 1));
    }

    /// Defect (i): a member captured while blocked before its
    /// `checkpoint()` call returns from that call at once — it does not
    /// wait for a round nobody will start — and a second call waits.
    #[test]
    fn an_owed_capture_is_claimed_by_the_next_call() {
        let mut net = Net::new(2);
        net.at(0, Point::Safepoint, RankCr::checkpoint_called);
        net.settle(&[Point::Safepoint, Point::Busy]);
        assert_eq!(net.commits, vec![1]);
        let member = &mut net.ranks[1];
        assert_eq!(member.last_index(), 1);
        assert!(member.checkpoint_called().is_empty());
        assert!(!member.in_call(), "the call claims round 1");
        member.checkpoint_called();
        assert!(member.in_call(), "the next call waits for round 2");
        // Round 2 reaches it inside that call: live, and not owed.
        net.at(0, Point::Safepoint, RankCr::checkpoint_called);
        net.settle(&[Point::Safepoint, Point::Safepoint]);
        assert_eq!(net.captures.last(), Some(&(0, 2, Capture::Live, 0)));
        assert!(net.captures.contains(&(1, 2, Capture::Live, 0)));
        assert!(!net.ranks[1].in_call());
    }

    /// Defect (ii): a rank restored from a Cached image suppresses exactly
    /// the sends its image recorded, per peer, then sends again; and if it
    /// is captured again before its next safepoint, the image still owes
    /// what it has not re-sent.
    #[test]
    fn a_restored_rank_suppresses_what_its_image_sent() {
        let mut cr = RankCr::new(CkptProto::StopAndSync, Rank(1), 3, 0);
        cr.restored(4, 1, &[2, 0, 1]);
        assert_eq!((cr.last_index(), cr.owed), (4, 1));
        assert!(cr.suppress(Rank(0)) && cr.suppress(Rank(2)));
        let mut again = cr.clone();
        assert!(cr.suppress(Rank(0)));
        assert!(!cr.suppress(Rank(0)), "the third send to rank 0 is new");
        assert!(!cr.suppress(Rank(2)), "so is the second to rank 2");
        assert!(!cr.suppress(Rank(1)), "nothing was owed to rank 1");
        // Captured again, blocked, before re-sending its second message to
        // rank 0: the receivers still hold both.
        again.service(Point::Busy);
        again.mark(Rank(0), &CrMsg::FlushMark { index: 5 }, T0);
        let outs = again.mark(Rank(2), &CrMsg::FlushMark { index: 5 }, T0);
        assert!(outs.contains(&Out::Capture {
            index: 5,
            kind: cached(&[2, 0, 1]),
            owed: 2
        }));
        // A safepoint after the re-executed sends ends the suppression ...
        cr.safepoint();
        assert!(!cr.suppress(Rank(0)) && !cr.suppress(Rank(2)));
        // ... one before them (the program calling again the safepoint its
        // image was cached at) does not.
        let mut cr = RankCr::new(CkptProto::StopAndSync, Rank(1), 3, 0);
        cr.restored(4, 0, &[1, 0, 0]);
        cr.safepoint();
        assert!(cr.suppress(Rank(0)) && !cr.suppress(Rank(0)));
    }

    /// The capture that comes due inside a receive is put off for one
    /// look: taken live at the next safepoint if the receive completed,
    /// of the cached state if it would block.
    #[test]
    fn the_capture_due_inside_a_receive_is_deferred() {
        for completes in [true, false] {
            let mut cr = RankCr::new(CkptProto::StopAndSync, Rank(1), 2, 0);
            cr.service(Point::InRecv);
            cr.relay(Rank(0), &CrMsg::Stop { index: 1 }, T0);
            let at = VirtualTime::from_millis(3);
            let outs = cr.mark(Rank(0), &CrMsg::FlushMark { index: 1 }, at);
            assert!(!outs.iter().any(|o| matches!(o, Out::Capture { .. })));
            assert!(cr.deferred() && cr.held());
            let outs = if completes {
                cr.safepoint();
                cr.checkpoint_called();
                cr.service(Point::Safepoint)
            } else {
                cr.recv_would_block()
            };
            let kind = if completes {
                Capture::Live
            } else {
                cached(&[0, 0])
            };
            let owed = u64::from(!completes);
            assert_eq!(
                &outs[..3],
                &[
                    Out::Merge(at),
                    Out::Capture {
                        index: 1,
                        kind,
                        owed
                    },
                    Out::Write {
                        index: 1,
                        recorded: false
                    }
                ]
            );
            assert!(!cr.deferred());
        }
    }

    /// A member's flush marks are merged at its capture, once all are in:
    /// in either order of arrival, and whether the `Stop` or a mark opened
    /// its round, it sends its marks and captures at the same times.
    #[test]
    fn mark_times_merge_at_the_capture_in_either_order() {
        let (a, b) = (VirtualTime::from_millis(4), VirtualTime::from_millis(9));
        let run = |first: (u32, VirtualTime), second: (u32, VirtualTime), stop_first: bool| {
            let mut cr = RankCr::new(CkptProto::StopAndSync, Rank(1), 3, 0);
            cr.checkpoint_called();
            let mut outs = Vec::new();
            let stop = CrMsg::Stop { index: 1 };
            if stop_first {
                outs.extend(cr.relay(Rank(0), &stop, T0));
            }
            for (from, at) in [first, second] {
                outs.extend(cr.mark(Rank(from), &CrMsg::FlushMark { index: 1 }, at));
            }
            if !stop_first {
                outs.extend(cr.relay(Rank(0), &stop, T0));
            }
            outs.retain(|o| matches!(o, Out::Merge(_) | Out::Capture { .. }));
            outs
        };
        let want = run((0, a), (2, b), true);
        assert!(matches!(want[..], [Out::Merge(t), Out::Capture { .. }] if t == b));
        assert_eq!(run((2, b), (0, a), true), want);
        assert_eq!(run((0, a), (2, b), false), want);
        assert_eq!(run((2, b), (0, a), false), want);
    }

    /// The application returning takes a capture still put off.
    #[test]
    fn finish_takes_a_deferred_capture() {
        let mut cr = RankCr::new(CkptProto::StopAndSync, Rank(1), 2, 0);
        cr.service(Point::InRecv);
        cr.mark(Rank(0), &CrMsg::FlushMark { index: 1 }, T0);
        let outs = cr.finish();
        assert_eq!(outs[0], Out::Merge(T0));
        assert!(matches!(outs[1], Out::Capture { index: 1, .. }));
        assert_eq!(outs.last(), Some(&Out::RoundClosed));
    }

    /// A mark to a port not bound yet is kept and sent again, with its
    /// original time, at the next service point.
    #[test]
    fn a_mark_to_an_unbound_port_is_retried() {
        let mut net = Net::new(2);
        net.unbound.push(Rank(1));
        net.at(0, Point::Safepoint, RankCr::checkpoint_called);
        assert!(net.marks.is_empty());
        let retry = net.ranks[0].service(Point::Safepoint);
        assert_eq!(
            retry,
            vec![Out::Mark {
                to: Rank(1),
                msg: CrMsg::FlushMark { index: 1 },
                at: Some(T0)
            }]
        );
        net.unbound.clear();
        net.carry(0, retry);
        net.settle(&[Point::Safepoint, Point::Safepoint]);
        assert_eq!(net.commits, vec![1]);
    }

    #[test]
    fn suspend_resume_kill_and_rollback() {
        let mut cr = RankCr::new(CkptProto::StopAndSync, Rank(1), 2, 0);
        assert!(!cr.rewinding() && cr.take_rewind().is_none());
        cr.suspend();
        assert!(cr.suspended());
        cr.resume();
        assert!(!cr.suspended());
        cr.rollback(3, Epoch(2));
        assert!(cr.rewinding());
        assert_eq!(cr.take_rewind(), Some((3, Some(Epoch(2)))));
        assert!(!cr.killed());
        cr.kill();
        assert!(cr.killed());
        // A first incarnation spawned to restore starts by rewinding.
        let mut cr = RankCr::new(CkptProto::Independent, Rank(0), 1, 7);
        assert_eq!(cr.take_rewind(), Some((7, None)));
    }

    /// A restore resets everything a round left behind.
    #[test]
    fn a_restore_resets_the_round() {
        let mut cr = RankCr::new(CkptProto::StopAndSync, Rank(1), 2, 0);
        cr.service(Point::InRecv);
        cr.relay(Rank(0), &CrMsg::Stop { index: 1 }, T0);
        cr.mark_failed(Rank(0), CrMsg::FlushMark { index: 1 }, T0);
        cr.suspend();
        assert!(cr.held());
        cr.restored(0, 0, &[]);
        assert!(!cr.held() && !cr.suspended() && !cr.deferred());
        assert!(cr.service(Point::Busy).is_empty(), "no mark left to retry");
        assert!(!cr.suppress(Rank(0)));
        // The engine is fresh: a Stop for index 1 opens a round again.
        let outs = cr.relay(Rank(0), &CrMsg::Stop { index: 1 }, T0);
        assert!(outs.iter().any(|o| matches!(o, Out::Mark { .. })));
    }

    /// A peer's `Saved` time is merged when the round commits, before the
    /// Resume is broadcast — never into the clock the coordinator's own
    /// capture and write are stamped with.
    #[test]
    fn saved_times_merge_at_commit() {
        let mut net = Net::new(2);
        net.at(0, Point::Safepoint, RankCr::checkpoint_called);
        let t = VirtualTime::from_millis(90);
        let saved = CrMsg::Saved {
            rank: Rank(1),
            index: 1,
        };
        // The Saved is serviced before rank 1's flush mark.
        let outs = net.ranks[0].relay(Rank(1), &saved, t);
        assert!(outs.is_empty(), "{outs:?}");
        let at = VirtualTime::from_millis(2);
        let outs = net.ranks[0].mark(Rank(1), &CrMsg::FlushMark { index: 1 }, at);
        let capture = Out::Capture {
            index: 1,
            kind: Capture::Live,
            owed: 0,
        };
        assert_eq!(&outs[..2], &[Out::Merge(at), capture]);
        let outs = net.ranks[0].written(1, T0);
        let resume = Out::Up {
            to: None,
            msg: CrMsg::Resume { index: 1 },
        };
        assert_eq!(&outs[..2], &[Out::Merge(t), resume]);
        let commit = Out::Committed {
            index: 1,
            saveds: 1,
        };
        assert_eq!(outs.last(), Some(&commit));
        // A Resume is merged on arrival; a Stop's time comes with the
        // coordinator's flush mark instead.
        let outs = net.ranks[1].relay(Rank(0), &CrMsg::Stop { index: 1 }, t);
        assert!(!outs.contains(&Out::Merge(t)), "{outs:?}");
        let outs = net.ranks[1].relay(Rank(0), &CrMsg::Resume { index: 1 }, t);
        assert_eq!(outs[0], Out::Merge(t));
    }

    /// Independent ranks checkpoint on their own; every call is its own.
    #[test]
    fn independent_calls_checkpoint_locally() {
        let mut cr = RankCr::new(CkptProto::Independent, Rank(1), 2, 0);
        let outs = cr.checkpoint_called();
        assert!(cr.in_call());
        assert_eq!(
            outs,
            vec![
                Out::Capture {
                    index: 1,
                    kind: Capture::Live,
                    owed: 0
                },
                Out::Write {
                    index: 1,
                    recorded: false
                }
            ]
        );
        assert_eq!(cr.written(1, T0), vec![Out::Interval(1)]);
        assert!(!cr.in_call());
        let dep = cr.consumed(Rank(0), 3).expect("a dependency");
        assert_eq!((dep.send_interval, dep.recv_interval), (3, 1));
    }

    /// Chandy–Lamport: the snapshot is taken at the first marker and the
    /// image written once every marker is in.
    #[test]
    fn chandy_lamport_writes_when_the_markers_are_in() {
        let mut cr = RankCr::new(CkptProto::ChandyLamport, Rank(1), 3, 0);
        cr.service(Point::Safepoint);
        let outs = cr.mark(Rank(0), &CrMsg::Marker { index: 1 }, T0);
        assert!(outs.contains(&Out::Capture {
            index: 1,
            kind: Capture::Live,
            owed: 1
        }));
        assert!(outs.contains(&Out::Record(Rank(2))));
        assert!(!outs.iter().any(|o| matches!(o, Out::Write { .. })));
        let outs = cr.mark(Rank(2), &CrMsg::Marker { index: 1 }, T0);
        assert!(outs.contains(&Out::Write {
            index: 1,
            recorded: true
        }));
    }
}
