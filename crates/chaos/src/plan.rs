//! The `FaultPlan` DSL: a seeded, serializable description of one
//! adversarial schedule.
//!
//! A plan is the *whole* input of a scenario — the cluster shape, the
//! per-link packet faults armed at boot, and the timed events fired as the
//! driver steps. Everything else (traffic, checkpoint cadence, fault
//! decisions) derives from `seed` through [`DetRng`] streams, so a plan
//! replays bit-for-bit: same plan, same delivery trace, same oracle
//! verdict. That property is what lets a failing random schedule be
//! shrunk to a few lines and committed under `tests/regressions/`.
//!
//! Plans serialize to a line-oriented text format (stable, diffable,
//! hand-editable):
//!
//! ```text
//! starfish-fault-plan v1
//! seed 42
//! nodes 3
//! ranks 4
//! steps 40
//! ckpt-every 8
//! payload 16384
//! rendezvous 4096
//! chunk 1024
//! fault 0->1 seed=7 drop=0.1 dup=0.05 delay=120us@0.1 reorder=0.2
//! @12 partition 0 2
//! @20 heal 0 2
//! @15 corrupt rank=1 index=2
//! ```

use std::fmt;

use starfish_util::rng::DetRng;
use starfish_util::VirtualTime;
use starfish_vni::LinkFault;

/// One directed link's armed packet faults (maps onto
/// [`starfish_vni::Fabric::set_link_fault`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultSpec {
    /// Source node index (into the plan's `nodes`).
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Seed of the link's decision streams.
    pub(crate) seed: u64,
    pub drop_p: f64,
    pub(crate) dup_p: f64,
    pub(crate) delay_p: f64,
    /// Extra virtual latency applied on a delay decision, microseconds.
    pub(crate) delay_us: u64,
    pub(crate) reorder_p: f64,
}

impl LinkFaultSpec {
    /// The fabric-level fault this spec arms.
    pub fn to_fault(&self) -> LinkFault {
        LinkFault::seeded(self.seed)
            .drop(self.drop_p)
            .duplicate(self.dup_p)
            .delay(self.delay_p, VirtualTime::from_micros(self.delay_us))
            .reorder(self.reorder_p)
    }
}

/// A timed action fired when the driver reaches its step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Fail-stop crash (fabric event emitted — perfect detector path).
    Crash(u32),
    /// Silent crash: ports close, no event; only heartbeats can tell.
    SilentCrash(u32),
    /// Cut the link between two nodes (both directions).
    Partition(u32, u32),
    /// Undo a partition.
    Heal(u32, u32),
    /// Restart a crashed node's daemon under the same identity.
    Restart(u32),
    /// Mark one rank's checkpoint image torn/corrupt on stable storage.
    Corrupt { rank: u32, index: u64 },
}

/// An [`Event`] scheduled at a driver step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    pub step: u32,
    pub event: Event,
}

/// A complete scenario description; see the module docs for the format.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed: drives traffic choices and, via derivation, everything
    /// the plan itself does not pin.
    pub seed: u64,
    /// Cluster size. Rank `r` lives on node `r % nodes`.
    pub nodes: u32,
    /// MPI world size.
    pub ranks: u32,
    /// Driver steps (each rank sends one message per step).
    pub steps: u32,
    /// Coordinated checkpoint cadence in steps; 0 disables checkpoints.
    pub ckpt_every: u32,
    /// Run the MPI endpoints with the reliability layer *disabled* (raw
    /// datagram semantics: drops are permanent, dups are delivered). Used by
    /// the `verify` crate's model-checker bridge to demonstrate, on the real
    /// driver, the exactly-once violations the checker derives for the
    /// flow-control-free protocol.
    pub unreliable: bool,
    /// Traffic payload size in bytes (≥ 8: the first 8 carry the id). The
    /// default 8-byte payload keeps legacy plans eager end to end.
    pub payload: u32,
    /// Per-endpoint rendezvous threshold override; `None` leaves the
    /// build default (effectively eager-only at chaos payload sizes).
    pub rndv_threshold: Option<u32>,
    /// Per-endpoint rendezvous DATA chunk size override; `None` keeps the
    /// build default (one chunk per transfer at chaos payload sizes).
    /// Shrinking it below `payload` splits every rendezvous transfer into a
    /// pipelined chunk train, so the armed link faults hit *individual*
    /// DATA chunks and the oracles judge the reassembly.
    pub rndv_chunk: Option<u32>,
    /// Diskless checkpointing: route images through the in-memory replica
    /// store with `k` copies per fragment instead of the stable disk store.
    /// `None` keeps the legacy disk path.
    pub replica_k: Option<u8>,
    /// Modeled failure-detector configuration `(interval, timeout)` in
    /// microseconds of virtual time. When set, the driver models heartbeat
    /// detection of the plan's first crash and reports the detection
    /// latency in [`crate::driver::ScenarioReport::detect_ns`]; the modeled
    /// latency is bounded by `timeout + 2 * interval`. `None` leaves the
    /// detector out of the forensic model (fail-stop semantics only).
    pub heartbeat: Option<(u64, u64)>,
    /// Collective-traffic mode: instead of the point-to-point traffic
    /// pattern, every step runs one instance of the named collective (e.g.
    /// `allreduce-ring`, `allgather-ring`) across all ranks, with the armed
    /// link faults hitting the algorithm's ring/doubling exchanges. `None`
    /// keeps the classic point-to-point traffic. The name is a single
    /// token; the ring-collective fault bank interprets it.
    pub collective: Option<String>,
    /// Per-link packet faults, armed before the first step.
    pub faults: Vec<LinkFaultSpec>,
    /// Timed events, fired when the driver reaches `step` (plan order
    /// within a step).
    pub events: Vec<TimedEvent>,
}

const HEADER: &str = "starfish-fault-plan v1";

impl FaultPlan {
    /// Generate a random-but-reproducible plan for the MPI scenario family:
    /// everything is drawn from `seed`, so the same seed always yields the
    /// same plan. Events are restricted to the recoverable set the MPI
    /// driver exercises (partition/heal and image corruption); probability
    /// mass is kept moderate so scenarios terminate.
    pub fn generate(seed: u64) -> FaultPlan {
        let mut rng = DetRng::new(seed).derive(PLAN_STREAM);
        let nodes = 2 + rng.below(3) as u32; // 2..=4
        let ranks = 2 + rng.below(5) as u32; // 2..=6
        let steps = 20 + rng.below(41) as u32; // 20..=60
        let ckpt_every = [0u32, 5, 8, 10][rng.below(4) as usize];

        // Arm faults on a few random directed inter-node links.
        let mut faults = Vec::new();
        let n_faults = rng.below(4); // 0..=3 faulty links
        for _ in 0..n_faults {
            let src = rng.below(nodes as u64) as u32;
            let mut dst = rng.below(nodes as u64) as u32;
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            if faults
                .iter()
                .any(|f: &LinkFaultSpec| f.src == src && f.dst == dst)
            {
                continue;
            }
            faults.push(LinkFaultSpec {
                src,
                dst,
                seed: rng.below(1 << 32),
                drop_p: rng.below(25) as f64 / 100.0,  // 0..0.24
                dup_p: rng.below(20) as f64 / 100.0,   // 0..0.19
                delay_p: rng.below(30) as f64 / 100.0, // 0..0.29
                delay_us: 10 + rng.below(500),         // 10..509 µs
                reorder_p: rng.below(30) as f64 / 100.0, // 0..0.29
            });
        }

        // Timed events: paired partition/heal windows plus image
        // corruption. Windows are kept short so the reliability layer has
        // send opportunities on both sides.
        let mut events = Vec::new();
        let n_parts = rng.below(3); // 0..=2 partition windows
        for _ in 0..n_parts {
            if nodes < 2 {
                break;
            }
            let a = rng.below(nodes as u64) as u32;
            let mut b = rng.below(nodes as u64) as u32;
            if b == a {
                b = (b + 1) % nodes;
            }
            let at = rng.below(steps as u64 / 2) as u32;
            let dur = 1 + rng.below(steps as u64 / 4) as u32;
            events.push(TimedEvent {
                step: at,
                event: Event::Partition(a, b),
            });
            events.push(TimedEvent {
                step: at + dur,
                event: Event::Heal(a, b),
            });
        }
        if let Some(rounds) = steps.checked_div(ckpt_every).map(u64::from) {
            let n_corrupt = rng.below(3); // 0..=2 torn images
            for _ in 0..n_corrupt {
                if rounds == 0 {
                    break;
                }
                let index = 1 + rng.below(rounds);
                let rank = rng.below(ranks as u64) as u32;
                // Fire strictly after the image exists.
                let step = ((index as u32) * ckpt_every).min(steps - 1);
                events.push(TimedEvent {
                    step,
                    event: Event::Corrupt { rank, index },
                });
            }
        }
        events.sort_by_key(|e| e.step);

        FaultPlan {
            seed,
            nodes,
            ranks,
            steps,
            ckpt_every,
            unreliable: false,
            payload: 8,
            rndv_threshold: None,
            rndv_chunk: None,
            replica_k: None,
            heartbeat: None,
            collective: None,
            faults,
            events,
        }
    }

    /// Events due at `step`, in plan order.
    pub(crate) fn events_at(&self, step: u32) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter().filter(move |e| e.step == step)
    }

    /// Parse the text format produced by [`fmt::Display`].
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some(h) if h == HEADER => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut plan = FaultPlan {
            seed: 0,
            nodes: 0,
            ranks: 0,
            steps: 0,
            ckpt_every: 0,
            unreliable: false,
            payload: 8,
            rndv_threshold: None,
            rndv_chunk: None,
            replica_k: None,
            heartbeat: None,
            collective: None,
            faults: Vec::new(),
            events: Vec::new(),
        };
        for line in lines {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().unwrap_or("");
            let rest: Vec<&str> = parts.collect();
            let scalar = |rest: &[&str]| -> Result<u64, String> {
                rest.first()
                    .ok_or_else(|| format!("missing value: {line}"))?
                    .parse()
                    .map_err(|e| format!("{line}: {e}"))
            };
            match key {
                "seed" => plan.seed = scalar(&rest)?,
                "nodes" => plan.nodes = scalar(&rest)? as u32,
                "ranks" => plan.ranks = scalar(&rest)? as u32,
                "steps" => plan.steps = scalar(&rest)? as u32,
                "ckpt-every" => plan.ckpt_every = scalar(&rest)? as u32,
                "unreliable" => plan.unreliable = true,
                "payload" => plan.payload = scalar(&rest)? as u32,
                "rendezvous" => plan.rndv_threshold = Some(scalar(&rest)? as u32),
                "chunk" => {
                    let c = scalar(&rest)?;
                    if c == 0 || c > u32::MAX as u64 {
                        return Err(format!("chunk size out of range: {line}"));
                    }
                    plan.rndv_chunk = Some(c as u32);
                }
                "replica" => {
                    let k = scalar(&rest)?;
                    if k == 0 || k > u8::MAX as u64 {
                        return Err(format!("replica k out of range: {line}"));
                    }
                    plan.replica_k = Some(k as u8);
                }
                "heartbeat" => {
                    let interval = scalar(&rest)?;
                    let timeout = rest
                        .get(1)
                        .ok_or_else(|| format!("heartbeat needs <interval> <timeout>: {line}"))?
                        .parse::<u64>()
                        .map_err(|e| format!("{line}: {e}"))?;
                    if interval == 0 || timeout < interval {
                        return Err(format!(
                            "heartbeat needs interval > 0 and timeout >= interval: {line}"
                        ));
                    }
                    plan.heartbeat = Some((interval, timeout));
                }
                "collective" => {
                    let name = rest
                        .first()
                        .ok_or_else(|| format!("collective needs a name: {line}"))?;
                    plan.collective = Some((*name).to_string());
                }
                "fault" => plan.faults.push(parse_fault(line, &rest)?),
                k if k.starts_with('@') => {
                    let step: u32 = k[1..].parse().map_err(|e| format!("{line}: {e}"))?;
                    plan.events.push(TimedEvent {
                        step,
                        event: parse_event(line, &rest)?,
                    });
                }
                other => return Err(format!("unknown directive {other:?} in {line:?}")),
            }
        }
        if plan.nodes == 0 || plan.ranks == 0 {
            return Err("plan must declare nodes and ranks".into());
        }
        Ok(plan)
    }
}

fn parse_fault(line: &str, rest: &[&str]) -> Result<LinkFaultSpec, String> {
    let link = rest.first().ok_or_else(|| format!("bare fault: {line}"))?;
    let (src, dst) = link
        .split_once("->")
        .ok_or_else(|| format!("fault link must be src->dst: {line}"))?;
    let mut spec = LinkFaultSpec {
        src: src.parse().map_err(|e| format!("{line}: {e}"))?,
        dst: dst.parse().map_err(|e| format!("{line}: {e}"))?,
        seed: 0,
        drop_p: 0.0,
        dup_p: 0.0,
        delay_p: 0.0,
        delay_us: 0,
        reorder_p: 0.0,
    };
    for kv in &rest[1..] {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("fault attribute must be k=v: {kv}"))?;
        let fp = |v: &str| v.parse::<f64>().map_err(|e| format!("{kv}: {e}"));
        match k {
            "seed" => spec.seed = v.parse().map_err(|e| format!("{kv}: {e}"))?,
            "drop" => spec.drop_p = fp(v)?,
            "dup" => spec.dup_p = fp(v)?,
            "reorder" => spec.reorder_p = fp(v)?,
            "delay" => {
                // "120us@0.1": latency @ probability.
                let (us, p) = v
                    .split_once('@')
                    .ok_or_else(|| format!("delay must be <N>us@<p>: {kv}"))?;
                let us = us
                    .strip_suffix("us")
                    .ok_or_else(|| format!("delay must be <N>us@<p>: {kv}"))?;
                spec.delay_us = us.parse().map_err(|e| format!("{kv}: {e}"))?;
                spec.delay_p = fp(p)?;
            }
            other => return Err(format!("unknown fault attribute {other:?}")),
        }
    }
    Ok(spec)
}

fn parse_event(line: &str, rest: &[&str]) -> Result<Event, String> {
    let u = |s: &&str| -> Result<u32, String> { s.parse().map_err(|e| format!("{line}: {e}")) };
    match rest {
        ["crash", n] => Ok(Event::Crash(u(n)?)),
        ["silent-crash", n] => Ok(Event::SilentCrash(u(n)?)),
        ["restart", n] => Ok(Event::Restart(u(n)?)),
        ["partition", a, b] => Ok(Event::Partition(u(a)?, u(b)?)),
        ["heal", a, b] => Ok(Event::Heal(u(a)?, u(b)?)),
        ["corrupt", attrs @ ..] => {
            let (mut rank, mut index) = (None, None);
            for kv in attrs {
                match kv.split_once('=') {
                    Some(("rank", v)) => rank = v.parse().ok(),
                    Some(("index", v)) => index = v.parse().ok(),
                    _ => return Err(format!("bad corrupt attribute {kv:?}")),
                }
            }
            match (rank, index) {
                (Some(rank), Some(index)) => Ok(Event::Corrupt { rank, index }),
                _ => Err(format!("corrupt needs rank= and index=: {line}")),
            }
        }
        _ => Err(format!("unknown event: {line}")),
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{HEADER}")?;
        writeln!(f, "seed {}", self.seed)?;
        writeln!(f, "nodes {}", self.nodes)?;
        writeln!(f, "ranks {}", self.ranks)?;
        writeln!(f, "steps {}", self.steps)?;
        writeln!(f, "ckpt-every {}", self.ckpt_every)?;
        if self.unreliable {
            writeln!(f, "unreliable")?;
        }
        if self.payload != 8 {
            writeln!(f, "payload {}", self.payload)?;
        }
        if let Some(t) = self.rndv_threshold {
            writeln!(f, "rendezvous {t}")?;
        }
        if let Some(c) = self.rndv_chunk {
            writeln!(f, "chunk {c}")?;
        }
        if let Some(k) = self.replica_k {
            writeln!(f, "replica {k}")?;
        }
        if let Some((interval, timeout)) = self.heartbeat {
            writeln!(f, "heartbeat {interval} {timeout}")?;
        }
        if let Some(c) = &self.collective {
            writeln!(f, "collective {c}")?;
        }
        for s in &self.faults {
            writeln!(
                f,
                "fault {}->{} seed={} drop={} dup={} delay={}us@{} reorder={}",
                s.src, s.dst, s.seed, s.drop_p, s.dup_p, s.delay_us, s.delay_p, s.reorder_p
            )?;
        }
        for e in &self.events {
            match e.event {
                Event::Crash(n) => writeln!(f, "@{} crash {}", e.step, n)?,
                Event::SilentCrash(n) => writeln!(f, "@{} silent-crash {}", e.step, n)?,
                Event::Restart(n) => writeln!(f, "@{} restart {}", e.step, n)?,
                Event::Partition(a, b) => writeln!(f, "@{} partition {} {}", e.step, a, b)?,
                Event::Heal(a, b) => writeln!(f, "@{} heal {} {}", e.step, a, b)?,
                Event::Corrupt { rank, index } => {
                    writeln!(f, "@{} corrupt rank={} index={}", e.step, rank, index)?
                }
            }
        }
        Ok(())
    }
}

/// Stream tag separating plan generation from the driver's traffic stream.
const PLAN_STREAM: u64 = 0x504C_414E; // "PLAN"

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(FaultPlan::generate(seed), FaultPlan::generate(seed));
        }
        assert_ne!(FaultPlan::generate(1), FaultPlan::generate(2));
    }

    #[test]
    fn display_parse_roundtrip() {
        for seed in 0..50 {
            let plan = FaultPlan::generate(seed);
            let text = plan.to_string();
            let back = FaultPlan::parse(&text).unwrap();
            assert_eq!(plan, back, "roundtrip diverged for seed {seed}:\n{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("starfish-fault-plan v2\nseed 1").is_err());
        assert!(FaultPlan::parse("starfish-fault-plan v1\nwat 3").is_err());
        assert!(FaultPlan::parse("starfish-fault-plan v1\nseed 1").is_err()); // no shape
    }

    #[test]
    fn unreliable_directive_roundtrips() {
        let text = "starfish-fault-plan v1\nseed 1\nnodes 2\nranks 2\nsteps 6\nckpt-every 0\nunreliable\nfault 0->1 seed=1 drop=1 dup=0 delay=0us@0 reorder=0\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert!(plan.unreliable);
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        // Absent directive defaults to the reliable endpoint configuration.
        assert!(!FaultPlan::generate(3).unreliable);
    }

    #[test]
    fn payload_and_rendezvous_directives_roundtrip() {
        let text = "starfish-fault-plan v1\nseed 2\nnodes 2\nranks 3\nsteps 8\nckpt-every 4\npayload 16384\nrendezvous 4096\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.payload, 16384);
        assert_eq!(plan.rndv_threshold, Some(4096));
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        // Absent directives keep legacy plans eager with id-only payloads.
        let legacy = FaultPlan::generate(5);
        assert_eq!(legacy.payload, 8);
        assert_eq!(legacy.rndv_threshold, None);
        assert_eq!(legacy.rndv_chunk, None);
    }

    #[test]
    fn chunk_directive_roundtrips_and_validates() {
        let text = "starfish-fault-plan v1\nseed 3\nnodes 2\nranks 2\nsteps 8\nckpt-every 0\npayload 16384\nrendezvous 4096\nchunk 1024\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.rndv_chunk, Some(1024));
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        // A zero chunk size would make no forward progress: rejected.
        let bad = text.replace("chunk 1024", "chunk 0");
        assert!(FaultPlan::parse(&bad).is_err());
    }

    #[test]
    fn replica_directive_roundtrips_and_validates() {
        let text = "starfish-fault-plan v1\nseed 4\nnodes 4\nranks 4\nsteps 12\nckpt-every 4\nreplica 2\n@6 crash 1\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.replica_k, Some(2));
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        // k=0 is meaningless (no copies) and rejected at parse time.
        let bad = text.replace("replica 2", "replica 0");
        assert!(FaultPlan::parse(&bad).is_err());
        // Absent directive keeps the legacy disk store.
        assert_eq!(FaultPlan::generate(6).replica_k, None);
    }

    #[test]
    fn heartbeat_directive_roundtrips_and_validates() {
        let text = "starfish-fault-plan v1\nseed 5\nnodes 3\nranks 3\nsteps 16\nckpt-every 4\nreplica 2\nheartbeat 200 800\n@9 silent-crash 1\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.heartbeat, Some((200, 800)));
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        // A zero interval or a timeout shorter than the interval cannot
        // model a detector: rejected at parse time.
        assert!(FaultPlan::parse(&text.replace("heartbeat 200 800", "heartbeat 0 800")).is_err());
        assert!(FaultPlan::parse(&text.replace("heartbeat 200 800", "heartbeat 200 100")).is_err());
        assert!(FaultPlan::parse(&text.replace("heartbeat 200 800", "heartbeat 200")).is_err());
        // Absent directive keeps fail-stop-only forensic semantics.
        assert_eq!(FaultPlan::generate(8).heartbeat, None);
    }

    #[test]
    fn collective_directive_roundtrips_and_validates() {
        let text = "starfish-fault-plan v1\nseed 7\nnodes 3\nranks 3\nsteps 10\nckpt-every 0\ncollective allreduce-ring\nfault 0->1 seed=9 drop=0.2 dup=0.1 delay=0us@0 reorder=0.2\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.collective.as_deref(), Some("allreduce-ring"));
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
        // A bare directive names nothing to run: rejected.
        assert!(
            FaultPlan::parse(&text.replace("collective allreduce-ring", "collective")).is_err()
        );
        // Absent directive keeps point-to-point traffic.
        assert_eq!(FaultPlan::generate(9).collective, None);
    }

    #[test]
    fn parse_accepts_comments_and_blank_lines() {
        let text = "starfish-fault-plan v1\n\n# adversarial schedule\nseed 9\nnodes 2\nranks 2\nsteps 10\nckpt-every 0\n@3 partition 0 1\n@5 heal 0 1\n";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[0].event, Event::Partition(0, 1));
    }

    #[test]
    fn generated_events_reference_declared_shape() {
        for seed in 0..100 {
            let p = FaultPlan::generate(seed);
            for f in &p.faults {
                assert!(f.src < p.nodes && f.dst < p.nodes && f.src != f.dst);
            }
            for e in &p.events {
                assert!(e.step < p.steps + p.steps / 4 + 2);
                match e.event {
                    Event::Partition(a, b) | Event::Heal(a, b) => {
                        assert!(a < p.nodes && b < p.nodes && a != b)
                    }
                    Event::Corrupt { rank, .. } => assert!(rank < p.ranks),
                    Event::Crash(n) | Event::SilentCrash(n) | Event::Restart(n) => {
                        assert!(n < p.nodes)
                    }
                }
            }
        }
    }
}
