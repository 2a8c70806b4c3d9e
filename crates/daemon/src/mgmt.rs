//! The ASCII management/user protocol (paper §3.1.1).
//!
//! "Managing the cluster is done by opening a TCP connection to one of the
//! daemons, on which an ASCII based protocol is used. ... The management
//! protocol starts with a login session, in which the client side has to
//! authenticate itself as an administrator ... A similar protocol ... is
//! used between clients and any of the cluster nodes in order to submit
//! applications ... identified as a user session, and is thus limited to
//! submitting, suspending, resuming, and deleting applications. (A user can
//! only suspend, resume, and delete its own applications.)"
//!
//! A [`MgmtSession`] wraps one such connection: feed it request lines, get
//! response lines (`OK ...` / `ERR ...`). The paper's Java GUI is a pure
//! presentation layer over exactly this protocol and is intentionally not
//! reproduced.

use std::collections::BTreeMap;
use std::time::Duration;

use starfish_util::{AppId, NodeId};

#[cfg(test)]
use crate::config::AppStatus;
use crate::config::{AppSpec, CfgNodeStatus, CkptProto, FtPolicy, LevelKind};
use crate::daemon::Daemon;
use crate::msg::CfgCmd;
use starfish_checkpoint::backend::CkptBackend;
use starfish_events::{EventCursor, Poll};
use starfish_trace::TraceCursor;

/// Default administrator password; override with `SET admin_password <pw>`.
pub const DEFAULT_ADMIN_PASSWORD: &str = "starfish";

/// One usage line per command, served by `HELP`. `starfish-lint` checks
/// this table against the dispatch below in both directions: every command
/// arm must have an entry, every entry must have an arm.
pub const COMMAND_USAGE: &[(&str, &str)] = &[
    ("HELP", "HELP — list commands"),
    ("LOGIN", "LOGIN ADMIN <password> | LOGIN USER <name>"),
    ("LOGOUT", "LOGOUT — end the session"),
    (
        "ADDNODE",
        "ADDNODE <id> [arch] — admin: add a node to the cluster",
    ),
    ("REMOVENODE", "REMOVENODE <id> — admin: remove a node"),
    (
        "DISABLE",
        "DISABLE <id> — admin: stop scheduling onto a node",
    ),
    (
        "ENABLE",
        "ENABLE <id> — admin: resume scheduling onto a node",
    ),
    ("SET", "SET <key> <value> — admin: set a cluster parameter"),
    (
        "SUBMIT",
        "SUBMIT <name> <size> [POLICY restart|view|kill] [LEVEL native|vm] [PROTO sync|cl|indep] [STORE disk|replica:<k>]",
    ),
    ("SUSPEND", "SUSPEND <app> — pause an application you own"),
    ("RESUME", "RESUME <app> — resume a suspended application"),
    ("DELETE", "DELETE <app> — remove an application"),
    (
        "CHECKPOINT",
        "CHECKPOINT <app> — trigger a coordinated checkpoint",
    ),
    (
        "CKPT",
        "CKPT STATUS <app> — per-rank fragment placement and replication health",
    ),
    (
        "MIGRATE",
        "MIGRATE <app> <rank> <node> — admin: move a rank (cold)",
    ),
    ("NODES", "NODES — list nodes and their status"),
    (
        "STATS",
        "STATS | STATS SUBSCRIBE <interval_ms> | STATS HISTORY [n] — merged cluster telemetry",
    ),
    (
        "HEALTH",
        "HEALTH — per-node liveness (announce state, heartbeat age) plus key health metrics",
    ),
    ("TIMELINE", "TIMELINE <app> — per-rank event timeline"),
    (
        "TRACE",
        "TRACE SCOPES | TRACE DUMP [scope] | TRACE TAIL <n> [scope] | TRACE PATH <app> | TRACE FOLLOW <scope>",
    ),
    (
        "EVENTS",
        "EVENTS [TAIL <n>] | EVENTS SUBSCRIBE [filter] — cluster event bus",
    ),
    (
        "POSTMORTEM",
        "POSTMORTEM <app> — recovery forensics bundle (JSON)",
    ),
    ("APPS", "APPS — list applications (alias: STATUS)"),
    ("STATUS", "STATUS — list applications (alias: APPS)"),
];

#[derive(Debug, Clone, PartialEq, Eq)]
enum Role {
    Admin,
    User(String),
}

/// The streaming state a `SUBSCRIBE`/`FOLLOW` command arms on a session.
/// One subscription per session; a new one replaces the old.
enum Subscription {
    Events {
        cursor: EventCursor,
        /// Substring match against the event label (e.g. "recovery").
        filter: Option<String>,
    },
    Stats {
        interval_ms: u64,
        last_emit: Option<std::time::Instant>,
    },
    Trace {
        scope: String,
        cursor: TraceCursor,
    },
}

/// One management or user session against a daemon.
pub struct MgmtSession {
    daemon: Daemon,
    role: Option<Role>,
    /// Token source for submissions (deterministic per session).
    next_token: u64,
    subscription: Option<Subscription>,
}

impl MgmtSession {
    /// Open a session against any daemon of the cluster. `session_seed`
    /// disambiguates submission tokens between concurrent sessions.
    pub fn connect(daemon: Daemon, session_seed: u64) -> Self {
        MgmtSession {
            daemon,
            role: None,
            next_token: session_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            subscription: None,
        }
    }

    /// Whether a `SUBSCRIBE`/`FOLLOW` is armed on this session.
    pub fn subscribed(&self) -> bool {
        self.subscription.is_some()
    }

    /// Drop the active subscription (client disconnected or issued a new
    /// command that replaces it).
    pub fn unsubscribe(&mut self) {
        self.subscription = None;
    }

    /// Drain the push frames the active subscription owes the client. The
    /// serving loop calls this between request lines (and on a timer for
    /// `STATS SUBSCRIBE`); with no subscription armed it returns nothing.
    pub fn poll_frames(&mut self) -> Vec<String> {
        let mut frames = Vec::new();
        match &mut self.subscription {
            None => {}
            Some(Subscription::Events { cursor, filter }) => {
                let Poll { events, missed } = cursor.poll();
                if missed > 0 {
                    frames.push(format!("EVENT! missed {missed}"));
                }
                for ev in events {
                    if let Some(f) = filter {
                        if !ev.kind.label().contains(f.as_str()) {
                            continue;
                        }
                    }
                    frames.push(format!("EVENT {}", ev.summary()));
                }
            }
            Some(Subscription::Stats {
                interval_ms,
                last_emit,
            }) => {
                let due = match (*interval_ms, &*last_emit) {
                    (0, _) => true,
                    (_, None) => true,
                    (ms, Some(t)) => t.elapsed() >= Duration::from_millis(ms),
                };
                if due {
                    *last_emit = Some(std::time::Instant::now());
                    let snap = self.daemon.stats().merged();
                    let mut f = String::from("STATS");
                    for line in starfish_telemetry::render_stats(&snap).lines() {
                        f.push('\n');
                        f.push_str(line);
                    }
                    frames.push(f);
                }
            }
            Some(Subscription::Trace { scope, cursor }) => {
                if let Some(r) = self.daemon.trace_hub().get(scope) {
                    let (events, missed) = r.poll(cursor);
                    if missed > 0 {
                        frames.push(format!("TRACE! missed {missed}"));
                    }
                    for ev in events {
                        frames.push(format!("TRACE {scope} {}", ev.summary()));
                    }
                }
            }
        }
        frames
    }

    fn is_admin(&self) -> bool {
        self.role == Some(Role::Admin)
    }

    fn user(&self) -> Option<&str> {
        match &self.role {
            Some(Role::User(u)) => Some(u),
            Some(Role::Admin) => Some("admin"),
            None => None,
        }
    }

    fn may_touch(&self, app_owner: &str) -> bool {
        match &self.role {
            Some(Role::Admin) => true,
            Some(Role::User(u)) => u == app_owner,
            None => false,
        }
    }

    fn parse_app_id(tok: &str) -> Result<AppId, String> {
        tok.trim_start_matches("app")
            .parse::<u32>()
            .map(AppId)
            .map_err(|_| format!("ERR bad application id {tok:?}"))
    }

    fn parse_node_id(tok: &str) -> Result<NodeId, String> {
        tok.trim_start_matches('n')
            .parse::<u32>()
            .map(NodeId)
            .map_err(|_| format!("ERR bad node id {tok:?}"))
    }

    /// Process one request line; returns the response line(s).
    pub fn handle_line(&mut self, line: &str) -> String {
        match self.try_handle(line) {
            Ok(resp) => resp,
            Err(e) => e,
        }
    }

    fn require_admin(&self) -> Result<(), String> {
        if self.is_admin() {
            Ok(())
        } else {
            Err("ERR admin privileges required".into())
        }
    }

    fn require_login(&self) -> Result<(), String> {
        if self.role.is_some() {
            Ok(())
        } else {
            Err("ERR login required".into())
        }
    }

    fn try_handle(&mut self, line: &str) -> Result<String, String> {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let Some(cmd) = toks.first() else {
            return Ok(String::new());
        };
        match cmd.to_ascii_uppercase().as_str() {
            "LOGIN" => match toks.get(1).map(|s| s.to_ascii_uppercase()).as_deref() {
                Some("ADMIN") => {
                    let pw = toks.get(2).copied().unwrap_or("");
                    let expected = self
                        .daemon
                        .config()
                        .params
                        .get("admin_password")
                        .cloned()
                        .unwrap_or_else(|| DEFAULT_ADMIN_PASSWORD.to_string());
                    if pw == expected {
                        self.role = Some(Role::Admin);
                        Ok("OK management connection".into())
                    } else {
                        Err("ERR authentication failed".into())
                    }
                }
                Some("USER") => {
                    let name = toks
                        .get(2)
                        .ok_or_else(|| "ERR usage: LOGIN USER <name>".to_string())?;
                    self.role = Some(Role::User(name.to_string()));
                    Ok("OK user session".into())
                }
                _ => Err("ERR usage: LOGIN ADMIN <password> | LOGIN USER <name>".into()),
            },
            "LOGOUT" => {
                self.role = None;
                Ok("OK bye".into())
            }
            "ADDNODE" => {
                self.require_admin()?;
                let node =
                    Self::parse_node_id(toks.get(1).ok_or("ERR usage: ADDNODE <id> [arch]")?)?;
                let arch: u8 = toks.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);
                self.daemon
                    .issue(CfgCmd::AddNode {
                        node,
                        arch_index: arch,
                    })
                    .map_err(|e| format!("ERR {e}"))?;
                Ok(format!("OK node {node} added"))
            }
            "REMOVENODE" => {
                self.require_admin()?;
                let node = Self::parse_node_id(toks.get(1).ok_or("ERR usage: REMOVENODE <id>")?)?;
                self.daemon
                    .issue(CfgCmd::RemoveNode { node })
                    .map_err(|e| format!("ERR {e}"))?;
                Ok(format!("OK node {node} removed"))
            }
            "DISABLE" => {
                self.require_admin()?;
                let node = Self::parse_node_id(toks.get(1).ok_or("ERR usage: DISABLE <id>")?)?;
                self.daemon
                    .issue(CfgCmd::DisableNode { node })
                    .map_err(|e| format!("ERR {e}"))?;
                Ok(format!("OK node {node} disabled"))
            }
            "ENABLE" => {
                self.require_admin()?;
                let node = Self::parse_node_id(toks.get(1).ok_or("ERR usage: ENABLE <id>")?)?;
                self.daemon
                    .issue(CfgCmd::EnableNode { node })
                    .map_err(|e| format!("ERR {e}"))?;
                Ok(format!("OK node {node} enabled"))
            }
            "SET" => {
                self.require_admin()?;
                let key = toks.get(1).ok_or("ERR usage: SET <key> <value>")?;
                let value = toks.get(2).ok_or("ERR usage: SET <key> <value>")?;
                self.daemon
                    .issue(CfgCmd::SetParam {
                        key: key.to_string(),
                        value: value.to_string(),
                    })
                    .map_err(|e| format!("ERR {e}"))?;
                Ok(format!("OK {key}={value}"))
            }
            "SUBMIT" => {
                self.require_login()?;
                let name = toks.get(1).ok_or(
                    "ERR usage: SUBMIT <name> <size> [POLICY restart|view|kill] [LEVEL native|vm] [PROTO sync|cl|indep] [STORE disk|replica:<k>]",
                )?;
                let size: u32 = toks
                    .get(2)
                    .and_then(|s| s.parse().ok())
                    .ok_or("ERR bad size")?;
                let mut policy = FtPolicy::Restart;
                let mut level = LevelKind::Vm;
                let mut proto = CkptProto::StopAndSync;
                let mut backend = CkptBackend::Disk;
                let mut i = 3;
                while i + 1 < toks.len() + 1 {
                    match toks.get(i).map(|s| s.to_ascii_uppercase()).as_deref() {
                        Some("POLICY") => {
                            policy =
                                match toks.get(i + 1).map(|s| s.to_ascii_lowercase()).as_deref() {
                                    Some("restart") => FtPolicy::Restart,
                                    Some("view") => FtPolicy::NotifyView,
                                    Some("kill") => FtPolicy::Kill,
                                    _ => return Err("ERR bad POLICY".into()),
                                };
                            i += 2;
                        }
                        Some("LEVEL") => {
                            level = match toks.get(i + 1).map(|s| s.to_ascii_lowercase()).as_deref()
                            {
                                Some("native") => LevelKind::Native,
                                Some("vm") => LevelKind::Vm,
                                _ => return Err("ERR bad LEVEL".into()),
                            };
                            i += 2;
                        }
                        Some("PROTO") => {
                            proto = match toks.get(i + 1).map(|s| s.to_ascii_lowercase()).as_deref()
                            {
                                Some("sync") => CkptProto::StopAndSync,
                                Some("cl") => CkptProto::ChandyLamport,
                                Some("indep") => CkptProto::Independent,
                                _ => return Err("ERR bad PROTO".into()),
                            };
                            i += 2;
                        }
                        Some("STORE") => {
                            backend = toks
                                .get(i + 1)
                                .and_then(|s| CkptBackend::parse(s))
                                .ok_or("ERR bad STORE (disk|replica|replica:<k>)")?;
                            i += 2;
                        }
                        Some(_) => return Err(format!("ERR unknown option {:?}", toks[i])),
                        None => break,
                    }
                }
                let token = self.next_token;
                self.next_token = self.next_token.wrapping_add(0x9E37_79B9) | 1;
                let spec = AppSpec {
                    name: name.to_string(),
                    size,
                    policy,
                    level,
                    proto,
                    backend,
                    owner: self.user().unwrap_or("?").to_string(),
                    token,
                };
                self.daemon
                    .issue(CfgCmd::Submit { spec })
                    .map_err(|e| format!("ERR {e}"))?;
                // Wait for the submission to land in the replicated state so
                // we can report the assigned id.
                let cfg = self
                    .daemon
                    .wait_config(Duration::from_secs(10), |c| {
                        c.find_app_by_token(token).is_some()
                    })
                    .map_err(|_| "ERR submission not scheduled (no nodes?)".to_string())?;
                let app = cfg.find_app_by_token(token).expect("just checked");
                Ok(format!("OK submitted {} size {}", app.id, app.spec.size))
            }
            "SUSPEND" | "RESUME" | "DELETE" | "CHECKPOINT" => {
                self.require_login()?;
                let id = Self::parse_app_id(
                    toks.get(1)
                        .ok_or_else(|| format!("ERR usage: {cmd} <app>"))?,
                )?;
                let cfg = self.daemon.config();
                let entry = cfg
                    .apps
                    .get(&id)
                    .ok_or_else(|| format!("ERR no such application {id}"))?;
                if !self.may_touch(&entry.spec.owner) {
                    return Err(format!("ERR {id} belongs to {}", entry.spec.owner));
                }
                let c = match cmd.to_ascii_uppercase().as_str() {
                    "SUSPEND" => CfgCmd::Suspend { app: id },
                    "RESUME" => CfgCmd::ResumeApp { app: id },
                    "DELETE" => CfgCmd::Delete { app: id },
                    _ => CfgCmd::TriggerCkpt { app: id },
                };
                self.daemon.issue(c).map_err(|e| format!("ERR {e}"))?;
                Ok(format!("OK {} {}", cmd.to_ascii_lowercase(), id))
            }
            "CKPT" => {
                self.require_login()?;
                const USAGE: &str =
                    "ERR usage: CKPT STATUS <app> — per-rank fragment placement and replication health";
                match toks.get(1).map(|s| s.to_ascii_uppercase()).as_deref() {
                    Some("STATUS") if toks.len() == 3 => {
                        let id = Self::parse_app_id(toks[2]).map_err(|_| USAGE.to_string())?;
                        let cfg = self.daemon.config();
                        let entry = cfg
                            .apps
                            .get(&id)
                            .ok_or_else(|| format!("ERR no such application {id}"))?;
                        let hub = self.daemon.ckpt_store();
                        let backend = hub.backend_of(id);
                        let mut out = format!(
                            "OK ckpt status {id} backend={backend} epoch={}",
                            entry.epoch
                        );
                        match backend {
                            CkptBackend::Disk => {
                                for r in 0..entry.spec.size {
                                    let rank = starfish_util::Rank(r);
                                    out.push_str(&format!(
                                        "\nr{r} latest={} store=disk",
                                        hub.latest_index(id, rank)
                                    ));
                                }
                            }
                            CkptBackend::Replica { .. } => {
                                let health = hub.replica().health(id);
                                if health.is_empty() {
                                    out.push_str("\n(no fragments stored yet)");
                                }
                                for h in health {
                                    let frags = hub.replica().placement(id, h.rank);
                                    let map: Vec<String> = frags
                                        .iter()
                                        .map(|f| {
                                            let nodes: Vec<String> =
                                                f.replicas.iter().map(|n| n.to_string()).collect();
                                            format!("f{}->[{}]", f.seq, nodes.join(","))
                                        })
                                        .collect();
                                    out.push_str(&format!(
                                        "\nr{} index={} owner={} frags={} min_live={} parity={} {} {}",
                                        h.rank.0,
                                        h.index,
                                        h.owner,
                                        h.fragments,
                                        h.min_live_replicas,
                                        if h.parity_live { "live" } else { "lost" },
                                        if h.recoverable { "recoverable" } else { "UNRECOVERABLE" },
                                        map.join(" ")
                                    ));
                                }
                            }
                        }
                        Ok(out)
                    }
                    _ => Err(USAGE.into()),
                }
            }
            "MIGRATE" => {
                self.require_admin()?;
                let id = Self::parse_app_id(
                    toks.get(1)
                        .ok_or("ERR usage: MIGRATE <app> <rank> <node>")?,
                )?;
                let rank: u32 = toks
                    .get(2)
                    .map(|s| s.trim_start_matches('r'))
                    .and_then(|s| s.parse().ok())
                    .ok_or("ERR bad rank")?;
                let node = Self::parse_node_id(
                    toks.get(3)
                        .ok_or("ERR usage: MIGRATE <app> <rank> <node>")?,
                )?;
                let cfg = self.daemon.config();
                let entry = cfg
                    .apps
                    .get(&id)
                    .ok_or_else(|| format!("ERR no such application {id}"))?;
                // Consistent rollback point: the latest checkpoint common to
                // all ranks (0 = restart from scratch; CHECKPOINT first for
                // a warm migration).
                let line = vec![0u64; entry.spec.size as usize];
                self.daemon
                    .issue(CfgCmd::Migrate {
                        app: id,
                        rank: starfish_util::Rank(rank),
                        node,
                        line,
                    })
                    .map_err(|e| format!("ERR {e}"))?;
                Ok(format!("OK migrate {id} rank {rank} -> {node} (cold)"))
            }
            "NODES" => {
                self.require_login()?;
                let cfg = self.daemon.config();
                let mut out = String::from("OK nodes");
                for (n, e) in &cfg.nodes {
                    out.push_str(&format!("\n{n} {:?} {}", e.status, e.arch));
                }
                Ok(out)
            }
            "STATS" => {
                self.require_login()?;
                const USAGE: &str =
                    "ERR usage: STATS | STATS SUBSCRIBE <interval_ms> | STATS HISTORY [n]";
                match toks.get(1).map(|s| s.to_ascii_uppercase()).as_deref() {
                    None => {
                        let snap = self.daemon.stats().merged();
                        if snap.is_empty() {
                            return Ok("OK stats (no data)".into());
                        }
                        let mut out = String::from("OK stats");
                        for line in starfish_telemetry::render_stats(&snap).lines() {
                            out.push('\n');
                            out.push_str(line);
                        }
                        Ok(out)
                    }
                    Some("SUBSCRIBE") if toks.len() == 3 => {
                        let ms: u64 = toks[2].parse().map_err(|_| USAGE.to_string())?;
                        self.subscription = Some(Subscription::Stats {
                            interval_ms: ms,
                            last_emit: None,
                        });
                        Ok(format!("OK subscribed stats interval={ms}ms"))
                    }
                    Some("HISTORY") if toks.len() <= 3 => {
                        let n: usize = match toks.get(2) {
                            Some(t) => t.parse().map_err(|_| USAGE.to_string())?,
                            None => usize::MAX,
                        };
                        let hist = self.daemon.stats().history();
                        let skip = hist.len().saturating_sub(n);
                        let mut out = format!("OK stats history {}", hist.len() - skip);
                        let mut prev: Option<u64> = None;
                        for (vt, snap) in hist.iter().skip(skip) {
                            let total: u64 = snap.counters.iter().map(|(_, v)| *v).sum();
                            let delta = match prev {
                                Some(p) => total.saturating_sub(p),
                                None => total,
                            };
                            prev = Some(total);
                            out.push_str(&format!(
                                "\n@{} total={total} delta={delta}",
                                vt.as_nanos()
                            ));
                        }
                        Ok(out)
                    }
                    _ => Err(USAGE.into()),
                }
            }
            "HEALTH" => {
                self.require_login()?;
                let cfg = self.daemon.config();
                let snap = self.daemon.stats().merged();
                let ages: BTreeMap<NodeId, Duration> =
                    self.daemon.heartbeat_ages().into_iter().collect();
                let mut out = String::from("OK health");
                for (n, e) in &cfg.nodes {
                    // Registered-but-unannounced is *not* "up": the daemon
                    // never proved it is alive (the phantom-node rule).
                    let state = match e.status {
                        CfgNodeStatus::Up if e.announced => "up",
                        CfgNodeStatus::Up => "registered",
                        CfgNodeStatus::Disabled => "disabled",
                        CfgNodeStatus::Dead => "dead",
                        CfgNodeStatus::Removed => "removed",
                    };
                    let hb = if *n == self.daemon.node() {
                        "self".to_string()
                    } else {
                        match ages.get(n) {
                            Some(d) => format!("{}ms", d.as_millis()),
                            None => "-".to_string(),
                        }
                    };
                    out.push_str(&format!("\n{n} {state} hb_age={hb}"));
                }
                out.push_str(&format!(
                    "\nprocs.running {}",
                    snap.gauge(starfish_telemetry::metric::PROCS_RUNNING)
                ));
                for (label, id) in [
                    (
                        "ensemble.view_changes",
                        starfish_telemetry::metric::ENSEMBLE_VIEW_CHANGES,
                    ),
                    (
                        "ensemble.heartbeat_misses",
                        starfish_telemetry::metric::ENSEMBLE_HEARTBEAT_MISSES,
                    ),
                    ("ckpt.rounds", starfish_telemetry::metric::CKPT_ROUNDS),
                    (
                        "recovery.restarts",
                        starfish_telemetry::metric::RECOVERY_RESTARTS,
                    ),
                ] {
                    out.push_str(&format!("\n{label} {}", snap.counter(id)));
                }
                // Ring losses are read where they are counted, not mirrored
                // into metrics: every flight recorder, and this node's bus.
                let hub = self.daemon.trace_hub();
                let trace_dropped: u64 = hub
                    .scopes()
                    .iter()
                    .filter_map(|s| hub.get(s))
                    .map(|r| r.dropped())
                    .sum();
                out.push_str(&format!("\ntrace.dropped {trace_dropped}"));
                out.push_str(&format!(
                    "\nevents.dropped {}",
                    self.daemon.events().dropped()
                ));
                Ok(out)
            }
            "TIMELINE" => {
                self.require_login()?;
                const USAGE: &str = "ERR usage: TIMELINE <app>";
                if toks.len() != 2 {
                    return Err(USAGE.into());
                }
                let id = Self::parse_app_id(toks[1]).map_err(|_| USAGE.to_string())?;
                let mut phases: Vec<_> = self
                    .daemon
                    .trace_hub()
                    .dump_prefix(&format!("{id}.r"))
                    .iter()
                    .flat_map(|t| t.phases())
                    .collect();
                if phases.is_empty() {
                    return Ok(format!("OK timeline {id} (empty)"));
                }
                phases.sort_by_key(|p| (p.start, p.end));
                let mut out = format!("OK timeline {id}");
                for p in &phases {
                    out.push_str(&format!(
                        "\n{} {} vt={:.3}..{:.3}ms ({:.3}ms)",
                        p.name,
                        if p.detail.is_empty() { "-" } else { &p.detail },
                        p.start.as_millis_f64(),
                        p.end.as_millis_f64(),
                        p.end.since(p.start).as_millis_f64(),
                    ));
                }
                Ok(out)
            }
            "TRACE" => {
                self.require_login()?;
                const USAGE: &str = "ERR usage: TRACE SCOPES | TRACE DUMP [scope] | TRACE TAIL <n> [scope] | TRACE PATH <app> | TRACE FOLLOW <scope>";
                let hub = self.daemon.trace_hub();
                match toks.get(1).map(|s| s.to_ascii_uppercase()).as_deref() {
                    Some("SCOPES") if toks.len() == 2 => {
                        let scopes = hub.scopes();
                        let mut out = format!("OK trace scopes {}", scopes.len());
                        for s in scopes {
                            let (len, dropped) = hub
                                .get(&s)
                                .map(|r| (r.len(), r.dropped()))
                                .unwrap_or((0, 0));
                            out.push_str(&format!("\n{s} events={len} dropped={dropped}"));
                        }
                        Ok(out)
                    }
                    Some(verb @ ("DUMP" | "TAIL")) => {
                        // DUMP [scope] is TAIL <everything> [scope].
                        let (n, scope) = match (verb, toks.len()) {
                            ("DUMP", 2 | 3) => (usize::MAX, toks.get(2)),
                            ("TAIL", 3 | 4) => {
                                (toks[2].parse().map_err(|_| USAGE.to_string())?, toks.get(3))
                            }
                            _ => return Err(USAGE.into()),
                        };
                        let dumps = match scope {
                            Some(scope) => match hub.get(scope) {
                                Some(r) => vec![r.dump()],
                                None => return Err(format!("ERR no such scope {scope:?}")),
                            },
                            None => hub.dump_all(),
                        };
                        let mut out = if verb == "DUMP" {
                            String::from("OK trace dump")
                        } else {
                            format!("OK trace tail {n}")
                        };
                        for t in &dumps {
                            out.push_str(&format!("\n== {} dropped={}", t.scope, t.dropped));
                            for ev in t.events.iter().skip(t.events.len().saturating_sub(n)) {
                                out.push('\n');
                                out.push_str(&ev.summary());
                            }
                        }
                        Ok(out)
                    }
                    Some("FOLLOW") if toks.len() == 3 => {
                        let scope = toks[2].to_string();
                        let Some(r) = hub.get(&scope) else {
                            return Err(format!("ERR no such scope {scope:?}"));
                        };
                        // Live edge: only events recorded after this line.
                        self.subscription = Some(Subscription::Trace {
                            scope: scope.clone(),
                            cursor: r.live_edge(),
                        });
                        Ok(format!("OK following trace {scope}"))
                    }
                    Some("PATH") if toks.len() == 3 => {
                        let id = Self::parse_app_id(toks[2]).map_err(|_| USAGE.to_string())?;
                        let dumps = hub.dump_prefix(&format!("{id}.r"));
                        if dumps.iter().all(|t| t.events.is_empty()) {
                            return Ok(format!("OK trace path {id} (empty)"));
                        }
                        let dag = starfish_trace::reassemble(dumps);
                        dag.check()
                            .map_err(|e| format!("ERR trace inconsistent: {e}"))?;
                        let mut out = format!("OK trace path {id}");
                        for line in dag.render_path().lines() {
                            out.push('\n');
                            out.push_str(line);
                        }
                        Ok(out)
                    }
                    _ => Err(USAGE.into()),
                }
            }
            "EVENTS" => {
                self.require_login()?;
                const USAGE: &str = "ERR usage: EVENTS [TAIL <n>] | EVENTS SUBSCRIBE [filter]";
                let tail = |n: usize| {
                    let bus = self.daemon.events();
                    let mut out = format!(
                        "OK events published={} dropped={}",
                        bus.published(),
                        bus.dropped()
                    );
                    for ev in bus.tail(n) {
                        out.push('\n');
                        out.push_str(&ev.summary());
                    }
                    out
                };
                match toks.get(1).map(|s| s.to_ascii_uppercase()).as_deref() {
                    None => Ok(tail(10)),
                    Some("TAIL") if toks.len() == 3 => {
                        let n: usize = toks[2].parse().map_err(|_| USAGE.to_string())?;
                        Ok(tail(n))
                    }
                    Some("SUBSCRIBE") if toks.len() <= 3 => {
                        let filter = toks.get(2).map(|s| s.to_string());
                        self.subscription = Some(Subscription::Events {
                            cursor: self.daemon.events().subscribe(),
                            filter,
                        });
                        Ok("OK subscribed events".into())
                    }
                    _ => Err(USAGE.into()),
                }
            }
            "POSTMORTEM" => {
                self.require_login()?;
                const USAGE: &str = "ERR usage: POSTMORTEM <app>";
                if toks.len() != 2 {
                    return Err(USAGE.into());
                }
                let id = Self::parse_app_id(toks[1]).map_err(|_| USAGE.to_string())?;
                match self.daemon.postmortem(id) {
                    Some(pm) => Ok(format!("OK postmortem {id}\n{}", pm.to_json())),
                    None => {
                        let have: Vec<String> = self
                            .daemon
                            .postmortem_apps()
                            .iter()
                            .map(|a| a.to_string())
                            .collect();
                        Err(format!(
                            "ERR no postmortem for {id} (have: [{}])",
                            have.join(",")
                        ))
                    }
                }
            }
            "APPS" | "STATUS" => {
                self.require_login()?;
                let cfg = self.daemon.config();
                let mut out = String::from("OK apps");
                for a in cfg.apps.values() {
                    let placement: Vec<String> =
                        a.placement.iter().map(|n| n.to_string()).collect();
                    out.push_str(&format!(
                        "\n{} {} size={} status={:?} epoch={} owner={} placement=[{}]",
                        a.id,
                        a.spec.name,
                        a.spec.size,
                        a.status,
                        a.epoch,
                        a.spec.owner,
                        placement.join(",")
                    ));
                }
                Ok(out)
            }
            "HELP" => {
                // No login gate: a client must be able to discover LOGIN.
                let mut out = String::from("OK commands");
                for (_, usage) in COMMAND_USAGE {
                    out.push('\n');
                    out.push_str(usage);
                }
                Ok(out)
            }
            other => Err(format!("ERR unknown command {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use crate::host::NullHost;
    use starfish_checkpoint::store::CkptStore;
    use starfish_util::NodeId;
    use starfish_vni::{Fabric, Ideal, LayerCosts};

    fn one_node_daemon() -> Daemon {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        f.add_node(NodeId(0));
        let d = Daemon::start(
            &f,
            DaemonConfig::new(NodeId(0)),
            None,
            Box::new(NullHost),
            CkptStore::new(),
        )
        .unwrap();
        d.wait_config(Duration::from_secs(5), |c| c.up_nodes().len() == 1)
            .unwrap();
        d
    }

    /// Block until `d` has applied everything issued or published through
    /// it so far: a marker parameter rides the same command queue and the
    /// same ordered cast stream, so once it shows in the configuration the
    /// earlier commands and events have been applied too.
    fn settle(d: &Daemon, marker: &str) {
        d.issue(CfgCmd::SetParam {
            key: marker.into(),
            value: "set".into(),
        })
        .unwrap();
        d.wait_config(Duration::from_secs(5), |c| c.params.contains_key(marker))
            .unwrap();
    }

    #[test]
    fn help_lists_every_command_without_login() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d, 9);
        let out = s.handle_line("HELP");
        assert!(out.starts_with("OK commands"), "{out}");
        for (cmd, usage) in COMMAND_USAGE {
            assert!(out.contains(usage), "HELP missing {cmd}: {out}");
        }
        // And every advertised command really dispatches (no ERR unknown).
        for (cmd, _) in COMMAND_USAGE {
            let resp = s.handle_line(cmd);
            assert!(
                !resp.contains("unknown command"),
                "{cmd} advertised but unhandled: {resp}"
            );
        }
    }

    #[test]
    fn login_gates_commands() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d, 1);
        assert!(s.handle_line("STATUS").starts_with("ERR login required"));
        assert!(s.handle_line("LOGIN ADMIN wrongpw").starts_with("ERR"));
        assert!(s
            .handle_line("LOGIN ADMIN starfish")
            .starts_with("OK management"));
        assert!(s.handle_line("STATUS").starts_with("OK"));
        assert!(s.handle_line("LOGOUT").starts_with("OK"));
        assert!(s.handle_line("STATUS").starts_with("ERR"));
    }

    #[test]
    fn user_session_cannot_administrate() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d, 2);
        assert!(s.handle_line("LOGIN USER alice").starts_with("OK user"));
        assert!(s
            .handle_line("ADDNODE 5")
            .starts_with("ERR admin privileges"));
        assert!(s.handle_line("SET x y").starts_with("ERR admin"));
    }

    #[test]
    fn submit_reports_assigned_id_and_ownership_enforced() {
        let d = one_node_daemon();
        let mut alice = MgmtSession::connect(d.clone(), 3);
        alice.handle_line("LOGIN USER alice");
        let resp = alice.handle_line("SUBMIT myjob 2 POLICY kill LEVEL vm PROTO sync");
        assert!(resp.starts_with("OK submitted app"), "{resp}");
        // Bob may not delete alice's job.
        let mut bob = MgmtSession::connect(d.clone(), 4);
        bob.handle_line("LOGIN USER bob");
        let id_tok = resp.split_whitespace().nth(2).unwrap();
        let del = bob.handle_line(&format!("DELETE {id_tok}"));
        assert!(del.starts_with("ERR"), "{del}");
        // Alice can.
        let del = alice.handle_line(&format!("DELETE {id_tok}"));
        assert!(del.starts_with("OK delete"), "{del}");
        d.wait_config(Duration::from_secs(5), |c| {
            c.apps.values().all(|a| a.status == AppStatus::Killed)
        })
        .unwrap();
        // Admin can see it in APPS.
        let mut admin = MgmtSession::connect(d, 5);
        admin.handle_line("LOGIN ADMIN starfish");
        let apps = admin.handle_line("APPS");
        assert!(apps.contains("myjob"), "{apps}");
        assert!(apps.contains("Killed"), "{apps}");
    }

    #[test]
    fn admin_node_lifecycle_via_protocol() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d.clone(), 6);
        s.handle_line("LOGIN ADMIN starfish");
        assert!(s.handle_line("ADDNODE 9 1").starts_with("OK"));
        d.wait_config(Duration::from_secs(5), |c| c.nodes.len() == 2)
            .unwrap();
        assert!(s.handle_line("DISABLE n9").starts_with("OK"));
        d.wait_config(Duration::from_secs(5), |c| c.up_nodes().len() == 1)
            .unwrap();
        assert!(s.handle_line("ENABLE n9").starts_with("OK"));
        d.wait_config(Duration::from_secs(5), |c| c.up_nodes().len() == 2)
            .unwrap();
        let nodes = s.handle_line("NODES");
        assert!(nodes.contains("n9"), "{nodes}");
        // The heterogeneous arch is visible.
        assert!(
            nodes.contains("SunOS") || nodes.contains("big-endian"),
            "{nodes}"
        );
    }

    /// The phantom-node regression, end to end over the management
    /// protocol: a bare ADDNODE registers a node whose daemon never booted;
    /// a subsequent submission must land every rank on the live node.
    #[test]
    fn bare_addnode_is_not_scheduled_until_daemon_announces() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d.clone(), 11);
        s.handle_line("LOGIN ADMIN starfish");
        assert!(s.handle_line("ADDNODE 7").starts_with("OK"));
        let cfg = d
            .wait_config(Duration::from_secs(5), |c| c.nodes.len() == 2)
            .unwrap();
        // Registered and administratively Up, but not live.
        assert_eq!(cfg.up_nodes(), vec![NodeId(0), NodeId(7)]);
        assert_eq!(cfg.live_nodes(), vec![NodeId(0)]);
        let resp = s.handle_line("SUBMIT phantomjob 3");
        assert!(resp.starts_with("OK submitted"), "{resp}");
        let cfg = d
            .wait_config(Duration::from_secs(5), |c| !c.apps.is_empty())
            .unwrap();
        let app = cfg.apps.values().next().unwrap();
        assert_eq!(
            app.placement,
            vec![NodeId(0); 3],
            "no rank may be scheduled onto the never-announced node 7"
        );
    }

    #[test]
    fn set_param_changes_admin_password() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d.clone(), 7);
        s.handle_line("LOGIN ADMIN starfish");
        s.handle_line("SET admin_password hunter2");
        d.wait_config(Duration::from_secs(5), |c| {
            c.params.get("admin_password").map(|s| s.as_str()) == Some("hunter2")
        })
        .unwrap();
        let mut s2 = MgmtSession::connect(d, 8);
        assert!(s2.handle_line("LOGIN ADMIN starfish").starts_with("ERR"));
        assert!(s2.handle_line("LOGIN ADMIN hunter2").starts_with("OK"));
    }

    #[test]
    fn trace_commands_over_the_protocol() {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        f.add_node(NodeId(0));
        let mut cfg = DaemonConfig::new(NodeId(0));
        cfg.recorder = starfish_trace::FlightRecorder::new("n0", 64);
        let d = Daemon::start(&f, cfg, None, Box::new(NullHost), CkptStore::new()).unwrap();
        d.wait_config(Duration::from_secs(5), |c| c.up_nodes().len() == 1)
            .unwrap();
        let mut s = MgmtSession::connect(d, 11);
        s.handle_line("LOGIN ADMIN starfish");
        let scopes = s.handle_line("TRACE SCOPES");
        assert!(scopes.starts_with("OK trace scopes"), "{scopes}");
        assert!(scopes.contains("n0"), "{scopes}");
        // Forming the singleton view records at least one event.
        let dump = s.handle_line("TRACE DUMP n0");
        assert!(dump.starts_with("OK trace dump"), "{dump}");
        assert!(dump.contains("== n0"), "{dump}");
        assert!(dump.lines().count() > 2, "{dump}");
        let tail = s.handle_line("TRACE TAIL 1 n0");
        assert!(tail.starts_with("OK trace tail 1"), "{tail}");
        assert_eq!(tail.lines().count(), 3, "{tail}");
        assert!(s
            .handle_line("TRACE DUMP nosuch")
            .starts_with("ERR no such scope"));
        // No traced application ranks yet: the path query is empty, not an
        // error.
        assert!(s
            .handle_line("TRACE PATH app7")
            .starts_with("OK trace path app7 (empty)"));
    }

    /// Satellite: bad or missing arguments to TIMELINE/TRACE come back as a
    /// single uniform `ERR usage: ...` line, never a multi-line reply or a
    /// mismatched error shape.
    #[test]
    fn trace_and_timeline_usage_errors_are_one_line() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d, 12);
        s.handle_line("LOGIN ADMIN starfish");
        for bad in [
            "TRACE",
            "TRACE BOGUS",
            "TRACE SCOPES extra",
            "TRACE TAIL",
            "TRACE TAIL nope",
            "TRACE TAIL 3 scope extra",
            "TRACE PATH",
            "TRACE PATH nope",
            "TRACE PATH app1 extra",
            "TIMELINE",
            "TIMELINE nope",
            "TIMELINE app1 extra",
        ] {
            let resp = s.handle_line(bad);
            assert!(resp.starts_with("ERR usage:"), "{bad} -> {resp}");
            assert_eq!(resp.lines().count(), 1, "{bad} -> {resp}");
        }
    }

    #[test]
    fn ckpt_status_reports_backend_and_rejects_bad_usage() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d.clone(), 13);
        s.handle_line("LOGIN ADMIN starfish");
        // Disk-backed app: per-rank latest indices, store=disk.
        let resp = s.handle_line("SUBMIT diskjob 2 POLICY kill STORE disk");
        assert!(resp.starts_with("OK submitted"), "{resp}");
        let id = resp.split_whitespace().nth(2).unwrap().to_string();
        let status = s.handle_line(&format!("CKPT STATUS {id}"));
        assert!(status.starts_with("OK ckpt status"), "{status}");
        assert!(status.contains("backend=disk"), "{status}");
        assert!(status.contains("store=disk"), "{status}");
        // Replica-backed app: placement/health report (empty until a round).
        let resp = s.handle_line("SUBMIT memjob 1 POLICY kill STORE replica:2");
        assert!(resp.starts_with("OK submitted"), "{resp}");
        let id2 = resp.split_whitespace().nth(2).unwrap().to_string();
        let status = s.handle_line(&format!("CKPT STATUS {id2}"));
        assert!(status.contains("backend=replica:2"), "{status}");
        assert!(status.contains("no fragments stored yet"), "{status}");
        // Usage errors are one uniform line.
        for bad in ["CKPT", "CKPT STATUS", "CKPT STATUS nope", "CKPT BOGUS x"] {
            let resp = s.handle_line(bad);
            assert!(resp.starts_with("ERR usage: CKPT"), "{bad} -> {resp}");
            assert_eq!(resp.lines().count(), 1, "{bad} -> {resp}");
        }
        // Bad STORE option is rejected.
        assert!(s
            .handle_line("SUBMIT z 1 STORE floppy")
            .starts_with("ERR bad STORE"));
    }

    #[test]
    fn events_tail_and_subscribe_stream_frames() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d.clone(), 20);
        s.handle_line("LOGIN ADMIN starfish");
        // The bus already carries the founder's own node-up: a daemon
        // appends an event before it publishes the configuration change.
        let out = s.handle_line("EVENTS");
        assert!(out.starts_with("OK events published="), "{out}");
        assert!(out.contains("node-up"), "no node-up: {out}");
        // Subscribe at the live edge, then publish an observation.
        assert_eq!(s.handle_line("EVENTS SUBSCRIBE"), "OK subscribed events");
        assert!(s.subscribed());
        d.publish_event(starfish_events::EventKind::FaultInjected {
            desc: "test kill".into(),
        })
        .unwrap();
        settle(&d, "m1");
        let frames = s.poll_frames();
        assert!(
            frames
                .iter()
                .any(|f| f.starts_with("EVENT ") && f.contains("fault-injected")),
            "{frames:?}"
        );
        // A label filter suppresses non-matching events.
        assert_eq!(
            s.handle_line("EVENTS SUBSCRIBE recovery"),
            "OK subscribed events"
        );
        d.publish_event(starfish_events::EventKind::FaultInjected {
            desc: "filtered".into(),
        })
        .unwrap();
        settle(&d, "m2");
        assert!(s.poll_frames().is_empty());
        s.unsubscribe();
        assert!(!s.subscribed());
        // Pull form with explicit count.
        let out = s.handle_line("EVENTS TAIL 1");
        assert_eq!(out.lines().count(), 2, "{out}");
    }

    #[test]
    fn stats_subscribe_and_history_over_the_protocol() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d, 21);
        s.handle_line("LOGIN ADMIN starfish");
        // Interval 0: a frame on every poll (no wall clock involved).
        assert!(s
            .handle_line("STATS SUBSCRIBE 0")
            .starts_with("OK subscribed stats"));
        let f1 = s.poll_frames();
        assert_eq!(f1.len(), 1);
        assert!(f1[0].starts_with("STATS"), "{f1:?}");
        assert_eq!(s.poll_frames().len(), 1);
        // History is served even when empty (no app flushed stats yet).
        let h = s.handle_line("STATS HISTORY");
        assert!(h.starts_with("OK stats history"), "{h}");
        let h = s.handle_line("STATS HISTORY 3");
        assert!(h.starts_with("OK stats history"), "{h}");
    }

    #[test]
    fn trace_follow_streams_only_new_events() {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        f.add_node(NodeId(0));
        let mut cfg = DaemonConfig::new(NodeId(0));
        cfg.recorder = starfish_trace::FlightRecorder::new("n0", 64);
        let d = Daemon::start(&f, cfg, None, Box::new(NullHost), CkptStore::new()).unwrap();
        d.wait_config(Duration::from_secs(5), |c| c.up_nodes().len() == 1)
            .unwrap();
        let mut s = MgmtSession::connect(d.clone(), 22);
        s.handle_line("LOGIN ADMIN starfish");
        assert_eq!(s.handle_line("TRACE FOLLOW n0"), "OK following trace n0");
        // Nothing new yet: the follow starts at the live edge, not history.
        assert!(s.poll_frames().is_empty());
        // New ensemble traffic shows up as frames.
        settle(&d, "k");
        let frames = s.poll_frames();
        assert!(!frames.is_empty(), "no trace frames");
        assert!(frames[0].starts_with("TRACE n0 "), "{frames:?}");
        assert!(s
            .handle_line("TRACE FOLLOW nosuch")
            .starts_with("ERR no such scope"));
    }

    /// A follower lapped by its ring is told exactly how much it missed —
    /// the `EVENT! missed` contract — and HEALTH's `trace.dropped` is the
    /// same loss, read from the recorders themselves.
    #[test]
    fn trace_follow_reports_missed_and_health_sums_recorder_drops() {
        let d = one_node_daemon();
        let rec = starfish_trace::FlightRecorder::new("app9.r0", 4);
        d.trace_hub().register(rec.clone());
        let mut s = MgmtSession::connect(d.clone(), 24);
        s.handle_line("LOGIN ADMIN starfish");
        s.handle_line("TRACE FOLLOW app9.r0");
        for i in 0..10 {
            rec.on_send(starfish_util::VirtualTime::from_nanos(i), 1, 1, i, 8);
        }
        let frames = s.poll_frames();
        assert_eq!(frames[0], "TRACE! missed 6", "{frames:?}");
        assert_eq!(frames.len(), 5, "{frames:?}");
        assert!(frames[1].starts_with("TRACE app9.r0 #6 "), "{frames:?}");
        assert!(s.poll_frames().is_empty(), "the gap is charged once");
        let health = s.handle_line("HEALTH");
        assert!(health.contains("\ntrace.dropped 6"), "{health}");
        assert!(health.contains("\nevents.dropped 0"), "{health}");
    }

    /// TIMELINE is a fold over the app's flight recorders: closed phases of
    /// every rank, oldest first, in the documented line format.
    #[test]
    fn timeline_folds_phases_from_the_flight_recorders() {
        let d = one_node_daemon();
        let us = starfish_util::VirtualTime::from_micros;
        let r0 = starfish_trace::FlightRecorder::new("app9.r0", 4);
        let r1 = starfish_trace::FlightRecorder::new("app9.r1", 4);
        r0.phase_begin(us(2000), "ckpt.round");
        r1.span(us(1000), us(1500), "ckpt.write", "index 1, 64 B");
        r0.phase_end(us(3250), "ckpt.round", "index 1");
        r0.phase_begin(us(4000), "still.open");
        r1.span(us(5000), us(5000), "recovery.respawn_send", "");
        d.trace_hub().register(r0);
        d.trace_hub().register(r1);
        d.trace_hub()
            .register(starfish_trace::FlightRecorder::new("app90.r0", 4));
        let mut s = MgmtSession::connect(d.clone(), 25);
        s.handle_line("LOGIN USER tess");
        assert_eq!(
            s.handle_line("TIMELINE app9"),
            "OK timeline app9\n\
             ckpt.write index 1, 64 B vt=1.000..1.500ms (0.500ms)\n\
             ckpt.round index 1 vt=2.000..3.250ms (1.250ms)\n\
             recovery.respawn_send - vt=5.000..5.000ms (0.000ms)"
        );
        assert_eq!(s.handle_line("TIMELINE app90"), "OK timeline app90 (empty)");
    }

    /// Satellite: HEALTH distinguishes a registered-but-unannounced node
    /// from a live one, and surfaces per-peer heartbeat age.
    #[test]
    fn health_reports_announce_state_and_heartbeat_age() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d.clone(), 23);
        s.handle_line("LOGIN ADMIN starfish");
        s.handle_line("ADDNODE 7");
        d.wait_config(Duration::from_secs(5), |c| c.nodes.len() == 2)
            .unwrap();
        let out = s.handle_line("HEALTH");
        assert!(out.starts_with("OK health"), "{out}");
        // Our own daemon announced itself; node 7's daemon never booted.
        assert!(out.contains("n0 up hb_age=self"), "{out}");
        assert!(out.contains("n7 registered hb_age=-"), "{out}");
    }

    /// Satellite: every malformed subscription/forensics line comes back as
    /// one uniform `ERR usage:` line.
    #[test]
    fn subscription_and_postmortem_usage_errors_are_one_line() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d, 24);
        s.handle_line("LOGIN ADMIN starfish");
        for bad in [
            "EVENTS BOGUS",
            "EVENTS TAIL",
            "EVENTS TAIL nope",
            "EVENTS TAIL 3 extra",
            "EVENTS SUBSCRIBE f extra",
            "STATS SUBSCRIBE",
            "STATS SUBSCRIBE nope",
            "STATS SUBSCRIBE 5 extra",
            "STATS HISTORY nope",
            "STATS BOGUS",
            "TRACE FOLLOW",
            "TRACE FOLLOW a b",
            "POSTMORTEM",
            "POSTMORTEM nope",
            "POSTMORTEM app1 extra",
        ] {
            let resp = s.handle_line(bad);
            assert!(resp.starts_with("ERR usage:"), "{bad} -> {resp}");
            assert_eq!(resp.lines().count(), 1, "{bad} -> {resp}");
        }
        // A well-formed query for a recovery that never happened names the
        // bundles that do exist.
        assert!(s
            .handle_line("POSTMORTEM app9")
            .starts_with("ERR no postmortem for app9"));
    }

    #[test]
    fn malformed_lines_rejected() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d, 9);
        s.handle_line("LOGIN ADMIN starfish");
        assert!(s.handle_line("SUBMIT").starts_with("ERR"));
        assert!(s.handle_line("SUBMIT x notanumber").starts_with("ERR"));
        assert!(s.handle_line("FROBNICATE").starts_with("ERR unknown"));
        assert!(s.handle_line("ADDNODE xyz").starts_with("ERR bad node id"));
        assert_eq!(s.handle_line("   "), "");
    }
}
