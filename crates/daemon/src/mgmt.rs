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
use std::ops::RangeInclusive;
use std::time::Duration;

use starfish_util::{AppId, NodeId};

#[cfg(test)]
use crate::config::AppStatus;
use crate::config::{
    AppEntry, AppSpec, CfgNodeStatus, CkptProto, ClusterConfig, FtPolicy, LevelKind,
};
use crate::daemon::Daemon;
use crate::msg::CfgCmd;
use starfish_checkpoint::arch::MACHINES;
use starfish_checkpoint::backend::CkptBackend;
use starfish_trace::TraceCursor;

/// Default administrator password; override with `SET admin_password <pw>`.
pub(crate) const DEFAULT_ADMIN_PASSWORD: &str = "starfish";

/// Who may run a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Anyone,
    /// A logged-in session, user or admin.
    User,
    Admin,
}

/// A reply, or why there is none: `Some` message, or `None` (= [`USAGE`]).
type Reply = Result<String, Option<String>>;

/// The failure whose reply is the row's usage line.
const USAGE: Option<String> = None;

/// One row of the command table.
pub(crate) struct Command {
    pub(crate) name: &'static str,
    /// What `HELP` lists, and what a usage error replies with.
    pub(crate) usage: &'static str,
    pub(crate) access: Access,
    /// Accepted token counts, the command's own included.
    pub(crate) arity: RangeInclusive<usize>,
    run: fn(&mut MgmtSession, &[&str]) -> Reply,
}

/// One [`Command`] per line: `NAME access lo..=hi handler "usage"`.
macro_rules! commands {
    ($($name:literal $access:ident $lo:literal..=$hi:literal $run:ident $usage:literal;)*) => {
        &[$(Command {
            name: $name,
            usage: $usage,
            access: Access::$access,
            arity: $lo..=$hi,
            run: MgmtSession::$run,
        }),*]
    };
}

/// The command table, which is the dispatch: [`MgmtSession::handle_line`]
/// finds the row, checks its access and arity, then runs its handler.
#[rustfmt::skip]
pub(crate) const COMMAND_USAGE: &[Command] = commands! {
    "HELP" Anyone 1..=1 help "HELP — list commands";
    "LOGIN" Anyone 3..=3 login "LOGIN ADMIN <password> | LOGIN USER <name>";
    "LOGOUT" Anyone 1..=1 logout "LOGOUT — end the session";
    "ADDNODE" Admin 2..=3 add_node "ADDNODE <id> [arch] — admin: add a node to the cluster";
    "REMOVENODE" Admin 2..=2 node_cmd "REMOVENODE <id> — admin: remove a node";
    "DISABLE" Admin 2..=2 node_cmd "DISABLE <id> — admin: stop scheduling onto a node";
    "ENABLE" Admin 2..=2 node_cmd "ENABLE <id> — admin: resume scheduling onto a node";
    "SET" Admin 3..=3 set "SET <key> <value> — admin: set a cluster parameter";
    "SUBMIT" User 3..=11 submit "SUBMIT <name> <size> [POLICY restart|view|kill] [LEVEL native|vm] [PROTO sync|cl|indep] [STORE disk|replica:<k>]";
    "SUSPEND" User 2..=2 app_cmd "SUSPEND <app> — pause an application you own";
    "RESUME" User 2..=2 app_cmd "RESUME <app> — resume a suspended application";
    "DELETE" User 2..=2 app_cmd "DELETE <app> — remove an application";
    "CHECKPOINT" User 2..=2 app_cmd "CHECKPOINT <app> — trigger a coordinated checkpoint";
    "CKPT" User 3..=3 ckpt "CKPT STATUS <app> — per-rank fragment placement and replication health";
    "MIGRATE" Admin 4..=4 migrate "MIGRATE <app> <rank> <node> — admin: move a rank (cold)";
    "NODES" User 1..=1 nodes "NODES — list nodes and their status";
    "STATS" User 1..=3 stats "STATS | STATS SUBSCRIBE <interval_ms> | STATS HISTORY [n] — merged cluster telemetry";
    "HEALTH" User 1..=1 health "HEALTH — per-node liveness (announce state, heartbeat age) plus key health metrics";
    "TIMELINE" User 2..=2 timeline "TIMELINE <app> — per-rank event timeline";
    "TRACE" User 2..=4 trace "TRACE SCOPES | TRACE DUMP [scope] | TRACE TAIL <n> [scope] | TRACE PATH <app> | TRACE FOLLOW <scope>";
    "EVENTS" User 1..=3 events "EVENTS [TAIL <n>] | EVENTS SUBSCRIBE [filter] — cluster events";
    "POSTMORTEM" User 2..=2 postmortem "POSTMORTEM <app> — recovery forensics bundle (JSON)";
    "APPS" User 1..=1 apps "APPS — list applications (alias: STATUS)";
    "STATUS" User 1..=1 apps "STATUS — list applications (alias: APPS)";
};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Role {
    Admin,
    User(String),
}

/// The streaming state a `SUBSCRIBE`/`FOLLOW` command arms on a session.
/// One subscription per session; a new one replaces the old.
enum Subscription {
    Stats {
        interval_ms: u64,
        last_emit: Option<std::time::Instant>,
    },
    /// `TRACE FOLLOW <scope>`, or with `events` set, `EVENTS SUBSCRIBE`:
    /// the cluster-event class of the daemon's own recorder.
    Trace {
        scope: String,
        cursor: TraceCursor,
        /// Substring match against the event label (e.g. "recovery"); empty
        /// matches every event.
        events: Option<String>,
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

    /// Drain the push frames the active subscription owes the client. The
    /// serving loop calls this between request lines (and on a timer for
    /// `STATS SUBSCRIBE`); with no subscription armed it returns nothing.
    pub fn poll_frames(&mut self) -> Vec<String> {
        let mut frames = Vec::new();
        match &mut self.subscription {
            None => {}
            Some(Subscription::Stats {
                interval_ms,
                last_emit,
            }) => {
                let due = match (*interval_ms, &*last_emit) {
                    (0, _) => true,
                    (_, None) => true,
                    (ms, Some(t)) => t.elapsed() >= Duration::from_millis(ms),
                };
                #[expect(clippy::disallowed_methods, reason = "a `STATS` stream's interval")]
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
            Some(Subscription::Trace {
                scope,
                cursor,
                events,
            }) => {
                let Some(r) = self.daemon.trace_hub().get(scope) else {
                    return frames;
                };
                let (lines, missed, tag) = match events {
                    None => {
                        let (records, missed) = r.poll(cursor);
                        let lines = records.iter().map(|ev| format!("{scope} {}", ev.summary()));
                        (lines.collect::<Vec<_>>(), missed, "TRACE")
                    }
                    Some(label) => {
                        let (events, missed) = r.events().poll(cursor);
                        let matching = events
                            .iter()
                            .filter(|ev| ev.kind.label().contains(&**label));
                        (matching.map(|ev| ev.summary()).collect(), missed, "EVENT")
                    }
                };
                if missed > 0 {
                    frames.push(format!("{tag}! missed {missed}"));
                }
                frames.extend(lines.into_iter().map(|l| format!("{tag} {l}")));
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
        let toks: Vec<&str> = line.split_whitespace().collect();
        let Some(cmd) = toks.first() else {
            return String::new();
        };
        let cmd = cmd.to_ascii_uppercase();
        let Some(row) = COMMAND_USAGE.iter().find(|r| r.name == cmd) else {
            return format!("ERR unknown command {cmd:?}");
        };
        let reply = match row.access {
            Access::User if self.role.is_none() => Err(Some("ERR login required".into())),
            Access::Admin if !self.is_admin() => Err(Some("ERR admin privileges required".into())),
            _ if !row.arity.contains(&toks.len()) => Err(USAGE),
            _ => (row.run)(self, &toks),
        };
        match reply {
            Ok(resp) | Err(Some(resp)) => resp,
            Err(None) => format!("ERR usage: {}", row.usage),
        }
    }

    fn issue(&self, cmd: CfgCmd) -> Result<(), Option<String>> {
        let issued = self.daemon.issue(cmd);
        issued.map_err(|e| Some(format!("ERR {e}")))
    }

    /// The replicated entry of application `tok`.
    fn app(&self, tok: &str) -> Result<AppEntry, Option<String>> {
        let id = Self::parse_app_id(tok)?;
        let entry = self.daemon.config().apps.get(&id).cloned();
        entry.ok_or_else(|| Some(format!("ERR no such application {id}")))
    }

    // -- the handlers, one per row (arity already checked) ---------------------

    fn help(&mut self, _: &[&str]) -> Reply {
        // No login gate: a client must be able to discover LOGIN.
        let mut out = String::from("OK commands");
        for row in COMMAND_USAGE {
            out.push('\n');
            out.push_str(row.usage);
        }
        Ok(out)
    }

    fn login(&mut self, t: &[&str]) -> Reply {
        let [_, kind, arg] = t else {
            return Err(USAGE);
        };
        match kind.to_ascii_uppercase().as_str() {
            "ADMIN" => {
                let params = self.daemon.config().params;
                let expected = params.get("admin_password").map(String::as_str);
                if *arg != expected.unwrap_or(DEFAULT_ADMIN_PASSWORD) {
                    return Err(Some("ERR authentication failed".into()));
                }
                self.role = Some(Role::Admin);
                Ok("OK management connection".into())
            }
            "USER" => {
                self.role = Some(Role::User(arg.to_string()));
                Ok("OK user session".into())
            }
            _ => Err(USAGE),
        }
    }

    fn logout(&mut self, _: &[&str]) -> Reply {
        self.role = None;
        Ok("OK bye".into())
    }

    fn add_node(&mut self, t: &[&str]) -> Reply {
        let (id, arch) = match t {
            [_, id] => (id, "0"),
            [_, id, arch] => (id, *arch),
            _ => return Err(USAGE),
        };
        let node = Self::parse_node_id(id)?;
        let known = |a: &u8| (*a as usize) < MACHINES.len();
        let arch_index = arch.parse().ok().filter(known).ok_or(USAGE)?;
        self.issue(CfgCmd::AddNode { node, arch_index })?;
        Ok(format!("OK node {node} added"))
    }

    fn node_cmd(&mut self, t: &[&str]) -> Reply {
        let [verb, id] = t else {
            return Err(USAGE);
        };
        let node = Self::parse_node_id(id)?;
        let (cmd, done) = match verb.to_ascii_uppercase().as_str() {
            "REMOVENODE" => (CfgCmd::RemoveNode { node }, "removed"),
            "DISABLE" => (CfgCmd::DisableNode { node }, "disabled"),
            _ => (CfgCmd::EnableNode { node }, "enabled"),
        };
        self.issue(cmd)?;
        Ok(format!("OK node {node} {done}"))
    }

    fn set(&mut self, t: &[&str]) -> Reply {
        let [_, key, value] = t else {
            return Err(USAGE);
        };
        let (key, value) = (key.to_string(), value.to_string());
        let done = format!("OK {key}={value}");
        self.issue(CfgCmd::SetParam { key, value })?;
        Ok(done)
    }

    fn submit(&mut self, t: &[&str]) -> Reply {
        let [_, name, size, opts @ ..] = t else {
            return Err(USAGE);
        };
        let size: u32 = size.parse().map_err(|_| "ERR bad size".to_string())?;
        let mut policy = FtPolicy::Restart;
        let mut level = LevelKind::Vm;
        let mut proto = CkptProto::StopAndSync;
        let mut backend = CkptBackend::Disk;
        for opt in opts.chunks(2) {
            let [key, value @ ..] = opt else {
                return Err(USAGE);
            };
            let value = value.first().map(|v| v.to_ascii_lowercase());
            match (key.to_ascii_uppercase().as_str(), value.as_deref()) {
                ("POLICY", Some("restart")) => policy = FtPolicy::Restart,
                ("POLICY", Some("view")) => policy = FtPolicy::NotifyView,
                ("POLICY", Some("kill")) => policy = FtPolicy::Kill,
                ("LEVEL", Some("native")) => level = LevelKind::Native,
                ("LEVEL", Some("vm")) => level = LevelKind::Vm,
                ("PROTO", Some("sync")) => proto = CkptProto::StopAndSync,
                ("PROTO", Some("cl")) => proto = CkptProto::ChandyLamport,
                ("PROTO", Some("indep")) => proto = CkptProto::Independent,
                ("STORE", v) => {
                    let parsed = v.and_then(CkptBackend::parse);
                    backend =
                        parsed.ok_or("ERR bad STORE (disk|replica|replica:<k>)".to_string())?;
                }
                (k @ ("POLICY" | "LEVEL" | "PROTO"), _) => {
                    return Err(Some(format!("ERR bad {k}")))
                }
                _ => return Err(Some(format!("ERR unknown option {key:?}"))),
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
        self.issue(CfgCmd::Submit { spec })?;
        // Wait for the submission to land in the replicated state so we can
        // report the assigned id.
        let landed = |c: &ClusterConfig| c.find_app_by_token(token).is_some();
        let cfg = self.daemon.wait_config(Duration::from_secs(10), landed);
        let cfg = cfg.map_err(|_| "ERR submission not scheduled (no nodes?)".to_string())?;
        let app = cfg.find_app_by_token(token).ok_or(USAGE)?;
        Ok(format!("OK submitted {} size {}", app.id, app.spec.size))
    }

    fn app_cmd(&mut self, t: &[&str]) -> Reply {
        let [verb, tok] = t else {
            return Err(USAGE);
        };
        let entry = self.app(tok)?;
        let (app, owner) = (entry.id, &entry.spec.owner);
        if !self.may_touch(owner) {
            return Err(format!("ERR {app} belongs to {owner}").into());
        }
        let verb = verb.to_ascii_lowercase();
        self.issue(match verb.as_str() {
            "suspend" => CfgCmd::Suspend { app },
            "resume" => CfgCmd::ResumeApp { app },
            "delete" => CfgCmd::Delete { app },
            _ => CfgCmd::TriggerCkpt { app },
        })?;
        Ok(format!("OK {verb} {app}"))
    }

    fn ckpt(&mut self, t: &[&str]) -> Reply {
        let [_, sub, tok] = t else {
            return Err(USAGE);
        };
        if !sub.eq_ignore_ascii_case("STATUS") {
            return Err(USAGE);
        }
        let id = Self::parse_app_id(tok).map_err(|_| USAGE)?;
        let entry = self.app(tok)?;
        let store = self.daemon.ckpt_store();
        let backend = store.backend_of(id);
        let mut out = format!(
            "OK ckpt status {id} backend={backend} epoch={}",
            entry.epoch
        );
        match backend {
            CkptBackend::Disk => {
                for r in 0..entry.spec.size {
                    let latest = store.latest_index(id, starfish_util::Rank(r));
                    out.push_str(&format!("\nr{r} latest={latest} store=disk"));
                }
            }
            CkptBackend::Replica { .. } => {
                let health = store.health(id);
                if health.is_empty() {
                    out.push_str("\n(no fragments stored yet)");
                }
                for h in health {
                    let map: Vec<String> = h
                        .map
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
                        if h.recoverable {
                            "recoverable"
                        } else {
                            "UNRECOVERABLE"
                        },
                        map.join(" ")
                    ));
                }
            }
        }
        Ok(out)
    }

    fn migrate(&mut self, t: &[&str]) -> Reply {
        let [_, tok, rank, node] = t else {
            return Err(USAGE);
        };
        let entry = self.app(tok)?;
        let rank = rank
            .trim_start_matches('r')
            .parse()
            .map_err(|_| "ERR bad rank".to_string())?;
        let node = Self::parse_node_id(node)?;
        // A cold move: the line is all zeros, so every rank restarts from
        // its initial state (`Cluster::migrate` checkpoints first for a warm
        // one).
        let line = vec![0u64; entry.spec.size as usize];
        let (app, rank) = (entry.id, starfish_util::Rank(rank));
        self.issue(CfgCmd::Migrate {
            app,
            rank,
            node,
            line,
        })?;
        Ok(format!("OK migrate {app} rank {} -> {node} (cold)", rank.0))
    }

    fn nodes(&mut self, _: &[&str]) -> Reply {
        let mut out = String::from("OK nodes");
        for (n, e) in &self.daemon.config().nodes {
            out.push_str(&format!("\n{n} {:?} {}", e.status, e.arch));
        }
        Ok(out)
    }

    fn stats(&mut self, t: &[&str]) -> Reply {
        let sub = t.get(1).map(|s| s.to_ascii_uppercase());
        match (sub.as_deref(), t.get(2)) {
            (None, _) => {
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
            (Some("SUBSCRIBE"), Some(ms)) => {
                let ms: u64 = ms.parse().map_err(|_| USAGE)?;
                self.subscription = Some(Subscription::Stats {
                    interval_ms: ms,
                    last_emit: None,
                });
                Ok(format!("OK subscribed stats interval={ms}ms"))
            }
            (Some("HISTORY"), n) => {
                let n: usize = match n {
                    Some(t) => t.parse().map_err(|_| USAGE)?,
                    None => usize::MAX,
                };
                let hist = self.daemon.stats().history();
                let skip = hist.len().saturating_sub(n);
                let mut out = format!("OK stats history {}", hist.len() - skip);
                let mut prev: Option<u64> = None;
                for (vt, snap) in hist.iter().skip(skip) {
                    let total: u64 = snap.counters.iter().map(|(_, v)| *v).sum();
                    let delta = total.saturating_sub(prev.unwrap_or(0));
                    prev = Some(total);
                    out.push_str(&format!("\n@{} total={total} delta={delta}", vt.as_nanos()));
                }
                Ok(out)
            }
            _ => Err(USAGE),
        }
    }

    fn health(&mut self, _: &[&str]) -> Reply {
        let cfg = self.daemon.config();
        let snap = self.daemon.stats().merged();
        let ages: BTreeMap<NodeId, Duration> = self.daemon.heartbeat_ages().into_iter().collect();
        let mut out = String::from("OK health");
        for (n, e) in &cfg.nodes {
            // Registered-but-unannounced is *not* "up": the daemon never
            // proved it is alive (the phantom-node rule).
            let state = match e.status {
                CfgNodeStatus::Up if e.announced => "up",
                CfgNodeStatus::Up => "registered",
                CfgNodeStatus::Disabled => "disabled",
                CfgNodeStatus::Dead => "dead",
                CfgNodeStatus::Removed => "removed",
            };
            let hb = match ages.get(n) {
                _ if *n == self.daemon.node() => "self".to_string(),
                Some(d) => format!("{}ms", d.as_millis()),
                None => "-".to_string(),
            };
            out.push_str(&format!("\n{n} {state} hb_age={hb}"));
        }
        use starfish_telemetry::metric;
        let running = snap.gauge(metric::PROCS_RUNNING);
        out.push_str(&format!("\nprocs.running {running}"));
        for (label, id) in [
            ("ensemble.view_changes", metric::ENSEMBLE_VIEW_CHANGES),
            (
                "ensemble.heartbeat_misses",
                metric::ENSEMBLE_HEARTBEAT_MISSES,
            ),
            ("ckpt.rounds", metric::CKPT_ROUNDS),
            ("recovery.restarts", metric::RECOVERY_RESTARTS),
        ] {
            out.push_str(&format!("\n{label} {}", snap.counter(id)));
        }
        // Ring losses are read where they are counted, not mirrored into
        // metrics: every flight recorder, and this node's cluster events
        // (a class of its recorder, so also in `trace.dropped`).
        let hub = self.daemon.trace_hub();
        let recorders = hub.scopes().into_iter().filter_map(|s| hub.get(&s));
        let trace_dropped: u64 = recorders.map(|r| r.dropped()).sum();
        out.push_str(&format!("\ntrace.dropped {trace_dropped}"));
        let events_dropped = self.daemon.events().dropped();
        out.push_str(&format!("\nevents.dropped {events_dropped}"));
        Ok(out)
    }

    fn timeline(&mut self, t: &[&str]) -> Reply {
        let [_, tok] = t else {
            return Err(USAGE);
        };
        let id = Self::parse_app_id(tok).map_err(|_| USAGE)?;
        let dumps = self.daemon.trace_hub().dump_prefix(&format!("{id}.r"));
        let mut phases: Vec<_> = dumps.iter().flat_map(|t| t.phases()).collect();
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

    fn trace(&mut self, t: &[&str]) -> Reply {
        let hub = self.daemon.trace_hub();
        let verb = t.get(1).map(|s| s.to_ascii_uppercase()).unwrap_or_default();
        match (verb.as_str(), t.get(2..).unwrap_or_default()) {
            ("SCOPES", []) => {
                let scopes = hub.scopes();
                let mut out = format!("OK trace scopes {}", scopes.len());
                for s in scopes {
                    let (len, dropped) = hub.get(&s).map_or((0, 0), |r| (r.len(), r.dropped()));
                    out.push_str(&format!("\n{s} events={len} dropped={dropped}"));
                }
                Ok(out)
            }
            // DUMP [scope] is TAIL <everything> [scope].
            ("DUMP" | "TAIL", args) => {
                let (n, scope) = match (verb.as_str(), args) {
                    ("DUMP", [] | [_]) => (usize::MAX, args.first()),
                    ("TAIL", [n, scope @ ..]) => (n.parse().map_err(|_| USAGE)?, scope.first()),
                    _ => return Err(USAGE),
                };
                let dumps = match scope {
                    Some(scope) => match hub.get(scope) {
                        Some(r) => vec![r.dump()],
                        None => return Err(format!("ERR no such scope {scope:?}").into()),
                    },
                    None => hub.dump_all(),
                };
                let mut out = match verb.as_str() {
                    "DUMP" => String::from("OK trace dump"),
                    _ => format!("OK trace tail {n}"),
                };
                for t in &dumps {
                    out.push_str(&format!("\n== {} dropped={}", t.scope, t.dropped));
                    // The sampled-out traffic: whole-ring dumps only.
                    for u in t.unsampled.iter().filter(|_| verb == "DUMP") {
                        out.push_str(&format!(
                            "\nunsampled r{}: sent {} ({} B) recvd {} ({} B)",
                            u.peer, u.sent, u.sent_bytes, u.recvd, u.recvd_bytes
                        ));
                    }
                    for ev in t.events.iter().skip(t.events.len().saturating_sub(n)) {
                        out.push('\n');
                        out.push_str(&ev.summary());
                    }
                }
                Ok(out)
            }
            ("FOLLOW", [scope]) => {
                let Some(r) = hub.get(scope) else {
                    return Err(format!("ERR no such scope {scope:?}").into());
                };
                // Live edge: only events recorded after this line.
                let (scope, cursor) = (scope.to_string(), r.live_edge());
                let done = format!("OK following trace {scope}");
                let events = None;
                self.subscription = Some(Subscription::Trace {
                    scope,
                    cursor,
                    events,
                });
                Ok(done)
            }
            ("PATH", [tok]) => {
                let id = Self::parse_app_id(tok).map_err(|_| USAGE)?;
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
            _ => Err(USAGE),
        }
    }

    fn events(&mut self, t: &[&str]) -> Reply {
        let tail = |n: usize| {
            let log = self.daemon.events();
            let (published, dropped) = (log.published(), log.dropped());
            let mut out = format!("OK events published={published} dropped={dropped}");
            for ev in log.tail(n) {
                out.push('\n');
                out.push_str(&ev.summary());
            }
            out
        };
        let verb = t.get(1).map(|s| s.to_ascii_uppercase());
        match (verb.as_deref(), t.get(2)) {
            (None, _) => Ok(tail(10)),
            (Some("TAIL"), Some(n)) => Ok(tail(n.parse().map_err(|_| USAGE)?)),
            (Some("SUBSCRIBE"), filter) => {
                let r = self.daemon.recorder();
                self.subscription = Some(Subscription::Trace {
                    scope: r.scope().to_string(),
                    cursor: r.live_edge(),
                    events: Some(filter.map_or_else(String::new, |s| s.to_string())),
                });
                Ok("OK subscribed events".into())
            }
            _ => Err(USAGE),
        }
    }

    fn postmortem(&mut self, t: &[&str]) -> Reply {
        let [_, tok] = t else {
            return Err(USAGE);
        };
        let id = Self::parse_app_id(tok).map_err(|_| USAGE)?;
        if let Some(pm) = self.daemon.postmortem(id) {
            return Ok(format!("OK postmortem {id}\n{}", pm.to_json().trim_end()));
        }
        let have: Vec<String> = self
            .daemon
            .postmortem_apps()
            .iter()
            .map(|a| a.to_string())
            .collect();
        Err(format!("ERR no postmortem for {id} (have: [{}])", have.join(",")).into())
    }

    fn apps(&mut self, _: &[&str]) -> Reply {
        let mut out = String::from("OK apps");
        for a in self.daemon.config().apps.values() {
            let placement: Vec<String> = a.placement.iter().map(|n| n.to_string()).collect();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use crate::host::NullHost;
    use starfish_checkpoint::store::CkptStore;
    use starfish_util::NodeId;
    use starfish_vni::{Fabric, Ideal, LayerCosts};

    impl MgmtSession {
        /// Whether a `SUBSCRIBE`/`FOLLOW` is armed on this session.
        pub(super) fn subscribed(&self) -> bool {
            self.subscription.is_some()
        }

        /// Drop the active subscription (client disconnected or issued a new
        /// command that replaces it).
        pub(super) fn unsubscribe(&mut self) {
            self.subscription = None;
        }
    }

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
        for row in COMMAND_USAGE {
            assert!(out.contains(row.usage), "HELP missing {}: {out}", row.name);
        }
        // And every advertised command really dispatches (no ERR unknown).
        for row in COMMAND_USAGE {
            let resp = s.handle_line(row.name);
            assert!(
                !resp.contains("unknown command"),
                "{} advertised but unhandled: {resp}",
                row.name
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
        // Sampled-out traffic is one tally line per peer in the dump.
        let rank = starfish_trace::FlightRecorder::new("app3.r0", 8);
        for tag in 0..3 {
            let ctx = rank.mint_send();
            rank.record_send(
                starfish_util::VirtualTime::from_nanos(tag),
                1,
                1,
                tag,
                8,
                ctx,
            );
        }
        s.daemon.trace_hub().register(rank);
        let dump = s.handle_line("TRACE DUMP app3.r0");
        assert!(
            dump.contains("\nunsampled r1: sent 2 (16 B) recvd 0 (0 B)"),
            "{dump}"
        );
        let tail = s.handle_line("TRACE TAIL 5 app3.r0");
        assert!(!tail.contains("unsampled"), "{tail}");
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
        d.publish_event(starfish_trace::event::EventKind::FaultInjected {
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
        d.publish_event(starfish_trace::event::EventKind::FaultInjected {
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

    /// The table checks arity for every command: extra or malformed
    /// arguments are a usage error, never silently accepted.
    #[test]
    fn arity_and_argument_errors_reply_with_the_row_usage() {
        let d = one_node_daemon();
        let mut s = MgmtSession::connect(d.clone(), 26);
        s.handle_line("LOGIN ADMIN starfish");
        for (bad, cmd) in [
            ("ADDNODE 5 x", "ADDNODE"),
            ("ADDNODE 5 99", "ADDNODE"),
            ("NODES extra", "NODES"),
            ("SUSPEND app1 extra", "SUSPEND"),
        ] {
            let row = COMMAND_USAGE.iter().find(|r| r.name == cmd).unwrap();
            assert_eq!(s.handle_line(bad), format!("ERR usage: {}", row.usage));
        }
        // Nothing was issued: node 5 never reached the configuration.
        settle(&d, "m");
        assert!(!d.config().nodes.contains_key(&NodeId(5)));
        // Role is checked before arity.
        let mut anon = MgmtSession::connect(d, 27);
        assert_eq!(anon.handle_line("NODES extra"), "ERR login required");
        assert_eq!(
            anon.handle_line("ADDNODE 5 x"),
            "ERR admin privileges required"
        );
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
