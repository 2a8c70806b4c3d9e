//! Lock-order and blocking-while-locked analysis.
//!
//! Lock *classes* are struct fields of `Mutex`/`RwLock` type, named
//! `<crate>::<Struct>.<field>` (every `vni::Inbox.q` instance shares one
//! class — cross-instance orders within a class show up as self-edges).
//! Per function we extract acquisition sites with guard scopes (a
//! `let`-bound guard lives to the end of its block or an explicit
//! `drop(guard)`; a temporary guard is line-scoped), then propagate
//! acquisitions through resolved intra-crate calls to a fixpoint, so a
//! guard held across `self.deliver(..)` picks up every lock `deliver`
//! (transitively) takes. Edges `A -> B` mean "B acquired while A held";
//! cycles in that graph are potential deadlocks, reported with both
//! acquisition chains.
//!
//! The same machinery drives the blocking-while-locked pass: blocking ops
//! (channel `recv`, condvar waits, `thread::sleep`, thread `join`, file
//! I/O) found — directly or through calls — inside the scope of a held
//! fabric-shard or daemon-state guard are findings. A condvar wait is
//! exempt with respect to the innermost held guard (that guard *is* the
//! condvar's paired mutex; waiting releases it).
//!
//! The notify-unlocked pass holds notifiers to the condvar contract the
//! `parking_lot` stand-in's wake-up skip relies on (a notify with no waiter
//! counted makes no syscall — DESIGN.md §5d): a `notify_one`/`notify_all`
//! on the condvar field of a struct that also has a mutex is a finding
//! unless the same function acquired that struct's mutex — directly or
//! through a resolved call — earlier in its body. The guard may be dropped
//! or a temporary by then: passing through the lock is what orders the
//! change against a waiter's look-then-park. A notify whose condvar does
//! not resolve to a field is not checked.
//!
//! Known limitations (deliberate, documented): call resolution is
//! intra-crate and name-based with receiver-type heuristics — unresolved
//! call and lock sites are *counted* in the stats rather than silently
//! ignored; guards returned from helper functions are attributed to the
//! helper, not the caller's scope; `match guard { .. }` temporaries are
//! line-scoped.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::model::{CallKind, CrateModel};
use crate::report::Finding;
use crate::source::token_in;

/// Escape hatch: an acquisition line (or the line above) carrying this
/// marker is removed from both passes — the triage reason belongs in the
/// comment.
pub(crate) const ALLOW_LOCK_ORDER: &str = "lint: allow(lock-order)";
/// Escape hatch for one blocking site (or call line).
pub(crate) const ALLOW_BLOCKING: &str = "lint: allow(blocking-while-locked)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockKind {
    Mutex,
    RwLock,
    Condvar,
}

/// One discovered lock field.
#[derive(Debug, Clone)]
pub(crate) struct LockField {
    pub(crate) strukt: String,
    pub(crate) field: String,
    pub(crate) kind: LockKind,
    pub(crate) class: String,
}

/// `A -> B`: B was acquired while A was held, with the acquisition chain
/// that proves it.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub a: String,
    pub b: String,
    pub witness: Vec<String>,
    pub(crate) file: PathBuf,
    pub(crate) line: usize,
}

#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    pub classes: Vec<String>,
    pub edges: Vec<LockEdge>,
}

/// A potential deadlock: `a -> b` somewhere, `b -> .. -> a` somewhere else.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub(crate) a: String,
    pub(crate) b: String,
    /// Chain establishing `a -> b`.
    pub(crate) forward: Vec<String>,
    /// Chains establishing the return path `b -> .. -> a` (empty for a
    /// self-cycle `a -> a`).
    pub(crate) back: Vec<String>,
    pub(crate) file: PathBuf,
    pub(crate) line: usize,
}

impl LockGraph {
    /// Mutation-test helper: the same graph minus every `a -> b` edge.
    pub fn without_edge(&self, a: &str, b: &str) -> LockGraph {
        LockGraph {
            classes: self.classes.clone(),
            edges: self
                .edges
                .iter()
                .filter(|e| !(e.a == a && e.b == b))
                .cloned()
                .collect(),
        }
    }

    /// All potential-deadlock cycles. Each unordered class pair on a cycle
    /// is reported once (anchored at the smaller class name); self-edges
    /// are reported as their own cycles.
    pub fn cycles(&self) -> Vec<Cycle> {
        // Representative edge per ordered pair.
        let mut rep: BTreeMap<(&str, &str), &LockEdge> = BTreeMap::new();
        for e in &self.edges {
            rep.entry((e.a.as_str(), e.b.as_str())).or_insert(e);
        }
        let mut out = Vec::new();
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        for (&(a, b), &edge) in &rep {
            if a == b {
                out.push(Cycle {
                    a: a.to_string(),
                    b: b.to_string(),
                    forward: edge.witness.clone(),
                    back: Vec::new(),
                    file: edge.file.clone(),
                    line: edge.line,
                });
                continue;
            }
            if let Some(path) = self.path(&rep, b, a) {
                let key = if a < b {
                    (a.to_string(), b.to_string())
                } else {
                    (b.to_string(), a.to_string())
                };
                if !seen.insert(key) {
                    continue;
                }
                let mut back = Vec::new();
                for e in path {
                    back.extend(e.witness.iter().cloned());
                }
                out.push(Cycle {
                    a: a.to_string(),
                    b: b.to_string(),
                    forward: edge.witness.clone(),
                    back,
                    file: edge.file.clone(),
                    line: edge.line,
                });
            }
        }
        out
    }

    /// BFS shortest path `from -> .. -> to` over representative edges.
    fn path<'g>(
        &self,
        rep: &BTreeMap<(&str, &str), &'g LockEdge>,
        from: &str,
        to: &str,
    ) -> Option<Vec<&'g LockEdge>> {
        let mut prev: BTreeMap<&str, &'g LockEdge> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            if n == to {
                // Reconstruct.
                let mut path = Vec::new();
                let mut cur = to;
                while cur != from {
                    let e = prev[cur];
                    path.push(e);
                    cur = e.a.as_str();
                }
                path.reverse();
                return Some(path);
            }
            for (&(a, b), &e) in rep.range((n, "")..) {
                if a != n {
                    break;
                }
                if b != from && !prev.contains_key(b) {
                    prev.insert(b, e);
                    queue.push_back(b);
                }
            }
        }
        None
    }
}

/// Which lock classes the blocking pass polices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watched {
    /// Workspace mode: fabric-shard (`vni::`) and daemon-state
    /// (`daemon::`) classes.
    VniDaemon,
    /// Fixture / single-crate mode: every class.
    All,
}

impl Watched {
    fn covers(&self, class: &str) -> bool {
        match self {
            Watched::All => true,
            Watched::VniDaemon => class.starts_with("vni::") || class.starts_with("daemon::"),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct LockStats {
    pub(crate) functions: usize,
    pub(crate) unresolved_locks: usize,
}

pub struct LockAnalysis {
    pub graph: LockGraph,
    pub(crate) blocking: Vec<Finding>,
    /// notify-unlocked findings.
    pub(crate) notify: Vec<Finding>,
    pub(crate) stats: LockStats,
}

// ---------------------------------------------------------------------------
// Token tables
// ---------------------------------------------------------------------------

const LOCK_TOKENS: &[(&str, LockKind)] = &[
    (".lock()", LockKind::Mutex),
    (".read()", LockKind::RwLock),
    (".write()", LockKind::RwLock),
];

/// Blocking ops. `.send(` is deliberately absent: the workspace's channels
/// are unbounded crossbeam senders (never block); the fabric's own
/// port-send path is covered through the lock graph instead.
const BLOCKING_TOKENS: &[(&str, &str)] = &[
    ("thread::sleep", "thread::sleep"),
    (".recv()", "channel recv"),
    (".recv_timeout(", "channel recv_timeout"),
    (".join()", "join"),
    ("File::open(", "file I/O"),
    ("File::create(", "file I/O"),
    ("fs::read", "file I/O"),
    ("fs::write", "file I/O"),
    (".read_to_string(", "file I/O"),
    ("OpenOptions::new", "file I/O"),
];

const NOTIFY_TOKENS: &[(&str, &str)] = &[
    (".notify_one()", "notify_one"),
    (".notify_all()", "notify_all"),
];

const WAIT_TOKENS: &[(&str, &str)] = &[
    (".wait(", "condvar wait"),
    (".wait_for(", "condvar wait_for"),
    (".wait_while(", "condvar wait_while"),
];

/// Method names too generic to resolve by bare-name uniqueness (std
/// collection / iterator vocabulary); they still resolve when the
/// receiver's type is inferable.
const STD_METHODS: &[&str] = &[
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "send",
    "recv",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "next",
    "iter",
    "into_iter",
    "clone",
    "drain",
    "extend",
    "take",
    "entry",
    "split",
    "join",
    "write",
    "read",
    "lock",
    "flush",
    "wait",
    "unwrap",
    "expect",
    "map",
    "and_then",
    "or_else",
    "ok",
    "err",
    "min",
    "max",
    "abs",
    "to_string",
    "into",
    "from",
    "new",
    "retain",
    "sort",
    "dedup",
    "last",
    "first",
    "count",
    "sum",
    "collect",
    "close",
    "drop",
    "get_or_insert_with",
];

// ---------------------------------------------------------------------------
// Per-crate lookup tables
// ---------------------------------------------------------------------------

struct CrateMaps {
    /// field name -> lock fields with that name.
    lock_fields: BTreeMap<String, Vec<LockField>>,
    /// field name -> (struct, type string) for *all* fields (type hints).
    all_fields: BTreeMap<String, Vec<(String, String)>>,
    struct_names: BTreeSet<String>,
    /// (self type, method) -> local fn indices.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// free fn name -> local fn indices.
    free: BTreeMap<String, Vec<usize>>,
    /// any fn name -> local fn indices (fallback resolution).
    by_name: BTreeMap<String, Vec<usize>>,
}

fn field_lock_kind(ty: &str) -> Option<LockKind> {
    if ty.contains("Mutex<") {
        Some(LockKind::Mutex)
    } else if ty.contains("RwLock<") {
        Some(LockKind::RwLock)
    } else if token_in(ty, "Condvar") {
        Some(LockKind::Condvar)
    } else {
        None
    }
}

fn crate_maps(model: &CrateModel) -> CrateMaps {
    let mut m = CrateMaps {
        lock_fields: BTreeMap::new(),
        all_fields: BTreeMap::new(),
        struct_names: BTreeSet::new(),
        methods: BTreeMap::new(),
        free: BTreeMap::new(),
        by_name: BTreeMap::new(),
    };
    for s in &model.structs {
        m.struct_names.insert(s.name.clone());
        for f in &s.fields {
            m.all_fields
                .entry(f.name.clone())
                .or_default()
                .push((s.name.clone(), f.ty.clone()));
            if let Some(kind) = field_lock_kind(&f.ty) {
                m.lock_fields
                    .entry(f.name.clone())
                    .or_default()
                    .push(LockField {
                        strukt: s.name.clone(),
                        field: f.name.clone(),
                        kind,
                        class: format!("{}::{}.{}", model.name, s.name, f.name),
                    });
            }
        }
    }
    for (i, f) in model.functions.iter().enumerate() {
        match &f.self_ty {
            Some(t) => {
                m.methods
                    .entry((t.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
            None => {
                m.free.entry(f.name.clone()).or_default().push(i);
            }
        }
        m.by_name.entry(f.name.clone()).or_default().push(i);
    }
    m
}

// ---------------------------------------------------------------------------
// Receiver chains and type hints
// ---------------------------------------------------------------------------

/// Walk backwards from `dot` (the `.` starting a method call) collecting
/// the receiver's identifier segments, closest first; balanced `(..)` /
/// `[..]` groups are skipped. `m.links.get(&k).unwrap()` at the final dot
/// gives `["unwrap", "get", "links", "m"]`.
fn receiver_chain(bytes: &[u8], dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = dot;
    loop {
        // Skip balanced call/index groups.
        while i > 0 && (bytes[i - 1] == b')' || bytes[i - 1] == b']') {
            let close = bytes[i - 1];
            let open = if close == b')' { b'(' } else { b'[' };
            let mut depth = 0;
            i -= 1;
            loop {
                if bytes[i] == close {
                    depth += 1;
                } else if bytes[i] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if i == 0 {
                    return out;
                }
                i -= 1;
            }
        }
        let e = i;
        let mut s = i;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        if s == e {
            break;
        }
        out.push(String::from_utf8_lossy(&bytes[s..e]).into_owned());
        i = s;
        if i >= 1 && bytes[i - 1] == b'.' {
            i -= 1;
            continue;
        }
        if i >= 2 && bytes[i - 1] == b':' && bytes[i - 2] == b':' {
            i -= 2;
            continue;
        }
        break;
    }
    out
}

/// Crate-struct type hints present in one line: direct struct-name tokens,
/// plus struct names mentioned in the type of any `.field` the line touches.
fn hints_in_line(line: &str, maps: &CrateMaps) -> Vec<String> {
    let mut out = Vec::new();
    for s in &maps.struct_names {
        if token_in(line, s) {
            out.push(s.clone());
        }
    }
    for (fname, entries) in &maps.all_fields {
        if dot_field_in(line, fname) {
            for (_, ty) in entries {
                for s in &maps.struct_names {
                    if token_in(ty, s) && !out.contains(s) {
                        out.push(s.clone());
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// `.field` appears in `line` (field access, not a bare ident).
fn dot_field_in(line: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    let mut from = 0;
    while let Some(p) = line[from..].find(&pat) {
        let start = from + p;
        let end = start + pat.len();
        let after = line[end..].chars().next();
        let ok_after = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if ok_after {
            return true;
        }
        from = end;
    }
    false
}

/// Lines to mine for binding hints of local `var` before `upto`: each line
/// mentioning the token, widened by up to 3 following lines when the
/// binding continues past the line end (`=`, `{` or `(` trailers).
fn binding_lines(code: &[String], start: usize, upto: usize, var: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for (j, line) in code.iter().enumerate().take(upto + 1).skip(start) {
        if !token_in(line, var) {
            continue;
        }
        out.push(j);
        let t = line.trim_end();
        if t.ends_with('=') || t.ends_with('{') || t.ends_with('(') || t.ends_with("=>") {
            for k in 1..=3 {
                if j + k <= upto {
                    out.push(j + k);
                }
            }
        }
        // Match-arm / if-let bindings: the scrutinee sits just above.
        let tt = line.trim_start();
        if (tt.contains(&format!("Some({var})")) || tt.contains(&format!("Ok({var})"))) && j > start
        {
            out.push(j - 1);
            if j >= start + 2 {
                out.push(j - 2);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

// ---------------------------------------------------------------------------
// Per-function extraction
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Acq {
    /// Index into the global class list.
    class: usize,
    line: usize,
    pos: usize,
    scope_end: usize,
    site: String,
}

#[derive(Debug, Clone)]
struct Blk {
    desc: &'static str,
    line: usize,
    pos: usize,
    is_wait: bool,
    site: String,
}

#[derive(Debug, Clone)]
struct RCall {
    callee: usize,
    line: usize,
    pos: usize,
    site: String,
}

/// A condvar notify whose condvar resolved to a field of `strukt`.
#[derive(Debug, Clone)]
struct Notify {
    strukt: String,
    line: usize,
    pos: usize,
    call: &'static str,
}

#[derive(Default)]
struct FnData {
    acqs: Vec<Acq>,
    blks: Vec<Blk>,
    calls: Vec<RCall>,
    notifies: Vec<Notify>,
}

fn in_scope(a: &Acq, line: usize, pos: usize) -> bool {
    if line == a.line {
        return pos > a.pos;
    }
    line > a.line && line <= a.scope_end
}

/// End line of a guard's scope: the enclosing block's close, or an
/// explicit `drop(guard)`.
fn guard_scope_end(
    code: &[String],
    body_end: usize,
    line: usize,
    after_pos: usize,
    guard: &str,
) -> usize {
    let mut depth = 0i32;
    for j in line..=body_end.min(code.len() - 1) {
        let text: &str = if j == line {
            &code[j][after_pos.min(code[j].len())..]
        } else {
            &code[j]
        };
        // drop(guard) ends the scope on this line.
        let mut from = 0;
        while let Some(p) = text[from..].find("drop(") {
            let start = from + p;
            let inner = text[start + 5..].split(')').next().unwrap_or("");
            let before = text[..start].chars().next_back();
            let boundary = !before.is_some_and(|c| c.is_alphanumeric() || c == '_');
            if boundary && inner.trim() == guard {
                return j;
            }
            from = start + 5;
        }
        for c in text.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth < 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    body_end
}

/// The `let` guard variable of an acquisition, if the statement binds one.
fn guard_var(prefix: &str) -> Option<String> {
    let t = prefix.trim();
    if !t.ends_with('=') {
        return None;
    }
    let words: Vec<&str> = t.split_whitespace().collect();
    match words.as_slice() {
        ["let", name, "="] => Some((*name).to_string()),
        ["let", "mut", name, "="] => Some((*name).to_string()),
        _ => None,
    }
}

fn loc(file: &std::path::Path, line: usize) -> String {
    format!("{}:{}", file.display(), line + 1)
}

// ---------------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------------

/// Run the lock passes over a set of crate models.
pub fn analyze(models: &[CrateModel], watched: Watched) -> LockAnalysis {
    let maps: Vec<CrateMaps> = models.iter().map(crate_maps).collect();

    // Global class list.
    let mut classes: Vec<String> = Vec::new();
    let mut class_idx: BTreeMap<String, usize> = BTreeMap::new();
    for m in &maps {
        for lfs in m.lock_fields.values() {
            for lf in lfs {
                if lf.kind == LockKind::Condvar {
                    continue;
                }
                if !class_idx.contains_key(&lf.class) {
                    class_idx.insert(lf.class.clone(), classes.len());
                    classes.push(lf.class.clone());
                }
            }
        }
    }

    // Global function table.
    let mut gfns: Vec<(usize, usize)> = Vec::new(); // (crate, local fn)
    let mut gidx: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (ci, m) in models.iter().enumerate() {
        for fi in 0..m.functions.len() {
            gidx.insert((ci, fi), gfns.len());
            gfns.push((ci, fi));
        }
    }

    let mut stats = LockStats::default();
    let mut data: Vec<FnData> = Vec::with_capacity(gfns.len());
    for &(ci, fi) in &gfns {
        data.push(extract_fn(
            models, &maps, ci, fi, &class_idx, &gidx, &mut stats,
        ));
    }
    stats.functions = gfns.len();

    // Fixpoint: transitive acquisitions and blocking ops per function.
    let mut trans_acq: Vec<BTreeMap<usize, Vec<String>>> = vec![BTreeMap::new(); gfns.len()];
    let mut trans_blk: Vec<BTreeMap<String, Vec<String>>> = vec![BTreeMap::new(); gfns.len()];
    for (g, d) in data.iter().enumerate() {
        for a in &d.acqs {
            trans_acq[g]
                .entry(a.class)
                .or_insert_with(|| vec![a.site.clone()]);
        }
        for b in &d.blks {
            trans_blk[g]
                .entry(b.desc.to_string())
                .or_insert_with(|| vec![b.site.clone()]);
        }
    }
    loop {
        let mut changed = false;
        for (g, d) in data.iter().enumerate() {
            for c in &d.calls {
                let acqs: Vec<(usize, Vec<String>)> = trans_acq[c.callee]
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
                for (class, chain) in acqs {
                    if let Entry::Vacant(e) = trans_acq[g].entry(class) {
                        let mut w = vec![c.site.clone()];
                        w.extend(chain.iter().take(6).cloned());
                        e.insert(w);
                        changed = true;
                    }
                }
                let blks: Vec<(String, Vec<String>)> = trans_blk[c.callee]
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                for (desc, chain) in blks {
                    if let Entry::Vacant(e) = trans_blk[g].entry(desc) {
                        let mut w = vec![c.site.clone()];
                        w.extend(chain.iter().take(6).cloned());
                        e.insert(w);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges and blocking findings.
    let mut edge_map: BTreeMap<(usize, usize, String, usize), Vec<String>> = BTreeMap::new();
    let mut blocking: Vec<Finding> = Vec::new();
    let mut blk_seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    for (g, d) in data.iter().enumerate() {
        let (ci, fi) = gfns[g];
        let model = &models[ci];
        let fdef = &model.functions[fi];
        if fdef.in_test {
            continue;
        }
        let file = &model.files[fdef.file].path;
        let qual = fdef.qualified();
        for a in &d.acqs {
            // Nested local acquisitions.
            for b in &d.acqs {
                if std::ptr::eq(a, b) || !in_scope(a, b.line, b.pos) {
                    continue;
                }
                edge_map
                    .entry((a.class, b.class, file.display().to_string(), a.line + 1))
                    .or_insert_with(|| vec![a.site.clone(), b.site.clone()]);
            }
            // Acquisitions reached through calls under the guard.
            for c in &d.calls {
                if !in_scope(a, c.line, c.pos) {
                    continue;
                }
                for (&class, chain) in &trans_acq[c.callee] {
                    let mut w = vec![a.site.clone(), c.site.clone()];
                    w.extend(chain.iter().take(6).cloned());
                    edge_map
                        .entry((a.class, class, file.display().to_string(), a.line + 1))
                        .or_insert(w);
                }
            }
            // Blocking ops while this guard is held.
            if !watched.covers(&classes[a.class]) {
                continue;
            }
            for b in &d.blks {
                if !in_scope(a, b.line, b.pos) {
                    continue;
                }
                if b.is_wait && innermost(&d.acqs, b.line, b.pos) == Some(a as *const Acq) {
                    // The innermost guard is the condvar's paired mutex.
                    continue;
                }
                if blk_seen.insert((qual.clone(), b.desc.to_string(), classes[a.class].clone())) {
                    let mut f = Finding::new(
                        "blocking-while-locked",
                        file.clone(),
                        b.line + 1,
                        format!(
                            "{} while holding `{}` — a blocked holder stalls every \
                             contender of that lock",
                            b.desc, classes[a.class]
                        ),
                    );
                    f.chains = vec![a.site.clone(), b.site.clone()];
                    f.subject = qual.clone();
                    f.detail = b.desc.to_string();
                    blocking.push(f);
                }
            }
            for c in &d.calls {
                if !in_scope(a, c.line, c.pos) {
                    continue;
                }
                for (desc, chain) in &trans_blk[c.callee] {
                    if blk_seen.insert((qual.clone(), desc.clone(), classes[a.class].clone())) {
                        let mut f = Finding::new(
                            "blocking-while-locked",
                            file.clone(),
                            c.line + 1,
                            format!(
                                "call may block ({desc}) while holding `{}`",
                                classes[a.class]
                            ),
                        );
                        f.chains = vec![a.site.clone(), c.site.clone()];
                        f.chains.extend(chain.iter().take(6).cloned());
                        f.subject = qual.clone();
                        f.detail = desc.clone();
                        blocking.push(f);
                    }
                }
            }
        }
    }

    let mut notify = Vec::new();
    for (g, d) in data.iter().enumerate() {
        let (ci, fi) = gfns[g];
        let model = &models[ci];
        let fdef = &model.functions[fi];
        for n in &d.notifies {
            let prefix = format!("{}::{}.", model.name, n.strukt);
            let earlier = |line: usize, pos: usize| (line, pos) < (n.line, n.pos);
            let locked = d
                .acqs
                .iter()
                .any(|a| earlier(a.line, a.pos) && classes[a.class].starts_with(&prefix))
                || d.calls.iter().any(|c| {
                    earlier(c.line, c.pos)
                        && trans_acq[c.callee]
                            .keys()
                            .any(|&k| classes[k].starts_with(&prefix))
                });
            if locked {
                continue;
            }
            let mut f = Finding::new(
                "notify-unlocked",
                model.files[fdef.file].path.clone(),
                n.line + 1,
                format!(
                    "`{}` on `{}`'s condvar, and `{}` has not taken that struct's mutex \
                     by then — change the waited-on state under the waiter's mutex, then \
                     notify: a waiter between its look and its park misses the wake-up",
                    n.call,
                    n.strukt,
                    fdef.qualified()
                ),
            );
            f.subject = fdef.qualified();
            f.detail = n.call.to_string();
            notify.push(f);
        }
    }

    let mut edges = Vec::new();
    for ((a, b, file, line), witness) in edge_map {
        edges.push(LockEdge {
            a: classes[a].clone(),
            b: classes[b].clone(),
            witness,
            file: PathBuf::from(file),
            line,
        });
    }
    LockAnalysis {
        graph: LockGraph { classes, edges },
        blocking,
        notify,
        stats,
    }
}

fn innermost(acqs: &[Acq], line: usize, pos: usize) -> Option<*const Acq> {
    acqs.iter()
        .filter(|a| in_scope(a, line, pos))
        .max_by_key(|a| (a.line, a.pos))
        .map(|a| a as *const Acq)
}

#[allow(clippy::too_many_arguments)]
fn extract_fn(
    models: &[CrateModel],
    maps: &[CrateMaps],
    ci: usize,
    fi: usize,
    class_idx: &BTreeMap<String, usize>,
    gidx: &BTreeMap<(usize, usize), usize>,
    stats: &mut LockStats,
) -> FnData {
    let model = &models[ci];
    let m = &maps[ci];
    let fdef = &model.functions[fi];
    let mut d = FnData::default();
    let Some((body_start, body_end)) = fdef.body else {
        return d;
    };
    if fdef.in_test {
        return d;
    }
    let sf = &model.files[fdef.file];
    let qual = fdef.qualified();

    for j in body_start..=body_end.min(sf.code.len() - 1) {
        let line = &sf.code[j];
        let bytes = line.as_bytes();

        // Lock acquisitions.
        for &(tok, kind) in LOCK_TOKENS {
            let mut from = 0;
            while let Some(p) = line[from..].find(tok) {
                let dot = from + p;
                from = dot + tok.len();
                if sf.allowed(j, ALLOW_LOCK_ORDER) {
                    continue;
                }
                match resolve_lock(
                    m,
                    fdef.self_ty.as_deref(),
                    &sf.code,
                    fdef.sig_line,
                    j,
                    bytes,
                    dot,
                    kind,
                ) {
                    Some(lf) => {
                        let guard = guard_var(&line[..chain_start(bytes, dot)]);
                        let scope_end = match &guard {
                            Some(gv) => guard_scope_end(&sf.code, body_end, j, dot + tok.len(), gv),
                            None => j,
                        };
                        d.acqs.push(Acq {
                            class: class_idx[&lf.class],
                            line: j,
                            pos: dot,
                            scope_end,
                            site: format!("{qual} acquires {} at {}", lf.class, loc(&sf.path, j)),
                        });
                    }
                    None => stats.unresolved_locks += 1,
                }
            }
        }

        // Blocking ops.
        for &(tok, desc) in BLOCKING_TOKENS {
            let mut from = 0;
            while let Some(p) = line[from..].find(tok) {
                let pos = from + p;
                from = pos + tok.len();
                if sf.allowed(j, ALLOW_BLOCKING) {
                    continue;
                }
                d.blks.push(Blk {
                    desc,
                    line: j,
                    pos,
                    is_wait: false,
                    site: format!("{desc} in {qual} at {}", loc(&sf.path, j)),
                });
            }
        }
        for &(tok, desc) in WAIT_TOKENS {
            let mut from = 0;
            while let Some(p) = line[from..].find(tok) {
                let pos = from + p;
                from = pos + tok.len();
                if sf.allowed(j, ALLOW_BLOCKING) {
                    continue;
                }
                d.blks.push(Blk {
                    desc,
                    line: j,
                    pos,
                    is_wait: true,
                    site: format!("{desc} in {qual} at {}", loc(&sf.path, j)),
                });
            }
        }

        for &(tok, call) in NOTIFY_TOKENS {
            let mut from = 0;
            while let Some(p) = line[from..].find(tok) {
                let dot = from + p;
                from = dot + tok.len();
                if let Some(strukt) = resolve_condvar(m, fdef.self_ty.as_deref(), bytes, dot) {
                    d.notifies.push(Notify {
                        strukt,
                        line: j,
                        pos: dot,
                        call,
                    });
                }
            }
        }

        // Calls.
        for call in CrateModel::calls_in_line(line, j) {
            let resolved = resolve_call(
                m,
                model,
                fdef.self_ty.as_deref(),
                &sf.code,
                fdef.sig_line,
                &call,
                bytes,
            );
            if let Some(local) = resolved {
                let callee_qual = model.functions[local].qualified();
                d.calls.push(RCall {
                    callee: gidx[&(ci, local)],
                    line: j,
                    pos: call.pos,
                    site: format!("{qual} -> {callee_qual} at {}", loc(&sf.path, j)),
                });
            }
        }
    }
    d
}

/// Index where the receiver chain of the call at `dot` starts.
fn chain_start(bytes: &[u8], dot: usize) -> usize {
    let mut i = dot;
    loop {
        while i > 0 && (bytes[i - 1] == b')' || bytes[i - 1] == b']') {
            let close = bytes[i - 1];
            let open = if close == b')' { b'(' } else { b'[' };
            let mut depth = 0;
            i -= 1;
            loop {
                if bytes[i] == close {
                    depth += 1;
                } else if bytes[i] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if i == 0 {
                    return 0;
                }
                i -= 1;
            }
        }
        let e = i;
        let mut s = i;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        if s == e {
            return i;
        }
        i = s;
        if i >= 1 && bytes[i - 1] == b'.' {
            i -= 1;
            continue;
        }
        if i >= 2 && bytes[i - 1] == b':' && bytes[i - 2] == b':' {
            i -= 2;
            continue;
        }
        return i;
    }
}

/// Resolve a `.lock()` / `.read()` / `.write()` receiver to a lock field.
#[allow(clippy::too_many_arguments)]
fn resolve_lock<'m>(
    m: &'m CrateMaps,
    self_ty: Option<&str>,
    code: &[String],
    sig_line: usize,
    line: usize,
    bytes: &[u8],
    dot: usize,
    kind: LockKind,
) -> Option<&'m LockField> {
    let chain = receiver_chain(bytes, dot);
    // Direct field segment match, closest first.
    for seg in &chain {
        if let Some(cands) = m.lock_fields.get(seg) {
            let of_kind: Vec<&LockField> = cands.iter().filter(|c| c.kind == kind).collect();
            if of_kind.is_empty() {
                continue;
            }
            if let Some(t) = self_ty {
                if let Some(hit) = of_kind.iter().find(|c| c.strukt == t) {
                    return Some(hit);
                }
            }
            let structs: BTreeSet<&str> = of_kind.iter().map(|c| c.strukt.as_str()).collect();
            if structs.len() == 1 {
                return Some(of_kind[0]);
            }
            return None; // ambiguous across structs
        }
    }
    // Local binding hint: `let link = .. m.links.get(..) ..`.
    if chain.len() == 1 && chain[0] != "self" {
        let var = &chain[0];
        let mut best: Option<&LockField> = None;
        for j in binding_lines(code, sig_line, line, var) {
            if j == line {
                continue;
            }
            for lfs in m.lock_fields.values() {
                for lf in lfs {
                    if lf.kind == kind && dot_field_in(&code[j], &lf.field) {
                        best = Some(lf);
                    }
                }
            }
        }
        if best.is_some() {
            return best;
        }
    }
    None
}

/// The struct whose condvar field a `.notify_*()` at `dot` is called on,
/// if that struct also has a mutex for the condvar to pair with.
fn resolve_condvar(
    m: &CrateMaps,
    self_ty: Option<&str>,
    bytes: &[u8],
    dot: usize,
) -> Option<String> {
    for seg in receiver_chain(bytes, dot) {
        let Some(entries) = m.all_fields.get(&seg) else {
            continue;
        };
        let owners: BTreeSet<&str> = entries
            .iter()
            .filter(|(_, ty)| token_in(ty, "Condvar"))
            .map(|(s, _)| s.as_str())
            .collect();
        if owners.is_empty() {
            continue;
        }
        let owner = match self_ty.filter(|t| owners.contains(t)) {
            Some(t) => t,
            None if owners.len() == 1 => owners.into_iter().next()?,
            None => return None,
        };
        let paired = m
            .lock_fields
            .values()
            .flatten()
            .any(|lf| lf.strukt == owner && lf.kind != LockKind::Condvar);
        return paired.then(|| owner.to_string());
    }
    None
}

/// Resolve a call site to a local function index, confidently or not at all.
fn resolve_call(
    m: &CrateMaps,
    model: &CrateModel,
    self_ty: Option<&str>,
    code: &[String],
    sig_line: usize,
    call: &crate::model::CallSite,
    bytes: &[u8],
) -> Option<usize> {
    let name = call.callee.as_str();
    match call.kind {
        CallKind::Qualified => {
            let q = call.qualifier.as_deref()?;
            let ty = if q == "Self" { self_ty? } else { q };
            let v = m.methods.get(&(ty.to_string(), name.to_string()))?;
            (v.len() == 1).then(|| v[0])
        }
        CallKind::Plain => {
            let v = m.free.get(name)?;
            (v.len() == 1).then(|| v[0])
        }
        CallKind::Method => {
            let dot = call.pos.checked_sub(1)?;
            let chain = receiver_chain(bytes, dot);
            // `self.name(..)`.
            if chain.as_slice() == ["self"] {
                let t = self_ty?;
                let v = m.methods.get(&(t.to_string(), name.to_string()))?;
                return (v.len() == 1).then(|| v[0]);
            }
            // Receiver typed through a field: `self.inner.helper(..)`.
            if let Some(first) = chain.first() {
                if let Some(entries) = m.all_fields.get(first) {
                    let mut cands: BTreeSet<&str> = BTreeSet::new();
                    for (_, ty) in entries {
                        for s in &m.struct_names {
                            if token_in(ty, s)
                                && m.methods.contains_key(&(s.clone(), name.to_string()))
                            {
                                cands.insert(s.as_str());
                            }
                        }
                    }
                    if cands.len() == 1 {
                        let t = *cands.iter().next().unwrap();
                        let v = &m.methods[&(t.to_string(), name.to_string())];
                        return (v.len() == 1).then(|| v[0]);
                    }
                }
            }
            // Receiver typed through a local binding.
            if chain.len() == 1 && chain[0] != "self" {
                let var = &chain[0];
                let mut last: Option<usize> = None;
                for j in binding_lines(code, sig_line, call.line, var) {
                    if j == call.line {
                        continue;
                    }
                    let mut cands: BTreeSet<&str> = BTreeSet::new();
                    for s in hints_in_line(&code[j], m) {
                        if m.methods.contains_key(&(s.clone(), name.to_string())) {
                            if let Some(s_ref) = m.struct_names.get(&s) {
                                cands.insert(s_ref.as_str());
                            }
                        }
                    }
                    if cands.len() == 1 {
                        let t = *cands.iter().next().unwrap();
                        let v = &m.methods[&(t.to_string(), name.to_string())];
                        if v.len() == 1 {
                            last = Some(v[0]);
                        }
                    }
                }
                if last.is_some() {
                    return last;
                }
            }
            // Bare-name fallback: unique in crate and not std vocabulary.
            if STD_METHODS.contains(&name) {
                return None;
            }
            let v = m.by_name.get(name)?;
            let with_self: Vec<usize> = v
                .iter()
                .copied()
                .filter(|&i| model.functions[i].self_ty.is_some())
                .collect();
            (with_self.len() == 1).then(|| with_self[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CrateModel;
    use crate::source::SourceFile;
    use std::path::Path;

    fn run(src: &str) -> LockAnalysis {
        let model = CrateModel::from_files(
            "t",
            vec![SourceFile::from_text(Path::new("t/src/lib.rs"), src)],
        );
        analyze(&[model], Watched::All)
    }

    const TWO_LOCKS: &str = concat!(
        "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n",
        "impl S {\n",
        "    fn ab(&self) {\n",
        "        let ga = self.a.lock();\n",
        "        let gb = self.b.lock();\n",
        "        drop(gb); drop(ga);\n",
        "    }\n",
        "}\n",
    );

    #[test]
    fn nested_acquisition_makes_an_edge() {
        let la = run(TWO_LOCKS);
        assert_eq!(la.graph.edges.len(), 1, "{:?}", la.graph.edges);
        let e = &la.graph.edges[0];
        assert_eq!((e.a.as_str(), e.b.as_str()), ("t::S.a", "t::S.b"));
        assert!(la.graph.cycles().is_empty());
    }

    #[test]
    fn drop_ends_the_guard_scope() {
        let la = run(concat!(
            "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n",
            "impl S {\n",
            "    fn ok(&self) {\n",
            "        let ga = self.a.lock();\n",
            "        drop(ga);\n",
            "        let gb = self.b.lock();\n",
            "        drop(gb);\n",
            "    }\n",
            "}\n",
        ));
        assert!(la.graph.edges.is_empty(), "{:?}", la.graph.edges);
    }

    #[test]
    fn interprocedural_edge_through_a_self_call() {
        let la = run(concat!(
            "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n",
            "impl S {\n",
            "    fn outer(&self) {\n",
            "        let ga = self.a.lock();\n",
            "        self.inner_b();\n",
            "        drop(ga);\n",
            "    }\n",
            "    fn inner_b(&self) {\n",
            "        let gb = self.b.lock();\n",
            "        drop(gb);\n",
            "    }\n",
            "}\n",
        ));
        let pairs: Vec<(&str, &str)> = la
            .graph
            .edges
            .iter()
            .map(|e| (e.a.as_str(), e.b.as_str()))
            .collect();
        assert!(pairs.contains(&("t::S.a", "t::S.b")), "{pairs:?}");
        let e = la.graph.edges.iter().find(|e| e.b == "t::S.b").unwrap();
        assert!(e.witness.len() >= 3, "{:?}", e.witness);
    }

    #[test]
    fn cycle_detected_and_killed_by_edge_removal() {
        let la = run(concat!(
            "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n",
            "impl S {\n",
            "    fn ab(&self) {\n",
            "        let ga = self.a.lock();\n",
            "        let gb = self.b.lock();\n",
            "    }\n",
            "    fn ba(&self) {\n",
            "        let gb = self.b.lock();\n",
            "        let ga = self.a.lock();\n",
            "    }\n",
            "}\n",
        ));
        let cycles = la.graph.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(!cycles[0].forward.is_empty() && !cycles[0].back.is_empty());
        // Mutation: removing either direction removes the cycle.
        assert!(la
            .graph
            .without_edge("t::S.a", "t::S.b")
            .cycles()
            .is_empty());
        assert!(la
            .graph
            .without_edge("t::S.b", "t::S.a")
            .cycles()
            .is_empty());
    }

    #[test]
    fn allow_marker_suppresses_the_acquisition() {
        let la = run(concat!(
            "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n",
            "impl S {\n",
            "    fn ab(&self) {\n",
            "        let ga = self.a.lock();\n",
            "        let gb = self.b.lock(); // lint: allow(lock-order)\n",
            "    }\n",
            "}\n",
        ));
        assert!(la.graph.edges.is_empty(), "{:?}", la.graph.edges);
    }

    #[test]
    fn blocking_while_locked_flagged_but_paired_wait_exempt() {
        let la = run(concat!(
            "pub struct S { q: Mutex<u32>, cond: Condvar }\n",
            "impl S {\n",
            "    fn bad(&self) {\n",
            "        let g = self.q.lock();\n",
            "        std::thread::sleep(d);\n",
            "    }\n",
            "    fn pop_wait(&self) {\n",
            "        let mut g = self.q.lock();\n",
            "        self.cond.wait(&mut g);\n",
            "    }\n",
            "}\n",
        ));
        assert_eq!(la.blocking.len(), 1, "{:?}", la.blocking);
        assert_eq!(la.blocking[0].subject, "S::bad");
        assert_eq!(la.blocking[0].detail, "thread::sleep");
    }

    #[test]
    fn blocking_through_a_call_is_found_with_a_chain() {
        let la = run(concat!(
            "pub struct S { q: Mutex<u32> }\n",
            "impl S {\n",
            "    fn outer(&self) {\n",
            "        let g = self.q.lock();\n",
            "        self.slow_io();\n",
            "    }\n",
            "    fn slow_io(&self) {\n",
            "        let _ = std::fs::read(\"/tmp/x\");\n",
            "    }\n",
            "}\n",
        ));
        assert_eq!(la.blocking.len(), 1, "{:?}", la.blocking);
        assert!(
            la.blocking[0].chains.len() >= 3,
            "{:?}",
            la.blocking[0].chains
        );
    }

    #[test]
    fn notify_without_the_waiters_mutex_is_flagged() {
        let la = run(concat!(
            "struct Shared<T> { queue: Mutex<VecDeque<T>>, avail: Condvar, senders: AtomicUsize }\n",
            "impl<T> Drop for Sender<T> {\n",
            "    fn drop(&mut self) {\n",
            "        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {\n",
            "            self.shared.avail.notify_all();\n",
            "        }\n",
            "    }\n",
            "}\n",
            "pub struct Flag { up: AtomicBool, m: Mutex<()>, cv: Condvar }\n",
            "impl Flag {\n",
            "    fn raise(&self) {\n",
            "        self.up.store(true, Ordering::SeqCst);\n",
            "        self.cv.notify_one();\n",
            "    }\n",
            "}\n",
        ));
        let got: Vec<(&str, &str, usize)> = la
            .notify
            .iter()
            .map(|f| (f.subject.as_str(), f.detail.as_str(), f.line))
            .collect();
        assert_eq!(
            got,
            vec![
                ("Sender::drop", "notify_all", 5),
                ("Flag::raise", "notify_one", 13)
            ]
        );
        assert!(la.notify.iter().all(|f| f.rule == "notify-unlocked"));
    }

    #[test]
    fn notify_after_passing_through_the_mutex_is_clean() {
        let la = run(concat!(
            "struct Shared<T> { queue: Mutex<VecDeque<T>>, avail: Condvar, senders: AtomicUsize }\n",
            "impl<T> Drop for Sender<T> {\n",
            "    fn drop(&mut self) {\n",
            "        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {\n",
            "            drop(self.shared.queue.lock());\n",
            "            self.shared.avail.notify_all();\n",
            "        }\n",
            "    }\n",
            "}\n",
            "pub struct Inbox { q: Mutex<State>, cond: Condvar }\n",
            "impl Inbox {\n",
            "    fn push(&self, p: P) {\n",
            "        let mut g = self.q.lock();\n",
            "        g.packets.push_back(p);\n",
            "        drop(g);\n",
            "        self.cond.notify_one();\n",
            "    }\n",
            "    fn kick(&self) {\n",
            "        self.q.lock().kicked = true;\n",
            "        self.cond.notify_all();\n",
            "    }\n",
            "    fn close(&self) {\n",
            "        self.shut();\n",
            "        self.cond.notify_all();\n",
            "    }\n",
            "    fn shut(&self) {\n",
            "        self.q.lock().closed = true;\n",
            "    }\n",
            "}\n",
            "pub struct Outputs { inner: Arc<(Mutex<Map>, Condvar)> }\n",
            "impl Outputs {\n",
            "    fn publish(&self, v: V) {\n",
            "        self.inner.0.lock().push(v);\n",
            "        self.inner.1.notify_all();\n",
            "    }\n",
            "}\n",
            "pub struct Condvar { inner: std::sync::Condvar, waiters: AtomicUsize }\n",
            "impl Condvar {\n",
            "    fn notify_one(&self) { self.inner.notify_one(); }\n",
            "}\n",
        ));
        assert!(la.notify.is_empty(), "{:?}", la.notify);
    }

    #[test]
    fn rwlock_read_resolves_but_io_write_does_not() {
        let la = run(concat!(
            "pub struct S { map: RwLock<u32> }\n",
            "impl S {\n",
            "    fn r(&self) { let g = self.map.read(); }\n",
            "    fn io(&self, w: &mut W) { w.write(); }\n",
            "}\n",
        ));
        // `.read()` resolved to the RwLock field; `w.write()` has no RwLock
        // receiver and is counted unresolved instead of inventing a class.
        assert_eq!(la.graph.classes, vec!["t::S.map".to_string()]);
        assert_eq!(la.stats.unresolved_locks, 1);
    }

    #[test]
    fn local_binding_resolves_lock_field_through_a_getter_line() {
        let la = run(concat!(
            "pub struct M { links: Mutex<u32>, ports: u32 }\n",
            "pub struct S { m: M }\n",
            "impl S {\n",
            "    fn f(&self) {\n",
            "        let link = self.m.links;\n",
            "        let g = link.lock();\n",
            "    }\n",
            "}\n",
        ));
        assert_eq!(la.graph.classes, vec!["t::M.links".to_string()]);
        assert_eq!(la.stats.unresolved_locks, 0);
    }
}
