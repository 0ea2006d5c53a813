//! Host-side hierarchical zone profiler.
//!
//! The simulator's other observability planes (`sais-obs`, the telemetry
//! windows) measure *simulated* time; this crate measures the *host* —
//! where the engine's own wall-clock goes: wheel advance vs batch
//! dispatch vs model stages vs memory touches vs export. The design
//! constraints, in order:
//!
//! 1. **Disabled is one branch.** Every [`zone!`] site compiles to a
//!    single relaxed atomic load and a conditional when profiling is off
//!    — no clock read, no thread-local access, no allocation. Profiling
//!    is off by default and only `--profile` turns it on.
//! 2. **Bit-inert.** The profiler reads host clocks and nothing else; it
//!    never touches simulation state, so every figure CSV and telemetry
//!    JSONL is byte-identical with profiling on or off (pinned by
//!    subprocess tests and CI).
//! 3. **Hierarchical self-time.** Zones nest; each completed zone charges
//!    its enclosing zone's `child_ns`, so a node's *self time* is its
//!    total minus its children's — self times partition wall time
//!    exactly, which is what makes the phase breakdown additive.
//!
//! Recording path: [`ZoneGuard::enter`] finds (or creates) the zone's
//! node in a per-thread tree keyed by `(parent, name)` and pushes a stack
//! frame with an [`Instant`]; the guard's `Drop` computes the nanosecond
//! delta and appends a sample to a bounded thread-local ring. The ring is
//! drained into the tree whenever the zone stack returns to depth zero —
//! so the fold cost lands *outside* every measured zone — and a ring that
//! fills while still nested drops further samples, counting them and
//! warning once on stderr with the capacity knob ([`RING_CAP_ENV`]).
//! Threads fold their trees into a global registry (merged by thread
//! label) when they exit; [`report`] merges the registry with the calling
//! thread's live tree.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment knob for the per-thread sample-ring capacity.
pub const RING_CAP_ENV: &str = "SAIS_PROF_RING_CAP";

/// Default per-thread sample-ring capacity (samples between drains; a
/// drain happens every time the zone stack returns to depth zero, so
/// this bounds zones completed *inside one top-level zone*).
pub const DEFAULT_RING_CAP: usize = 65_536;

/// Top-level phase buckets, in the order every breakdown reports them.
/// A zone named `<phase>.<rest>` charges its *self* time to `<phase>`;
/// anything else lands in `other`. Self times partition totals exactly
/// (see module docs), so the buckets are additive and sum to the
/// profiled wall time spent inside zones.
pub const PHASES: [&str; NUM_PHASES] = ["engine", "model", "mem", "net", "export", "other"];

/// Number of phase buckets in [`PHASES`].
pub const NUM_PHASES: usize = 6;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static OVERFLOW_WARNED: AtomicBool = AtomicBool::new(false);

/// Turn recording on or off process-wide. Guards opened while enabled
/// still close correctly after a disable (the stack frame, not the
/// global flag, decides the pop).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether zones record. The one branch every disabled [`zone!`] pays.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Completed zone samples dropped at ring capacity, process-wide.
pub fn dropped_samples() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Open a named profiling zone for the rest of the enclosing scope.
///
/// ```
/// # use sais_prof::zone;
/// {
///     zone!("engine.dispatch");
///     // ... work attributed to engine.dispatch ...
/// }
/// ```
///
/// One zone per scope: a second `zone!` in the same scope nests
/// *alongside*, not inside — wrap the inner work in a block instead.
#[macro_export]
macro_rules! zone {
    ($name:literal) => {
        let _sais_prof_zone_guard = if $crate::enabled() {
            Some($crate::ZoneGuard::enter($name))
        } else {
            None
        };
    };
}

/// One frame of the live zone stack.
struct Frame {
    node: u32,
    start: Instant,
    child_ns: u64,
}

/// A completed zone, pending aggregation into the tree.
#[derive(Clone, Copy)]
struct Sample {
    node: u32,
    total_ns: u64,
    self_ns: u64,
}

/// One node of the per-thread zone tree (arena-indexed).
struct Node {
    name: &'static str,
    children: Vec<u32>,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_ns: u64,
}

impl Node {
    fn new(name: &'static str) -> Node {
        Node {
            name,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            max_ns: 0,
        }
    }
}

struct ThreadProf {
    label: String,
    /// Arena; node 0 is the synthetic root (never sampled).
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    ring: Vec<Sample>,
    cap: usize,
}

impl ThreadProf {
    fn new() -> ThreadProf {
        let cap = std::env::var(RING_CAP_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_RING_CAP);
        ThreadProf {
            label: std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string(),
            nodes: vec![Node::new("")],
            stack: Vec::new(),
            ring: Vec::new(),
            cap,
        }
    }

    fn find_or_make(&mut self, parent: u32, name: &'static str) -> u32 {
        // Linear scan: zone trees are a few dozen nodes at most, and the
        // common case (repeat visit) hits the first compares.
        for &c in &self.nodes[parent as usize].children {
            if std::ptr::eq(self.nodes[c as usize].name, name)
                || self.nodes[c as usize].name == name
            {
                return c;
            }
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::new(name));
        self.nodes[parent as usize].children.push(id);
        id
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map(|f| f.node).unwrap_or(0);
        let node = self.find_or_make(parent, name);
        // Read the clock last, so tree maintenance is not charged to the
        // zone itself.
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let total_ns = frame.start.elapsed().as_nanos() as u64;
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total_ns;
        }
        if self.ring.len() < self.cap {
            self.ring.push(Sample {
                node: frame.node,
                total_ns,
                self_ns,
            });
        } else if self.stack.is_empty() {
            // About to drain anyway: fold first, then keep the sample.
            self.drain_ring();
            self.ring.push(Sample {
                node: frame.node,
                total_ns,
                self_ns,
            });
        } else {
            // Ring full mid-nesting: draining here would charge the fold
            // walk to every enclosing zone, so the sample is dropped —
            // loudly, naming the knob (see `warn_overflow_once`).
            DROPPED.fetch_add(1, Ordering::Relaxed);
            warn_overflow_once(self.cap);
        }
        if self.stack.is_empty() {
            self.drain_ring();
        }
    }

    /// Fold every pending sample into the tree. Called only at zone
    /// depth zero (and from [`report`]), so the fold cost never lands
    /// inside a measured zone.
    fn drain_ring(&mut self) {
        for s in self.ring.drain(..) {
            let n = &mut self.nodes[s.node as usize];
            n.count += 1;
            n.total_ns += s.total_ns;
            n.self_ns += s.self_ns;
            n.max_ns = n.max_ns.max(s.total_ns);
        }
    }

    /// Snapshot the tree as public nested nodes; `None` if nothing was
    /// ever recorded on this thread.
    fn snapshot(&self) -> Option<ThreadTree> {
        if self.nodes[0].children.is_empty() {
            return None;
        }
        fn build(nodes: &[Node], id: u32) -> ZoneNode {
            let n = &nodes[id as usize];
            ZoneNode {
                name: n.name.to_string(),
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                max_ns: n.max_ns,
                children: n.children.iter().map(|&c| build(nodes, c)).collect(),
            }
        }
        Some(ThreadTree {
            label: self.label.clone(),
            roots: self.nodes[0]
                .children
                .iter()
                .map(|&c| build(&self.nodes, c))
                .collect(),
        })
    }
}

impl Drop for ThreadProf {
    fn drop(&mut self) {
        // Thread exit: flush pending samples and fold the tree into the
        // global registry so short-lived worker threads survive into the
        // final report.
        self.drain_ring();
        if let Some(tree) = self.snapshot() {
            let mut reg = REGISTRY.lock().expect("no poisoning");
            merge_tree(&mut reg, tree);
        }
    }
}

fn warn_overflow_once(cap: usize) {
    if !OVERFLOW_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: zone profiler ring overflowed at {cap} pending sample(s); \
             dropping completed zones — raise {RING_CAP_ENV} (default {DEFAULT_RING_CAP}) \
             to keep the full profile"
        );
    }
}

thread_local! {
    static TLS: RefCell<ThreadProf> = RefCell::new(ThreadProf::new());
}

/// Trees of threads that have already exited, merged by label.
static REGISTRY: Mutex<Vec<ThreadTree>> = Mutex::new(Vec::new());

/// An open zone; closing (dropping) it records the sample. Created by
/// [`zone!`] — the macro is the API, this type is its plumbing.
pub struct ZoneGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl ZoneGuard {
    /// Open a zone on the current thread (use [`zone!`] instead, which
    /// also pays only one branch when profiling is off).
    pub fn enter(name: &'static str) -> ZoneGuard {
        TLS.with(|t| t.borrow_mut().enter(name));
        ZoneGuard {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for ZoneGuard {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown (after the
        // TLS destructor) must not abort the process.
        let _ = TLS.try_with(|t| t.borrow_mut().exit());
    }
}

/// Label the calling thread in reports (defaults to the thread's name).
/// Trees merge by label, so e.g. every pool's `worker3` accumulates into
/// one tree across pools.
pub fn set_thread_label(label: &str) {
    TLS.with(|t| t.borrow_mut().label = label.to_string());
}

/// Aggregated statistics of one zone (one tree node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneNode {
    /// Zone name as written at the [`zone!`] site.
    pub name: String,
    /// Completed visits.
    pub count: u64,
    /// Total wall nanoseconds inside the zone, children included.
    pub total_ns: u64,
    /// Wall nanoseconds minus child zones — the additive quantity.
    pub self_ns: u64,
    /// Longest single visit, nanoseconds.
    pub max_ns: u64,
    /// Child zones, in first-entry order.
    pub children: Vec<ZoneNode>,
}

/// One thread's (or merged label's) zone tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTree {
    /// Thread label (see [`set_thread_label`]).
    pub label: String,
    /// Top-level zones, in first-entry order.
    pub roots: Vec<ZoneNode>,
}

/// A full profile snapshot: every exited thread plus the caller.
#[derive(Debug, Clone)]
pub struct ZoneReport {
    /// Per-label zone trees, sorted by label.
    pub threads: Vec<ThreadTree>,
    /// Samples lost to ring overflow (see [`RING_CAP_ENV`]).
    pub dropped_samples: u64,
}

fn merge_nodes(into: &mut Vec<ZoneNode>, from: Vec<ZoneNode>) {
    for f in from {
        match into.iter_mut().find(|n| n.name == f.name) {
            Some(n) => {
                n.count += f.count;
                n.total_ns += f.total_ns;
                n.self_ns += f.self_ns;
                n.max_ns = n.max_ns.max(f.max_ns);
                merge_nodes(&mut n.children, f.children);
            }
            None => into.push(f),
        }
    }
}

fn merge_tree(into: &mut Vec<ThreadTree>, tree: ThreadTree) {
    match into.iter_mut().find(|t| t.label == tree.label) {
        Some(t) => merge_nodes(&mut t.roots, tree.roots),
        None => into.push(tree),
    }
}

/// Snapshot the profile: exited threads (global registry) merged with the
/// calling thread's live tree. Non-destructive — recording continues and
/// repeated calls see cumulative totals.
pub fn report() -> ZoneReport {
    let mut threads = REGISTRY.lock().expect("no poisoning").clone();
    let _ = TLS.try_with(|t| {
        let mut t = t.borrow_mut();
        t.drain_ring();
        if let Some(tree) = t.snapshot() {
            merge_tree(&mut threads, tree);
        }
    });
    threads.sort_by(|a, b| a.label.cmp(&b.label));
    ZoneReport {
        threads,
        dropped_samples: dropped_samples(),
    }
}

/// The phase bucket a zone name charges its self time to: index into
/// [`PHASES`] — `<phase>.<rest>` maps to `<phase>`, everything else to
/// `other`.
pub fn phase_of(zone: &str) -> usize {
    for (i, p) in PHASES.iter().enumerate().take(NUM_PHASES - 1) {
        if zone.len() > p.len() && zone.starts_with(p) && zone.as_bytes()[p.len()] == b'.' {
            return i;
        }
    }
    NUM_PHASES - 1
}

/// Current cumulative per-phase self-time totals (ns), in [`PHASES`]
/// order — the quantity `perfbench` diffs around a single pass to
/// attribute a workload's host time to layers.
pub fn phase_snapshot() -> [u64; NUM_PHASES] {
    report().phase_totals()
}

impl ZoneReport {
    /// Per-phase self-time totals (ns) across every thread, in
    /// [`PHASES`] order. Additive: the buckets sum to the total self
    /// time of every zone (which equals the total time spent inside
    /// top-level zones, since self times partition).
    pub fn phase_totals(&self) -> [u64; NUM_PHASES] {
        let mut out = [0u64; NUM_PHASES];
        fn walk(nodes: &[ZoneNode], out: &mut [u64; NUM_PHASES]) {
            for n in nodes {
                out[phase_of(&n.name)] += n.self_ns;
                walk(&n.children, out);
            }
        }
        for t in &self.threads {
            walk(&t.roots, &mut out);
        }
        out
    }

    /// Collapsed-stack lines (flamegraph.pl / inferno format): one line
    /// per tree node with nonzero self time, `label;zone;child self_ns`,
    /// semicolon-joined path, space, sample weight in nanoseconds.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        fn walk(prefix: &str, nodes: &[ZoneNode], out: &mut String) {
            for n in nodes {
                let path = format!("{prefix};{}", n.name);
                if n.self_ns > 0 {
                    out.push_str(&path);
                    out.push(' ');
                    out.push_str(&n.self_ns.to_string());
                    out.push('\n');
                }
                walk(&path, &n.children, out);
            }
        }
        for t in &self.threads {
            walk(&t.label, &t.roots, &mut out);
        }
        out
    }

    /// ASCII top-`n` self-time table (for stderr): the zones where host
    /// time actually went, widest first.
    pub fn top_table(&self, n: usize) -> String {
        struct Row {
            path: String,
            count: u64,
            self_ns: u64,
            total_ns: u64,
            max_ns: u64,
        }
        let mut rows: Vec<Row> = Vec::new();
        fn walk(prefix: &str, nodes: &[ZoneNode], rows: &mut Vec<Row>) {
            for node in nodes {
                let path = format!("{prefix};{}", node.name);
                if node.self_ns > 0 {
                    rows.push(Row {
                        path: path.clone(),
                        count: node.count,
                        self_ns: node.self_ns,
                        total_ns: node.total_ns,
                        max_ns: node.max_ns,
                    });
                }
                walk(&path, &node.children, rows);
            }
        }
        for t in &self.threads {
            walk(&t.label, &t.roots, &mut rows);
        }
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
        rows.truncate(n);
        let mut s = String::from("  self(ms)  total(ms)      count    max(us)  zone\n");
        for r in &rows {
            s.push_str(&format!(
                "{:>10.3} {:>10.3} {:>10} {:>10.1}  {}\n",
                r.self_ns as f64 / 1e6,
                r.total_ns as f64 / 1e6,
                r.count,
                r.max_ns as f64 / 1e3,
                r.path
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_classification_by_dotted_prefix() {
        assert_eq!(PHASES[phase_of("engine.dispatch")], "engine");
        assert_eq!(PHASES[phase_of("engine.advance")], "engine");
        assert_eq!(PHASES[phase_of("model.hard_irq")], "model");
        assert_eq!(PHASES[phase_of("mem.touch")], "mem");
        assert_eq!(PHASES[phase_of("net.transfer")], "net");
        assert_eq!(PHASES[phase_of("export.csv")], "export");
        // No dot, wrong prefix, or prefix-only names land in `other`.
        assert_eq!(PHASES[phase_of("engine")], "other");
        assert_eq!(PHASES[phase_of("enginex.y")], "other");
        assert_eq!(PHASES[phase_of("custom.zone")], "other");
        assert_eq!(PHASES[phase_of("")], "other");
    }

    #[test]
    fn merge_accumulates_and_preserves_structure() {
        let a = ThreadTree {
            label: "w".into(),
            roots: vec![ZoneNode {
                name: "engine.dispatch".into(),
                count: 2,
                total_ns: 100,
                self_ns: 60,
                max_ns: 70,
                children: vec![ZoneNode {
                    name: "mem.touch".into(),
                    count: 2,
                    total_ns: 40,
                    self_ns: 40,
                    max_ns: 30,
                    children: vec![],
                }],
            }],
        };
        let mut b = a.clone();
        b.roots[0].max_ns = 90;
        let mut into = vec![a];
        merge_tree(&mut into, b);
        assert_eq!(into.len(), 1, "same label merges");
        let r = &into[0].roots[0];
        assert_eq!(r.count, 4);
        assert_eq!(r.total_ns, 200);
        assert_eq!(r.self_ns, 120);
        assert_eq!(r.max_ns, 90, "max of maxes");
        assert_eq!(r.children.len(), 1);
        assert_eq!(r.children[0].count, 4);
        // A different label stays separate.
        let other = ThreadTree {
            label: "main".into(),
            roots: vec![],
        };
        merge_tree(&mut into, other);
        assert_eq!(into.len(), 2);
    }

    #[test]
    fn phase_totals_partition_self_time() {
        let report = ZoneReport {
            threads: vec![ThreadTree {
                label: "main".into(),
                roots: vec![ZoneNode {
                    name: "engine.dispatch".into(),
                    count: 1,
                    total_ns: 100,
                    self_ns: 55,
                    max_ns: 100,
                    children: vec![
                        ZoneNode {
                            name: "mem.touch".into(),
                            count: 3,
                            total_ns: 30,
                            self_ns: 30,
                            max_ns: 15,
                            children: vec![],
                        },
                        ZoneNode {
                            name: "net.transfer".into(),
                            count: 1,
                            total_ns: 15,
                            self_ns: 15,
                            max_ns: 15,
                            children: vec![],
                        },
                    ],
                }],
            }],
            dropped_samples: 0,
        };
        let phases = report.phase_totals();
        assert_eq!(phases[phase_of("engine.x")], 55);
        assert_eq!(phases[phase_of("mem.x")], 30);
        assert_eq!(phases[phase_of("net.x")], 15);
        // The buckets partition: they sum to the root's total exactly.
        assert_eq!(phases.iter().sum::<u64>(), 100);
    }

    #[test]
    fn collapsed_lines_are_path_space_weight() {
        let report = ZoneReport {
            threads: vec![ThreadTree {
                label: "main".into(),
                roots: vec![ZoneNode {
                    name: "engine.dispatch".into(),
                    count: 1,
                    total_ns: 100,
                    self_ns: 70,
                    max_ns: 100,
                    children: vec![
                        ZoneNode {
                            name: "mem.touch".into(),
                            count: 1,
                            total_ns: 30,
                            self_ns: 30,
                            max_ns: 30,
                            children: vec![],
                        },
                        // Zero self time: structural only, no line.
                        ZoneNode {
                            name: "model.wrapper".into(),
                            count: 1,
                            total_ns: 0,
                            self_ns: 0,
                            max_ns: 0,
                            children: vec![],
                        },
                    ],
                }],
            }],
            dropped_samples: 0,
        };
        let folded = report.collapsed();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "main;engine.dispatch 70",
                "main;engine.dispatch;mem.touch 30",
            ]
        );
        for line in lines {
            let (path, weight) = line.rsplit_once(' ').expect("path SPACE weight");
            assert!(path.contains(';'), "path is label;zone...: {path}");
            weight.parse::<u64>().expect("weight is integer ns");
        }
    }

    #[test]
    fn top_table_sorts_by_self_time() {
        let report = ZoneReport {
            threads: vec![ThreadTree {
                label: "main".into(),
                roots: vec![
                    ZoneNode {
                        name: "small.zone".into(),
                        count: 1,
                        total_ns: 1_000,
                        self_ns: 1_000,
                        max_ns: 1_000,
                        children: vec![],
                    },
                    ZoneNode {
                        name: "big.zone".into(),
                        count: 5,
                        total_ns: 9_000_000,
                        self_ns: 9_000_000,
                        max_ns: 2_000_000,
                        children: vec![],
                    },
                ],
            }],
            dropped_samples: 0,
        };
        let table = report.top_table(10);
        let big = table.find("big.zone").unwrap();
        let small = table.find("small.zone").unwrap();
        assert!(big < small, "largest self time first:\n{table}");
        let one = report.top_table(1);
        assert!(one.contains("big.zone") && !one.contains("small.zone"));
    }
}
