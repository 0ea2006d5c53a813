//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Nothing here reaches inside the program: a span brackets one call the
//! benchmark makes (`Cluster::new`, `Engine::run_to_quiescence`,
//! `Cluster::collect_metrics`, `perfetto::to_chrome_json`,
//! `Table::to_csv`). Spans stay in memory for the whole run and are
//! written out once, at the end.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A clock that only reads the time when tracing is on, so the untraced
/// run pays nothing for the spans it does not keep.
#[derive(Clone, Copy)]
pub struct Clock {
    pub on: bool,
}

impl Clock {
    pub fn now(self) -> u64 {
        if self.on {
            now_ns()
        } else {
            0
        }
    }
}

/// One recorded span. Ids are positional, so they need no shared counter
/// across worker threads: a pass is `pass << 32`, a cell inside it adds
/// `(cell + 1) << 8`, and a layer call inside a cell adds its slot.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub pass: u32,
    pub cell: Option<usize>,
}

impl Span {
    pub fn pass_id(pass: u32) -> u64 {
        (pass as u64) << 32
    }

    pub fn cell_id(pass: u32, cell: usize) -> u64 {
        Self::pass_id(pass) | ((cell as u64 + 1) << 8)
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The layer a span's time is charged to: the name's prefix before the
/// first `.`, with the pass and cell frames charged to the benchmark.
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "bench",
    }
}

/// Self time per layer, in ns: each span's duration minus the part of
/// its interval that its children cover (children of a parallel pass
/// overlap, so coverage is the union of their intervals).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|kids| union_within(kids, s.start_ns, s.end_ns))
            .unwrap_or(0);
        *out.entry(layer_of(s.name).to_string()).or_default() += s.dur().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The spans as a JSON array, one object per line.
pub fn spans_json(spans: &[Span], workload: &str, seed: u64) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"workload\": \"{}\", \"pass\": {}, \"cell\": {}, \"seed\": {}}}{}\n",
            s.name,
            s.id,
            parent,
            s.start_ns,
            s.end_ns,
            workload,
            s.pass,
            cell,
            seed,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, a: u64, b: u64) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns: a,
            end_ns: b,
            pass: 0,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 1, None, 0, 100),
            // Two overlapping cells (parallel workers) cover [10, 90).
            span("cell", 2, Some(1), 10, 60),
            span("cell", 3, Some(1), 40, 90),
            span("engine.run", 4, Some(2), 20, 50),
            span("model.setup", 5, Some(3), 40, 45),
        ];
        let st = self_times(&spans);
        assert_eq!(st["bench"], 20 + (50 - 30) + (50 - 5));
        assert_eq!(st["engine"], 30);
        assert_eq!(st["model"], 5);
    }
}
