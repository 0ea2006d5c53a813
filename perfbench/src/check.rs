//! Output checks behind `failed`: golden statistics pinned for the
//! default seed, and invariants that hold for every seed.

use crate::workload::{Kind, Workload, DEFAULT_SEED};
use sais_core::scenario::{PolicyChoice, RunMetrics};
use std::collections::BTreeMap;

/// The statistics pinned per cell. Floats are compared bit for bit: the
/// simulator is deterministic, so a pure speed change leaves them equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenRow {
    pub bw: f64,
    pub miss: f64,
    pub util: f64,
    pub unhalted: u64,
    pub migrations: u64,
    pub events: u64,
    pub bytes: u64,
}

impl GoldenRow {
    pub fn of(m: &RunMetrics) -> GoldenRow {
        GoldenRow {
            bw: m.bandwidth_bytes_per_sec(),
            miss: m.l2_miss_rate,
            util: m.cpu_utilization,
            unhalted: m.unhalted_cycles,
            migrations: m.strip_migrations,
            events: m.events_dispatched,
            bytes: m.bytes_delivered,
        }
    }

    /// One golden-file line. `{:?}` prints the shortest decimal that
    /// parses back to the same bits.
    pub fn line(&self, workload: &str, label: &str) -> String {
        format!(
            "{workload} {label} bw={:?} miss={:?} util={:?} unhalted={} migrations={} events={} bytes={}",
            self.bw, self.miss, self.util, self.unhalted, self.migrations, self.events, self.bytes
        )
    }

    fn parse(line: &str) -> Result<(String, String, GoldenRow), String> {
        let mut it = line.split_whitespace();
        let (Some(workload), Some(label)) = (it.next(), it.next()) else {
            return Err(format!("short golden line: {line}"));
        };
        let mut kv = BTreeMap::new();
        for field in it {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| format!("bad golden field {field:?}"))?;
            kv.insert(k, v);
        }
        let get = |k: &str| {
            kv.get(k)
                .ok_or_else(|| format!("golden line lacks {k}: {line}"))
        };
        let f = |k: &str| -> Result<f64, String> {
            get(k)?.parse().map_err(|e| format!("golden {k}: {e}"))
        };
        let u = |k: &str| -> Result<u64, String> {
            get(k)?.parse().map_err(|e| format!("golden {k}: {e}"))
        };
        let row = GoldenRow {
            bw: f("bw")?,
            miss: f("miss")?,
            util: f("util")?,
            unhalted: u("unhalted")?,
            migrations: u("migrations")?,
            events: u("events")?,
            bytes: u("bytes")?,
        };
        Ok((workload.to_string(), label.to_string(), row))
    }
}

/// Golden rows keyed by (workload, cell label).
pub struct Golden(BTreeMap<(String, String), GoldenRow>);

impl Golden {
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut rows = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (w, l, row) = GoldenRow::parse(line)?;
            rows.insert((w, l), row);
        }
        Ok(Golden(rows))
    }

    pub fn load(path: &std::path::Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read golden file {}: {e}", path.display()))?;
        Golden::parse(&text)
    }
}

/// Check one pass's per-cell metrics. Returns one message per violation.
pub fn check_cells(w: &Workload, metrics: &[&RunMetrics], golden: Option<&Golden>) -> Vec<String> {
    let mut errs = Vec::new();
    for (cell, m) in w.cells.iter().zip(metrics) {
        let at = format!("{}/{}", w.kind.name(), cell.label);
        if m.bytes_delivered != cell.cfg.total_bytes() {
            errs.push(format!(
                "{at}: delivered {} of {} bytes",
                m.bytes_delivered,
                cell.cfg.total_bytes()
            ));
        }
        if cell.cfg.faults.is_none()
            && cell.cfg.policy == PolicyChoice::SourceAware
            && m.strip_migrations != 0
        {
            errs.push(format!(
                "{at}: clean SAIs run migrated {} strips",
                m.strip_migrations
            ));
        }
        if m.steering_degrades.checked_sub(m.steering_repromotes) != Some(m.degraded_flows) {
            errs.push(format!(
                "{at}: degrades {} - repromotes {} != degraded flows {}",
                m.steering_degrades, m.steering_repromotes, m.degraded_flows
            ));
        }
        if w.seed == DEFAULT_SEED {
            if let Some(g) = golden {
                let key = (w.kind.name().to_string(), cell.label.clone());
                match g.0.get(&key) {
                    None => errs.push(format!("{at}: no golden row")),
                    Some(want) => {
                        let got = GoldenRow::of(m);
                        if got != *want {
                            errs.push(format!("{at}: golden mismatch: got {got:?}, want {want:?}"));
                        }
                    }
                }
            }
        }
    }
    if w.kind == Kind::WriteStream {
        let bws: Vec<u64> = metrics
            .iter()
            .map(|m| m.bandwidth_bytes_per_sec().to_bits())
            .collect();
        if bws.windows(2).any(|p| p[0] != p[1]) {
            errs.push("write_stream: SAIs and irqbalance bandwidths differ".to_string());
        }
    }
    errs
}

/// Whether two runs of one cell produced the same simulated statistics:
/// the golden fields plus the transport, steering and latency results.
pub fn same_statistics(a: &RunMetrics, b: &RunMetrics) -> bool {
    let rest = |m: &RunMetrics| {
        [
            m.retransmits,
            m.tcp_timeouts,
            m.tcp_duplicates,
            m.stripped_options,
            m.degraded_flows,
            m.interrupts,
            m.hinted_interrupts,
            m.c2c_lines,
            m.latency_p99_ms().to_bits(),
            m.wall_time.as_nanos(),
        ]
    };
    GoldenRow::of(a) == GoldenRow::of(b) && rest(a) == rest(b)
}

/// The golden file for the default seed: every cell of every workload.
pub fn render_golden(rows: &[(Kind, String, GoldenRow)]) -> String {
    let mut out = format!(
        "# Golden simulated statistics per cell at seed {DEFAULT_SEED}, compared bit for bit.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-golden\n"
    );
    for (kind, label, row) in rows {
        out.push_str(&row.line(kind.name(), label));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_lines_round_trip_bit_exactly() {
        let row = GoldenRow {
            bw: 0.1 + 0.2,
            miss: 1.0 / 3.0,
            util: 5e-324,
            unhalted: u64::MAX,
            migrations: 7,
            events: 15361,
            bytes: 64 << 20,
        };
        let g = Golden::parse(&row.line("w", "c/1")).unwrap();
        let back = g.0[&("w".to_string(), "c/1".to_string())];
        assert_eq!(back.bw.to_bits(), row.bw.to_bits());
        assert_eq!(back, row);
    }

    #[test]
    fn malformed_golden_lines_are_errors() {
        assert!(Golden::parse("w c bw=1.0").is_err());
        assert!(Golden::parse("w").is_err());
        assert!(
            Golden::parse("w c bw=x miss=0 util=0 unhalted=0 migrations=0 events=0 bytes=0")
                .is_err()
        );
    }
}
