//! Span-based causality: for every strip, the interrupt precedes the
//! copy, and under SAIs both land on the consuming core.
//!
//! The flight recorder's `irq` and `copy` spans are children of their
//! strip's span and sit on the track of the core that ran them, so the
//! parent id names the strip and the track id names the core.

use sais::core::scenario::ObsConfig;
use sais::obs::span::Span;
use sais::obs::FlightRecorder;
use sais::prelude::*;
use std::collections::HashMap;

fn config(policy: PolicyChoice) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::testbed_3gig(8, 256 * 1024);
    cfg.file_size = 4 << 20;
    cfg.policy = policy;
    cfg
}

fn traced(policy: PolicyChoice) -> (RunMetrics, sais::core::cluster::Cluster) {
    let obs = ObsConfig {
        spans: true,
        ..ObsConfig::default()
    };
    let (m, cluster) = config(policy).with_observability(obs).run_full();
    assert_eq!(cluster.recorder().dropped(), 0, "every span retained");
    (m, cluster)
}

/// Client 0's spans named `name`, as `(strip span, span)` pairs.
fn tagged<'a>(
    rec: &'a FlightRecorder,
    name: &'static str,
) -> impl Iterator<Item = (u32, &'a Span)> + 'a {
    rec.spans()
        .iter()
        .filter(move |s| s.pid == 0 && s.name == name)
        .map(|s| (s.parent.0, s))
}

#[test]
fn interrupts_precede_copies_per_strip() {
    let (_, cluster) = traced(PolicyChoice::LowestLoaded);
    let rec = cluster.recorder();
    let mut first_irq: HashMap<u32, SimTime> = HashMap::new();
    for (strip, s) in tagged(rec, "irq") {
        let t = first_irq.entry(strip).or_insert(s.start);
        *t = (*t).min(s.start);
    }
    let mut copies = 0;
    for (strip, s) in tagged(rec, "copy") {
        let irq_t = first_irq
            .get(&strip)
            .unwrap_or_else(|| panic!("copy of strip {strip} without an interrupt"));
        assert!(*irq_t <= s.start, "strip {strip}: copy before interrupt");
        copies += 1;
    }
    assert_eq!(copies, 64, "4 MB / 64 KB strips all copied");
}

#[test]
fn sais_handles_and_copies_on_the_same_core() {
    let (m, cluster) = traced(PolicyChoice::SourceAware);
    assert_eq!(m.strip_migrations, 0);
    let rec = cluster.recorder();
    let mut irq_core: HashMap<u32, u32> = HashMap::new();
    for (strip, s) in tagged(rec, "irq") {
        if let Some(prev) = irq_core.insert(strip, s.tid) {
            assert_eq!(prev, s.tid, "strip {strip}: peer interrupts split cores");
        }
    }
    for (strip, s) in tagged(rec, "copy") {
        assert_eq!(
            irq_core[&strip], s.tid,
            "strip {strip}: handled on {} but consumed on {}",
            irq_core[&strip], s.tid
        );
    }
}

#[test]
fn irqbalance_splits_handler_and_consumer() {
    let (m, cluster) = traced(PolicyChoice::LowestLoaded);
    assert!(m.strip_migrations > 0);
    let rec = cluster.recorder();
    let irq_core: HashMap<u32, u32> = tagged(rec, "irq").map(|(p, s)| (p, s.tid)).collect();
    let mismatched = tagged(rec, "copy")
        .filter(|(strip, s)| irq_core.get(strip) != Some(&s.tid))
        .count();
    assert!(
        mismatched > 32,
        "most strips should be handled away from the consumer: {mismatched}"
    );
}

#[test]
fn tracing_does_not_change_results() {
    let with = config(PolicyChoice::SourceAware).with_observability(ObsConfig {
        spans: true,
        ..ObsConfig::default()
    });
    let without = config(PolicyChoice::SourceAware);
    let a = with.run();
    let b = without.run();
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.unhalted_cycles, b.unhalted_cycles);
}
