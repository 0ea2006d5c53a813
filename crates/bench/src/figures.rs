//! One function per paper table/figure, plus the ablation studies from
//! DESIGN.md. Each prints paper-style rows and writes CSV.

use crate::harness::{emit, CellStats, Scale, Sweep};
use sais_core::analysis;
use sais_core::memsim::{MemSimConfig, MemSimMode};
use sais_core::scenario::{FaultPlan, PolicyChoice, ScenarioConfig};
use sais_metrics::format::{bytes_human, pct_signed};
use sais_metrics::{BarChart, Table};
use sais_workload::multiclient_config;

/// The paper's transfer-size sweep.
pub const TRANSFER_SIZES: [u64; 4] = [128 << 10, 512 << 10, 1 << 20, 2 << 20];
/// The paper's server-count sweep.
pub const SERVER_COUNTS: [usize; 4] = [8, 16, 32, 48];
/// The paper's client-count sweep (Fig. 12).
pub const CLIENT_COUNTS: [usize; 7] = [4, 8, 16, 24, 32, 48, 56];

fn testbed(ports: usize, servers: usize, transfer: u64) -> ScenarioConfig {
    if ports == 1 {
        ScenarioConfig::testbed_1gig(servers, transfer)
    } else {
        ScenarioConfig::testbed_3gig(servers, transfer)
    }
}

/// One simulated paper grid: the paper sweep's policy labels and a
/// `(transfer, servers, baseline, candidate)` row per cell, in
/// `TRANSFER_SIZES × SERVER_COUNTS` order.
struct PaperGrid {
    labels: (&'static str, &'static str),
    rows: Vec<(u64, usize, CellStats, CellStats)>,
}

/// Simulate the transfer×servers grid on the `ports`-port testbed under
/// the paper's irqbalance-vs-SAIs sweep. `label` tags the progress lines.
fn paper_grid(label: &str, ports: usize, scale: Scale) -> PaperGrid {
    let sweep = Sweep::paper(scale);
    let mut cells = Vec::new();
    for &ts in &TRANSFER_SIZES {
        for &srv in &SERVER_COUNTS {
            cells.push((ts, srv));
        }
    }
    let cfgs = cells
        .iter()
        .map(|&(ts, srv)| testbed(ports, srv, ts))
        .collect();
    let results = sweep.run_cells_named(label, cfgs);
    PaperGrid {
        labels: sweep.labels(),
        rows: cells
            .into_iter()
            .zip(results)
            .map(|((ts, srv), (base, cand))| (ts, srv, base, cand))
            .collect(),
    }
}

/// One figure's view of a paper grid: which statistic it reports, in
/// which unit, and whether the improvement is a reduction (miss rate,
/// CPU) or a speed-up (bandwidth).
struct GridView {
    name: &'static str,
    title: &'static str,
    /// NIC ports of the testbed whose grid this view reads.
    ports: usize,
    value: fn(&CellStats) -> f64,
    unit: &'static str,
    improvement_is_reduction: bool,
}

/// Print and persist one view of a simulated grid.
fn render_grid(view: &GridView, grid: &PaperGrid) {
    let (bl, cl) = grid.labels;
    let unit = view.unit;
    let mut table = Table::new(
        view.title,
        &[
            "transfer",
            "servers",
            &format!("{bl} ({unit})"),
            &format!("{cl} ({unit})"),
            "improvement",
        ],
    );
    let mut chart = BarChart::new(format!("{} (chart)", view.title), &[bl, cl]);
    for (ts, srv, base, cand) in &grid.rows {
        let (b, c) = ((view.value)(base), (view.value)(cand));
        let imp = if view.improvement_is_reduction {
            sais_metrics::counters::reduction(b, c)
        } else {
            sais_metrics::counters::speedup(b, c)
        };
        table.row(&[
            bytes_human(*ts),
            srv.to_string(),
            format!("{b:.2}"),
            format!("{c:.2}"),
            pct_signed(imp),
        ]);
        chart.group(format!("{}/{srv}srv", bytes_human(*ts)), &[b, c]);
    }
    emit(view.name, &table);
    eprintln!("{}", chart.render());
}

/// Simulate the grid one view reads and render that view alone.
fn grid_figure(view: &GridView, scale: Scale) {
    render_grid(view, &paper_grid(view.name, view.ports, scale));
}

const FIG05: GridView = GridView {
    name: "fig05_bandwidth_3gig",
    title: "Fig. 5 — IOR read bandwidth, 3-Gigabit NIC (paper max speed-up: +23.57% @48 servers)",
    ports: 3,
    value: |s| s.bw.mean() / 1e6,
    unit: "MB/s",
    improvement_is_reduction: false,
};

const FIG05X: GridView = GridView {
    name: "fig05x_bandwidth_1gig",
    title: "§V-C — IOR read bandwidth, 1-Gigabit NIC (paper peak speed-up: +6.05%)",
    ports: 1,
    value: |s| s.bw.mean() / 1e6,
    unit: "MB/s",
    improvement_is_reduction: false,
};

const FIG06: GridView = GridView {
    name: "fig06_missrate_1gig",
    title: "Fig. 6 — L2 miss rate %, 1-Gigabit NIC (improvement = reduction)",
    ports: 1,
    value: |s| s.miss.mean() * 100.0,
    unit: "%",
    improvement_is_reduction: true,
};

const FIG07: GridView = GridView {
    name: "fig07_missrate_3gig",
    title: "Fig. 7 — L2 miss rate %, 3-Gigabit NIC (paper: ~40% reduction)",
    ports: 3,
    value: |s| s.miss.mean() * 100.0,
    unit: "%",
    improvement_is_reduction: true,
};

const FIG08: GridView = GridView {
    name: "fig08_cpu_1gig",
    title: "Fig. 8 — CPU utilization %, 1-Gigabit NIC (paper max 15.13%; irqbalance burns more)",
    ports: 1,
    value: |s| s.util.mean() * 100.0,
    unit: "%",
    improvement_is_reduction: true,
};

const FIG09: GridView = GridView {
    name: "fig09_cpu_3gig",
    title: "Fig. 9 — CPU utilization %, 3-Gigabit NIC (irqbalance burns more on data movement)",
    ports: 3,
    value: |s| s.util.mean() * 100.0,
    unit: "%",
    improvement_is_reduction: true,
};

const FIG10: GridView = GridView {
    name: "fig10_unhalted_1gig",
    title:
        "Fig. 10 — CPU_CLK_UNHALTED (1e9 cycles), 1-Gigabit NIC (paper: up to 27.14% improvement)",
    ports: 1,
    value: |s| s.unhalted.mean() / 1e9,
    unit: "1e9cyc",
    improvement_is_reduction: true,
};

const FIG11: GridView = GridView {
    name: "fig11_unhalted_3gig",
    title:
        "Fig. 11 — CPU_CLK_UNHALTED (1e9 cycles), 3-Gigabit NIC (paper: up to 48.57% improvement)",
    ports: 3,
    value: |s| s.unhalted.mean() / 1e9,
    unit: "1e9cyc",
    improvement_is_reduction: true,
};

/// Every view of the two paper grids, in [`run_all`]'s output order.
const GRID_VIEWS: [&GridView; 8] = [
    &FIG05, &FIG05X, &FIG06, &FIG07, &FIG08, &FIG09, &FIG10, &FIG11,
];

/// Fig. 5: I/O bandwidth, 3-Gigabit NIC (paper: SAIs wins everywhere,
/// max +23.57 % at 48 servers).
pub fn fig05_bandwidth_3gig(scale: Scale) {
    grid_figure(&FIG05, scale);
}

/// §V-C: bandwidth with the single 1-Gigabit NIC (paper peak +6.05 %,
/// NIC-bound).
pub fn fig05x_bandwidth_1gig(scale: Scale) {
    grid_figure(&FIG05X, scale);
}

/// Fig. 6: L2 cache miss rate, 1-Gigabit NIC.
pub fn fig06_missrate_1gig(scale: Scale) {
    grid_figure(&FIG06, scale);
}

/// Fig. 7: L2 cache miss rate, 3-Gigabit NIC (paper: ≈40 % reduction).
pub fn fig07_missrate_3gig(scale: Scale) {
    grid_figure(&FIG07, scale);
}

/// Fig. 8: CPU utilization, 1-Gigabit NIC (paper max 15.13 % — NIC-bound).
pub fn fig08_cpu_1gig(scale: Scale) {
    grid_figure(&FIG08, scale);
}

/// Fig. 9: CPU utilization, 3-Gigabit NIC.
pub fn fig09_cpu_3gig(scale: Scale) {
    grid_figure(&FIG09, scale);
}

/// Fig. 10: CPU_CLK_UNHALTED, 1-Gigabit NIC (paper: SAIs up to 27.14 %
/// fewer unhalted cycles).
pub fn fig10_unhalted_1gig(scale: Scale) {
    grid_figure(&FIG10, scale);
}

/// Fig. 11: CPU_CLK_UNHALTED, 3-Gigabit NIC (paper: up to 48.57 %).
pub fn fig11_unhalted_3gig(scale: Scale) {
    grid_figure(&FIG11, scale);
}

/// Fig. 12: multi-client aggregate bandwidth (8 servers, 1 MB transfers;
/// paper peak +20.46 % at 8 clients, declining beyond).
pub fn fig12_multiclient(scale: Scale) {
    let bytes_per_client = match scale {
        Scale::Quick => 8 << 20,
        Scale::Default => 32 << 20,
        Scale::Full => 128 << 20,
    };
    let mut table = Table::new(
        "Fig. 12 — multi-client aggregate bandwidth, 8 servers, 1M transfers \
         (paper peak +20.46% @8 clients)",
        &["clients", "Irqbalance (MB/s)", "SAIs (MB/s)", "speed-up"],
    );
    for &clients in &CLIENT_COUNTS {
        let irqb = multiclient_config(clients, bytes_per_client)
            .with_policy(PolicyChoice::LowestLoaded)
            .run();
        let sais = multiclient_config(clients, bytes_per_client)
            .with_policy(PolicyChoice::SourceAware)
            .run();
        let (b, s) = (
            irqb.bandwidth_bytes_per_sec(),
            sais.bandwidth_bytes_per_sec(),
        );
        table.row(&[
            clients.to_string(),
            format!("{:.2}", b / 1e6),
            format!("{:.2}", s / 1e6),
            pct_signed(sais_metrics::counters::speedup(b, s)),
        ]);
    }
    emit("fig12_multiclient", &table);
}

/// Fig. 14: the §VI in-memory simulation (paper: peak 3576.58 MB/s,
/// +53.23 %, miss rate −51.37 %; ~2500 MB/s for both once CPUs saturate).
pub fn fig14_memory_sim(scale: Scale) {
    let bytes_per_app = match scale {
        Scale::Quick => 16 << 20,
        Scale::Default => 64 << 20,
        Scale::Full => 256 << 20,
    };
    let mut table = Table::new(
        "Fig. 14 — in-memory parallel I/O (NIC removed; paper: peak +53.23%, \
         convergence ~2500 MB/s at CPU saturation)",
        &[
            "apps",
            "Si-Irqbalance (MB/s)",
            "Si-SAIs (MB/s)",
            "speed-up",
            "util SAIs",
            "util Irqb",
            "miss reduction",
        ],
    );
    for apps in [1usize, 2, 3, 4, 6, 8] {
        let mut s_cfg = MemSimConfig::testbed(MemSimMode::SiSais, apps);
        s_cfg.bytes_per_app = bytes_per_app;
        let mut b_cfg = MemSimConfig::testbed(MemSimMode::SiIrqbalance, apps);
        b_cfg.bytes_per_app = bytes_per_app;
        let s = s_cfg.run();
        let b = b_cfg.run();
        table.row(&[
            apps.to_string(),
            format!("{:.2}", b.bandwidth / 1e6),
            format!("{:.2}", s.bandwidth / 1e6),
            pct_signed(sais_metrics::counters::speedup(b.bandwidth, s.bandwidth)),
            format!("{:.1}%", s.cpu_utilization * 100.0),
            format!("{:.1}%", b.cpu_utilization * 100.0),
            pct_signed(sais_metrics::counters::reduction(
                b.l2_miss_rate,
                s.l2_miss_rate,
            )),
        ]);
    }
    emit("fig14_memory_sim", &table);
}

/// §III table: the analytic model's bounds next to simulator measurements.
pub fn tab_analysis_model(scale: Scale) {
    let mut table = Table::new(
        "§III — analytic bounds (eqs. 3–6) vs simulation",
        &[
            "servers",
            "model T_bal/T_sais (lower-bound ratio)",
            "sim speed-up (128K, 3-Gig)",
        ],
    );
    let sweep = Sweep::paper(scale);
    for &srv in &[8usize, 16, 32, 48] {
        let model = analysis::calibrated(8, srv as u64, 1, 1.0e-3);
        let predicted = model.predicted_speedup();
        let (base, cand) = sweep.run_cell(testbed(3, srv, 128 << 10));
        let measured = cand.bw.mean() / base.bw.mean() - 1.0;
        table.row(&[srv.to_string(), pct_signed(predicted), pct_signed(measured)]);
    }
    emit("tab_analysis_model", &table);
}

/// Ablation: sweep the migration cost `M` (the c2c line latency) to find
/// where SAIs stops paying off — the paper's `M ≫ P` premise quantified.
pub fn abl_mp_ratio(scale: Scale) {
    let mut table = Table::new(
        "Ablation — M/P ratio: how expensive must migration be for SAIs to win?",
        &[
            "c2c ns/line",
            "M/P",
            "Irqbalance MB/s",
            "SAIs MB/s",
            "speed-up",
        ],
    );
    for c2c_ns in [10u64, 30, 60, 120, 240, 480] {
        let mut cfg = testbed(3, 16, 128 << 10);
        cfg.mem.c2c_line = sais_sim::SimDuration::from_nanos(c2c_ns);
        cfg.file_size = scale.file_size();
        let ratio = sais_core::calib::m_over_p(&cfg);
        let b = cfg.clone().with_policy(PolicyChoice::LowestLoaded).run();
        let s = cfg.with_policy(PolicyChoice::SourceAware).run();
        table.row(&[
            c2c_ns.to_string(),
            format!("{ratio:.2}"),
            format!("{:.2}", b.bandwidth_mbs()),
            format!("{:.2}", s.bandwidth_mbs()),
            pct_signed(s.bandwidth_mbs() / b.bandwidth_mbs() - 1.0),
        ]);
    }
    emit("abl_mp_ratio", &table);
}

/// Ablation: interrupt coalescing depth (frames per hardirq).
pub fn abl_coalescing(scale: Scale) {
    let mut table = Table::new(
        "Ablation — NIC interrupt coalescing (frames/interrupt)",
        &[
            "frames",
            "Irqbalance MB/s",
            "SAIs MB/s",
            "speed-up",
            "irqs (SAIs)",
        ],
    );
    for frames in [1u64, 4, 8, 16, 32] {
        let mut cfg = testbed(3, 16, 512 << 10);
        cfg.coalesce_frames = frames;
        cfg.file_size = scale.file_size();
        let b = cfg.clone().with_policy(PolicyChoice::LowestLoaded).run();
        let s = cfg.with_policy(PolicyChoice::SourceAware).run();
        table.row(&[
            frames.to_string(),
            format!("{:.2}", b.bandwidth_mbs()),
            format!("{:.2}", s.bandwidth_mbs()),
            pct_signed(s.bandwidth_mbs() / b.bandwidth_mbs() - 1.0),
            s.interrupts.to_string(),
        ]);
    }
    emit("abl_coalescing", &table);
}

/// Ablation: PVFS strip size.
pub fn abl_strip_size(scale: Scale) {
    let mut table = Table::new(
        "Ablation — PVFS strip size (paper fixes 64K)",
        &["strip", "Irqbalance MB/s", "SAIs MB/s", "speed-up"],
    );
    for strip in [16u64 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10] {
        let mut cfg = testbed(3, 16, 1 << 20);
        cfg.strip_size = strip;
        cfg.file_size = scale.file_size();
        let b = cfg.clone().with_policy(PolicyChoice::LowestLoaded).run();
        let s = cfg.with_policy(PolicyChoice::SourceAware).run();
        table.row(&[
            bytes_human(strip),
            format!("{:.2}", b.bandwidth_mbs()),
            format!("{:.2}", s.bandwidth_mbs()),
            pct_signed(s.bandwidth_mbs() / b.bandwidth_mbs() - 1.0),
        ]);
    }
    emit("abl_strip_size", &table);
}

/// Ablation: the full policy zoo, including the paper's four §III policies
/// and the related-work baselines.
pub fn abl_policy_zoo(scale: Scale) {
    let mut table = Table::new(
        "Ablation — steering policy zoo (128K transfers, 16 servers, 3-Gig NIC)",
        &[
            "policy",
            "MB/s",
            "L2 miss",
            "migrated strips",
            "hinted irqs",
        ],
    );
    for policy in [
        PolicyChoice::RoundRobin,
        PolicyChoice::Dedicated,
        PolicyChoice::LowestLoaded,
        PolicyChoice::IrqbalanceDaemon,
        PolicyChoice::FlowHash,
        PolicyChoice::Hybrid,
        PolicyChoice::SourceAware,
    ] {
        let mut cfg = testbed(3, 16, 128 << 10);
        cfg.file_size = scale.file_size();
        let m = cfg.with_policy(policy).run();
        table.row(&[
            policy.label().to_string(),
            format!("{:.2}", m.bandwidth_mbs()),
            format!("{:.2}%", m.l2_miss_rate * 100.0),
            m.strip_migrations.to_string(),
            m.hinted_interrupts.to_string(),
        ]);
    }
    emit("abl_policy_zoo", &table);
}

/// Ablation: process migration while blocked (§III policies (i) vs (ii)).
pub fn abl_proc_migration(scale: Scale) {
    let mut table = Table::new(
        "Ablation — process migrated while blocked in I/O (policy (i) without bundling)",
        &[
            "P(migrate)",
            "SAIs MB/s",
            "migrated strips",
            "proc migrations",
        ],
    );
    for prob in [0.0f64, 0.05, 0.2, 0.5, 1.0] {
        let mut cfg = testbed(3, 16, 512 << 10);
        cfg.pin_processes = false;
        cfg.cpu.block_migration_prob = prob;
        cfg.file_size = scale.file_size();
        let m = cfg.with_policy(PolicyChoice::SourceAware).run();
        table.row(&[
            format!("{prob:.2}"),
            format!("{:.2}", m.bandwidth_mbs()),
            m.strip_migrations.to_string(),
            m.process_migrations.to_string(),
        ]);
    }
    emit("abl_proc_migration", &table);
}

/// Ablation: irqbalance decision granularity — per-interrupt steering
/// (this paper's and most simulators' idealization) vs the real daemon's
/// per-line rebalance interval. Neither tracks the data; SAIs beats both.
pub fn abl_irqbalance_granularity(scale: Scale) {
    let mut table = Table::new(
        "Ablation — irqbalance granularity (per-interrupt vs per-interval line re-homing)",
        &[
            "baseline",
            "MB/s",
            "L2 miss",
            "migrated strips",
            "SAIs speed-up vs it",
        ],
    );
    let sais_bw = {
        let mut cfg = testbed(3, 16, 128 << 10);
        cfg.file_size = scale.file_size();
        cfg.procs_per_client = 2; // same shape as the baselines below
        cfg.with_policy(PolicyChoice::SourceAware)
            .run()
            .bandwidth_mbs()
    };
    for (label, policy) in [
        ("per-interrupt (LowestLoaded)", PolicyChoice::LowestLoaded),
        ("daemon, 100ms lines", PolicyChoice::IrqbalanceDaemon),
        ("static (Dedicated)", PolicyChoice::Dedicated),
    ] {
        let mut cfg = testbed(3, 16, 128 << 10);
        cfg.file_size = scale.file_size();
        // Two processes so the dedicated/daemon core is not accidentally
        // the (single) consumer.
        cfg.procs_per_client = 2;
        let m = cfg.with_policy(policy).run();
        table.row(&[
            label.to_string(),
            format!("{:.2}", m.bandwidth_mbs()),
            format!("{:.2}%", m.l2_miss_rate * 100.0),
            m.strip_migrations.to_string(),
            pct_signed(sais_bw / m.bandwidth_mbs() - 1.0),
        ]);
    }
    emit("abl_irqbalance_granularity", &table);
}

/// Ablation: the write path — the paper's scoping claim ("there is not a
/// data locality issue associated with interrupt scheduling in parallel
/// I/O write operations") demonstrated rather than assumed.
pub fn abl_write_path(scale: Scale) {
    use sais_core::scenario::IoDirection;
    let mut table = Table::new(
        "Ablation — reads vs writes: interrupt placement only matters when data flows inbound",
        &[
            "direction",
            "transfer",
            "Irqbalance MB/s",
            "SAIs MB/s",
            "speed-up",
        ],
    );
    for direction in [IoDirection::Read, IoDirection::Write] {
        for ts in [128u64 << 10, 1 << 20] {
            let mut cfg = testbed(3, 16, ts).with_direction(direction);
            cfg.file_size = scale.file_size();
            let b = cfg.clone().with_policy(PolicyChoice::LowestLoaded).run();
            let s = cfg.with_policy(PolicyChoice::SourceAware).run();
            table.row(&[
                format!("{direction:?}"),
                bytes_human(ts),
                format!("{:.2}", b.bandwidth_mbs()),
                format!("{:.2}", s.bandwidth_mbs()),
                pct_signed(s.bandwidth_mbs() / b.bandwidth_mbs() - 1.0),
            ]);
        }
    }
    emit("abl_write_path", &table);
}

/// Ablation: the Si-Irqbalance reader's read-ahead depth. Deeper queues
/// let strips be *evicted* from the reader's cache before the combiner
/// gets to them, converting expensive cache-to-cache migration into a
/// cheaper DRAM refetch — queueing can accidentally hide the locality
/// problem, which is why the paper's thread-pair framing matters.
pub fn abl_memsim_readahead(scale: Scale) {
    let bytes_per_app = match scale {
        Scale::Quick => 16 << 20,
        Scale::Default => 64 << 20,
        Scale::Full => 256 << 20,
    };
    let mut table = Table::new(
        "Ablation — Si-Irqbalance read-ahead depth (2 apps)",
        &[
            "read-ahead (strips)",
            "MB/s",
            "c2c lines",
            "L2 miss",
            "vs Si-SAIs",
        ],
    );
    let sais = {
        let mut c = MemSimConfig::testbed(MemSimMode::SiSais, 2);
        c.bytes_per_app = bytes_per_app;
        c.run()
    };
    for ra in [2usize, 4, 8, 16, 32] {
        let mut c = MemSimConfig::testbed(MemSimMode::SiIrqbalance, 2);
        c.bytes_per_app = bytes_per_app;
        c.read_ahead = ra;
        let m = c.run();
        table.row(&[
            ra.to_string(),
            format!("{:.1}", m.bandwidth / 1e6),
            m.c2c_lines.to_string(),
            format!("{:.2}%", m.l2_miss_rate * 100.0),
            pct_signed(m.bandwidth / sais.bandwidth - 1.0),
        ]);
    }
    emit("abl_memsim_readahead", &table);
}

/// The degradation table's CSV header, pinned so downstream consumers can
/// rely on the schema (`fig_faults_cli` asserts it byte for byte).
pub const FIG_FAULTS_HEADER: &str = "scenario,policy,loss,strip,straggler,MB/s,p99_ms,\
retransmits,stripped_batches,degraded_flows,migrated_strips";

/// The degradation table's fault grid: `(scenario, loss, strip, straggler
/// multiplier on server 0)`. `1.0` means no straggler.
pub const FIG_FAULTS_GRID: [(&str, f64, f64, f64); 8] = [
    ("clean", 0.0, 0.0, 1.0),
    ("loss1pct", 0.01, 0.0, 1.0),
    ("loss5pct", 0.05, 0.0, 1.0),
    ("strip50pct", 0.0, 0.5, 1.0),
    ("strip100pct", 0.0, 1.0, 1.0),
    ("straggler20x", 0.0, 0.0, 20.0),
    ("loss2pct_strip50pct", 0.02, 0.5, 1.0),
    ("loss5pct_strip100pct_straggler20x", 0.05, 1.0, 20.0),
];

/// Extension figure: graceful degradation under injected faults. Sweeps
/// the [`FIG_FAULTS_GRID`] fault plans — packet loss, an option-stripping
/// middlebox and a straggling server, alone and combined — under the
/// irqbalance baseline and SAIs. The interesting property is the paper's
/// failure story made quantitative: stripping the IP option never breaks
/// SAIs, it degrades it per-flow to RSS-style steering (visible as
/// `degraded_flows` and reappearing `migrated_strips`), while loss costs
/// both policies the same recovery time.
pub fn fig_faults(scale: Scale) {
    let file_size = match scale {
        Scale::Quick => 8 << 20,
        Scale::Default => 16 << 20,
        Scale::Full => 64 << 20,
    };
    let columns: Vec<&str> = FIG_FAULTS_HEADER.split(',').collect();
    let mut table = Table::new(
        "Extension — graceful degradation under injected faults (8 servers, 512K, 3-Gig NIC)",
        &columns,
    );
    for &(scenario, loss, strip, straggler) in &FIG_FAULTS_GRID {
        for policy in [PolicyChoice::LowestLoaded, PolicyChoice::SourceAware] {
            let mut cfg = testbed(3, 8, 512 << 10);
            cfg.file_size = file_size;
            cfg.faults = FaultPlan {
                loss,
                option_strip: strip,
                stragglers: if straggler > 1.0 {
                    vec![(0, straggler)]
                } else {
                    Vec::new()
                },
                ..FaultPlan::none()
            };
            let m = cfg.with_policy(policy).run();
            table.row(&[
                scenario.to_string(),
                policy.label().to_string(),
                format!("{loss:.2}"),
                format!("{strip:.2}"),
                format!("{straggler:.1}"),
                format!("{:.2}", m.bandwidth_mbs()),
                format!("{:.3}", m.latency_p99_ms()),
                m.retransmits.to_string(),
                m.stripped_options.to_string(),
                m.degraded_flows.to_string(),
                m.strip_migrations.to_string(),
            ]);
        }
    }
    emit("fig_faults", &table);
}

/// Extension table: request-latency distribution per policy — the paper
/// reports throughput; blocking reads make latency the underlying quantity,
/// and the tail is where scattered interrupts hurt interactive users.
pub fn tab_latency(scale: Scale) {
    let mut table = Table::new(
        "Extension — request latency by policy (128K transfers, 16 servers, 3-Gig NIC)",
        &["policy", "p50 (ms)", "p99 (ms)", "mean (ms)", "MB/s"],
    );
    for policy in [
        PolicyChoice::RoundRobin,
        PolicyChoice::Dedicated,
        PolicyChoice::LowestLoaded,
        PolicyChoice::IrqbalanceDaemon,
        PolicyChoice::FlowHash,
        PolicyChoice::Hybrid,
        PolicyChoice::SourceAware,
    ] {
        let mut cfg = testbed(3, 16, 128 << 10);
        cfg.file_size = scale.file_size();
        let m = cfg.with_policy(policy).run();
        table.row(&[
            policy.label().to_string(),
            format!("{:.3}", m.latency_p50_ms()),
            format!("{:.3}", m.latency_p99_ms()),
            format!("{:.3}", m.request_latency.mean() / 1e6),
            format!("{:.2}", m.bandwidth_mbs()),
        ]);
    }
    emit("tab_latency", &table);
}

/// Extension table: per-stage latency breakdown (flight recorder). Where
/// `tab_latency` shows *that* SAIs shortens requests, this shows *where*:
/// the interrupt→handler and handler→consume stages are essentially policy-
/// independent, while the cache-migration stall collapses to zero under
/// SAIs because the handling core already owns the strip's cache lines.
pub fn tab_stages(scale: Scale) {
    let mut table = Table::new(
        "Extension — per-stage latency by policy (128K transfers, 16 servers, 3-Gig NIC)",
        &[
            "policy",
            "stage",
            "count",
            "p50 (µs)",
            "p99 (µs)",
            "mean (µs)",
        ],
    );
    for policy in [
        PolicyChoice::RoundRobin,
        PolicyChoice::LowestLoaded,
        PolicyChoice::SourceAware,
    ] {
        let mut cfg = testbed(3, 16, 128 << 10);
        cfg.file_size = scale.file_size();
        let m = cfg
            .with_policy(policy)
            .with_observability(sais_core::scenario::ObsConfig {
                stages: true,
                ..Default::default()
            })
            .run();
        for stage in sais_obs::STAGES {
            let h = m.stages.get(stage).expect("stage histograms enabled");
            table.row(&[
                policy.label().to_string(),
                stage.name().to_string(),
                h.count().to_string(),
                format!("{:.3}", h.quantile(0.5) as f64 / 1e3),
                format!("{:.3}", h.quantile(0.99) as f64 / 1e3),
                format!("{:.3}", h.mean() / 1e3),
            ]);
        }
    }
    emit("tab_stages", &table);
}

/// Run every figure and ablation at the given scale.
///
/// Figs. 5–11 are eight views of two grids (3-Gig and 1-Gig testbed), so
/// each grid is simulated once and every view renders from it.
pub fn run_all(scale: Scale) {
    let grid_3gig = paper_grid("paper_grid_3gig", 3, scale);
    let grid_1gig = paper_grid("paper_grid_1gig", 1, scale);
    for view in GRID_VIEWS {
        let grid = if view.ports == 1 {
            &grid_1gig
        } else {
            &grid_3gig
        };
        render_grid(view, grid);
    }
    fig12_multiclient(scale);
    fig14_memory_sim(scale);
    tab_analysis_model(scale);
    abl_mp_ratio(scale);
    abl_coalescing(scale);
    abl_strip_size(scale);
    abl_policy_zoo(scale);
    abl_proc_migration(scale);
    abl_write_path(scale);
    abl_irqbalance_granularity(scale);
    abl_memsim_readahead(scale);
    fig_faults(scale);
    tab_latency(scale);
    tab_stages(scale);
}
