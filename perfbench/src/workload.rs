//! The workloads, their grids of cells, and one pass over a grid.
//!
//! A pass is one figure regeneration: every cell of the grid simulated
//! once, then the results rendered as a table and serialized to CSV.
//! Every grid runs through the sweep executor on `nproc` workers, as the
//! figure binaries run theirs. (A single simulation thread on a host
//! with two SMT siblings runs at one of two speeds, depending on whether
//! the sibling is busy; its pass times are bimodal and their median
//! jumps between the modes from run to run. Keeping every worker busy
//! removes that mode.)
//! Each cell is simulated through the same public calls
//! `ScenarioConfig::run` makes (`Cluster::new`, `Engine::run_to_quiescence`,
//! `Cluster::collect_metrics`), split apart so each can be timed.

use crate::trace::{Clock, Span};
use sais_bench::executor;
use sais_bench::figures::{FIG_FAULTS_GRID, SERVER_COUNTS, TRANSFER_SIZES};
use sais_core::cluster::{Cluster, Ev};
use sais_core::scenario::{
    FaultPlan, IoDirection, ObsConfig, PolicyChoice, RunMetrics, ScenarioConfig,
};
use sais_metrics::Table;
use sais_sim::{Engine, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// The seed the figure binaries use (`ScenarioConfig::testbed_*`). Under
/// it every cell is exactly the figure's cell, and the golden values
/// apply.
pub const DEFAULT_SEED: u64 = 0x5A15;

/// The two policies every workload compares, baseline first.
pub const POLICIES: [PolicyChoice; 2] = [PolicyChoice::LowestLoaded, PolicyChoice::SourceAware];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 5: 3-Gig reads, transfer size × server count.
    ReadSweep,
    /// 3-Gig writes, 16 servers, 1 MB transfers.
    WriteStream,
    /// The `fig_faults` grid with full observability.
    FaultsObserved,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ReadSweep, Kind::WriteStream, Kind::FaultsObserved];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadSweep => "paper_read_sweep",
            Kind::WriteStream => "write_stream",
            Kind::FaultsObserved => "faults_observed",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Per-client file size of every cell. Fig. 5 runs at the figure's
    /// `--quick` size. The other two are sized so a pass takes a few
    /// tenths of a second: with ~100 passes per run the tail statistic
    /// sits near p90 rather than p96+, where single host hiccups decide
    /// it. The write path has ~12x fewer events per byte, hence 2 GB; the
    /// fault grid runs at `fig_faults --full` size.
    fn file_size(self) -> u64 {
        match self {
            Kind::ReadSweep => 64 << 20,
            Kind::WriteStream => 2 << 30,
            Kind::FaultsObserved => 64 << 20,
        }
    }
}

/// One grid cell: a label unique within its workload, and its config.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub cfg: ScenarioConfig,
}

/// A workload instantiated for one seed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub cells: Vec<Cell>,
}

impl Workload {
    /// Generate the grid. Each (config, both policies) pair draws its own
    /// simulation and fault seeds from `seed`, so the grid's total work
    /// averages over independent seeds instead of repeating one seed's
    /// luck in every cell. At [`DEFAULT_SEED`] every cell keeps the
    /// figure's own seeds.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut cells = Vec::new();
        let mut push = |label: String, cfg: ScenarioConfig| {
            let pair = (cells.len() / POLICIES.len()) as u64;
            let offset = (seed ^ DEFAULT_SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15 + 2 * pair);
            for policy in POLICIES {
                let mut cfg = cfg.clone().with_policy(policy);
                cfg.file_size = kind.file_size();
                cfg.seed ^= offset;
                cfg.faults.seed ^= offset;
                cells.push(Cell {
                    label: format!("{label}/{}", policy.label()),
                    cfg,
                });
            }
        };
        match kind {
            Kind::ReadSweep => {
                for &ts in &TRANSFER_SIZES {
                    for &srv in &SERVER_COUNTS {
                        push(
                            format!("{}K/{srv}srv", ts >> 10),
                            ScenarioConfig::testbed_3gig(srv, ts),
                        );
                    }
                }
            }
            Kind::WriteStream => push(
                "1024K/16srv".to_string(),
                ScenarioConfig::testbed_3gig(16, 1 << 20).with_direction(IoDirection::Write),
            ),
            Kind::FaultsObserved => {
                for &(scenario, loss, strip, straggler) in &FIG_FAULTS_GRID {
                    let faults = FaultPlan {
                        loss,
                        option_strip: strip,
                        stragglers: if straggler > 1.0 {
                            vec![(0, straggler)]
                        } else {
                            Vec::new()
                        },
                        ..FaultPlan::none()
                    };
                    push(
                        scenario.to_string(),
                        ScenarioConfig::testbed_3gig(8, 512 << 10)
                            .with_faults(faults)
                            .with_observability(ObsConfig::full()),
                    );
                }
            }
        }
        Workload { kind, seed, cells }
    }
}

/// Declares [`Counts`]: the exact work counters of one cell (or, summed,
/// one pass), each read from a counter a layer already exposes.
macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $(pub $field: u64,)*
        }

        impl Counts {
            pub fn add(&mut self, o: &Counts) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

counts!(
    // engine: Engine::{dispatched, dispatch_batches, queue_cascades}
    events,
    batches,
    cascades,
    // model: RunMetrics
    strips,
    requests,
    bytes,
    // mem: MemorySystem totals and extent_stats(), summed over clients
    accesses,
    misses,
    c2c_lines,
    dram_fetches,
    whole_hit_groups,
    whole_c2c_groups,
    whole_fill_groups,
    partial_hit_lines,
    masked_fill_lines,
    fallback_lines,
    // net: RunMetrics transport counters and SrcParser
    retransmits,
    tcp_timeouts,
    duplicates,
    stripped_options,
    parses,
    parse_errors,
    transfers,
    // apic: RunMetrics steering counters
    interrupts,
    sais_interrupts,
    hinted_interrupts,
    degrades,
    repromotes,
    // obs: FlightRecorder and telemetry
    spans_recorded,
    spans_dropped,
    window_rotations,
    detector_evals,
    trace_bytes,
);

/// One simulated cell.
pub struct CellRun {
    pub metrics: RunMetrics,
    pub counts: Counts,
    pub spans: Vec<Span>,
}

/// Mirrors `ScenarioConfig`'s private runaway-loop backstop.
fn event_budget(cfg: &ScenarioConfig) -> u64 {
    let strips = cfg.total_bytes() / cfg.strip_size.min(cfg.transfer_size) + 16;
    strips.saturating_mul(64).saturating_mul(4) + 1_000_000
}

/// Mirrors `ScenarioConfig`'s private event-queue pre-sizing.
fn event_capacity(cfg: &ScenarioConfig) -> usize {
    let mss = cfg.mtu.saturating_sub(40).max(1);
    let batches_per_strip = cfg.strip_size.div_ceil(mss * cfg.coalesce_frames.max(1)) + 2;
    let per_client = cfg.servers as u64 * batches_per_strip + cfg.procs_per_client as u64;
    (cfg.clients as u64 * per_client + 64).min(1 << 22) as usize
}

/// Simulate one cell through the layer calls `ScenarioConfig::run` makes,
/// bracketing each with a span when `clock` is on. A recorder with spans
/// is serialized to Chrome JSON, as `fig_faults --trace` would.
pub fn run_cell(cfg: ScenarioConfig, clock: Clock, pass: u32, cell: usize) -> CellRun {
    if let Err(e) = cfg.validate() {
        panic!("invalid scenario: {e}");
    }
    let cell_id = Span::cell_id(pass, cell);
    let mut spans = Vec::new();
    let mut span = |name: &'static str, slot: u64, start_ns: u64, end_ns: u64| {
        if clock.on {
            spans.push(Span {
                name,
                id: cell_id | slot,
                parent: Some(cell_id),
                start_ns,
                end_ns,
                pass,
                cell: Some(cell),
            });
        }
    };
    let transfers_per_strip = u64::from(cfg.faults.perturbs_transport());
    let sais = cfg.policy == PolicyChoice::SourceAware;
    let total_bytes = cfg.total_bytes();
    let (max_events, capacity) = (event_budget(&cfg), event_capacity(&cfg));

    let t0 = clock.now();
    let cluster = Cluster::new(cfg);
    let t1 = clock.now();
    span("model.setup", 1, t0, t1);
    let mut engine = Engine::with_capacity(cluster, capacity);
    engine.prime(SimTime::ZERO, Ev::Start);
    let t2 = clock.now();
    engine.run_to_quiescence(max_events);
    let t3 = clock.now();
    span("engine.run", 2, t2, t3);
    let now = engine.now();
    let (dispatched, cascades, batches) = (
        engine.dispatched(),
        engine.queue_cascades(),
        engine.dispatch_batches(),
    );
    let (high_water, peak_buckets, max_batch) = (
        engine.queue_high_water() as u64,
        engine.queue_peak_buckets() as u64,
        engine.max_batch(),
    );
    let batch_hist = engine.batch_size_hist().to_vec();
    let mut cluster = engine.into_model();
    let t4 = clock.now();
    cluster.finish_telemetry();
    let mut m = cluster.collect_metrics(now);
    let t5 = clock.now();
    span("model.collect", 3, t4, t5);
    m.events_dispatched = dispatched;
    m.queue_high_water = high_water;
    m.queue_cascades = cascades;
    m.queue_peak_buckets = peak_buckets;
    m.dispatch_batches = batches;
    m.dispatch_max_batch = max_batch;
    m.dispatch_batch_hist = batch_hist;

    let mut trace_bytes = 0;
    if cluster.recorder().is_enabled() {
        let t6 = clock.now();
        trace_bytes = sais_obs::perfetto::to_chrome_json(cluster.recorder()).len() as u64;
        let t7 = clock.now();
        span("obs.export", 4, t6, t7);
    }

    let mut c = Counts {
        events: dispatched,
        batches,
        cascades,
        strips: m.strips_delivered,
        requests: m.requests_completed,
        bytes: m.bytes_delivered,
        retransmits: m.retransmits,
        tcp_timeouts: m.tcp_timeouts,
        duplicates: m.tcp_duplicates,
        stripped_options: m.stripped_options,
        transfers: m.strips_delivered * transfers_per_strip,
        interrupts: m.interrupts,
        sais_interrupts: if sais { m.interrupts } else { 0 },
        hinted_interrupts: m.hinted_interrupts,
        degrades: m.steering_degrades,
        repromotes: m.steering_repromotes,
        spans_recorded: cluster.recorder().recorded(),
        spans_dropped: cluster.recorder().dropped(),
        window_rotations: m.window_rotations,
        detector_evals: m.detector_evals,
        trace_bytes,
        ..Counts::default()
    };
    for node in &cluster.clients {
        let mem = &node.mem;
        let ext = mem.extent_stats();
        c.accesses += mem.total_accesses();
        c.misses += mem.total_misses();
        c.c2c_lines += mem.c2c_transfers();
        c.dram_fetches += mem.dram_fetches();
        c.whole_hit_groups += ext.whole_hit_groups;
        c.whole_c2c_groups += ext.whole_c2c_groups;
        c.whole_fill_groups += ext.whole_fill_groups;
        c.partial_hit_lines += ext.partial_hit_lines;
        c.masked_fill_lines += ext.masked_fill_lines;
        c.fallback_lines += ext.fallback_lines;
        let p = &node.parser;
        c.parses += p.with_hint.get() + p.without_hint.get() + p.parse_errors.get();
        c.parse_errors += p.parse_errors.get();
    }
    debug_assert!(m.bytes_delivered <= total_bytes);
    if clock.on {
        spans.push(Span {
            name: "cell",
            id: cell_id,
            parent: Some(Span::pass_id(pass)),
            start_ns: t0,
            end_ns: clock.now(),
            pass,
            cell: Some(cell),
        });
    }
    CellRun {
        metrics: m,
        counts: c,
        spans,
    }
}

/// Executor counters gained during one pass, summed over workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecDelta {
    pub workers: u64,
    /// Busy time over workers × the pass's wall time.
    pub efficiency: f64,
    pub tasks: u64,
    pub busy_ns: u64,
    pub idle_ns: u64,
    pub steals_hit: u64,
    pub steals_missed: u64,
}

fn exec_delta(before: &executor::ExecutorStats, after: &executor::ExecutorStats) -> ExecDelta {
    let mut d = ExecDelta::default();
    for (w, a) in after.workers.iter().enumerate() {
        let b = before.workers.get(w).copied().unwrap_or_default();
        if a.tasks > b.tasks {
            d.workers += 1;
        }
        d.tasks += a.tasks - b.tasks;
        d.busy_ns += a.busy_ns - b.busy_ns;
        d.idle_ns += a.idle_ns - b.idle_ns;
        d.steals_hit += a.steals_hit - b.steals_hit;
        d.steals_missed += a.steals_missed - b.steals_missed;
    }
    d
}

/// One pass over a workload's grid.
pub struct Pass {
    /// Host time of the pass: every cell plus the CSV export.
    pub wall_s: f64,
    /// Per-cell results in grid order; `Err` holds a panic message.
    pub cells: Vec<Result<CellRun, String>>,
    pub counts: Counts,
    pub csv: String,
    pub spans: Vec<Span>,
    pub exec: ExecDelta,
}

impl Pass {
    /// The cells' metrics, if none panicked.
    pub fn metrics(&self) -> Option<Vec<&RunMetrics>> {
        self.cells
            .iter()
            .map(|c| c.as_ref().ok().map(|r| &r.metrics))
            .collect()
    }
}

/// Run one pass. `obs` replaces every cell's observability switches
/// (to time the same grid with observability toggled).
pub fn run_pass(w: &Workload, pass: u32, traced: bool, obs: Option<&ObsConfig>) -> Pass {
    let clock = Clock { on: traced };
    let cfg_of = |i: usize| {
        let mut cfg = w.cells[i].cfg.clone();
        if let Some(o) = obs {
            cfg.obs = o.clone();
        }
        cfg
    };
    let guarded = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| run_cell(cfg_of(i), clock, pass, i))).map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string())
        })
    };
    let n = w.cells.len();
    let before = executor::executor_stats();
    let t = Instant::now();
    let start_ns = clock.now();
    let slots: Mutex<Vec<Option<Result<CellRun, String>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    executor::run_indexed(n, executor::default_workers(), |i| {
        let r = guarded(i);
        slots.lock().expect("a cell panicked outside catch_unwind")[i] = Some(r);
    });
    let cells: Vec<Result<CellRun, String>> = slots
        .into_inner()
        .expect("a cell panicked outside catch_unwind")
        .into_iter()
        .map(|r| r.expect("run_indexed runs every index"))
        .collect();
    let csv_start = clock.now();
    let csv = results_table(w, &cells).to_csv();
    let end_ns = clock.now();
    let wall_s = t.elapsed().as_secs_f64();
    let mut exec = exec_delta(&before, &executor::executor_stats());
    exec.efficiency = exec.busy_ns as f64 / 1e9 / (exec.workers.max(1) as f64 * wall_s);

    let mut counts = Counts::default();
    let mut spans = Vec::new();
    for r in cells.iter().flatten() {
        counts.add(&r.counts);
        spans.extend(r.spans.iter().cloned());
    }
    if traced {
        let id = Span::pass_id(pass);
        spans.push(Span {
            name: "export.csv",
            id: id | 0xff,
            parent: Some(id),
            start_ns: csv_start,
            end_ns,
            pass,
            cell: None,
        });
        spans.push(Span {
            name: "pass",
            id,
            parent: None,
            start_ns,
            end_ns,
            pass,
            cell: None,
        });
    }
    Pass {
        wall_s,
        cells,
        counts,
        csv,
        spans,
        exec,
    }
}

/// The figure-style results table the pass exports.
fn results_table(w: &Workload, cells: &[Result<CellRun, String>]) -> Table {
    let mut t = Table::new(
        format!("{} (seed {})", w.kind.name(), w.seed),
        &[
            "cell",
            "MB/s",
            "L2 miss",
            "CPU util",
            "unhalted",
            "migrations",
            "p99 ms",
        ],
    );
    for (cell, r) in w.cells.iter().zip(cells) {
        match r {
            Ok(r) => {
                let m = &r.metrics;
                t.row(&[
                    cell.label.clone(),
                    format!("{:.2}", m.bandwidth_mbs()),
                    format!("{:.4}", m.l2_miss_rate),
                    format!("{:.4}", m.cpu_utilization),
                    m.unhalted_cycles.to_string(),
                    m.strip_migrations.to_string(),
                    format!("{:.3}", m.latency_p99_ms()),
                ]);
            }
            Err(e) => {
                let mut row = vec![String::new(); 7];
                row[0] = cell.label.clone();
                row[1] = format!("panicked: {e}");
                t.row(&row);
            }
        }
    }
    t
}
