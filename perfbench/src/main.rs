//! End-to-end and per-layer benchmark of the SAIs simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_read_sweep|write_stream|faults_observed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--golden <path>] [--out <dir>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-golden
//! ```
//!
//! Each workload is a closed loop over its grid: one pass simulates every
//! cell and exports the results table, and passes run back to back until
//! `--seconds` have elapsed. Every pass's outputs are checked (golden
//! statistics at the default seed, invariants at any seed); a pass that
//! panics or fails a check counts as failed. The last line of stdout is
//! one JSON object: `correct`, `attempted` (passes), `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md`.

mod check;
mod micro;
mod stats;
mod trace;
mod workload;

use check::{Golden, GoldenRow};
use sais_core::scenario::{ObsConfig, PolicyChoice};
use sais_net::SegmentPlan;
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Span;
use workload::{run_cell, run_pass, Counts, Kind, Pass, Workload, DEFAULT_SEED};

/// This package's directory, which holds the golden file and the
/// outputs, and the repository it builds from.
const BENCH_DIR: &str = env!("CARGO_MANIFEST_DIR");
const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Set-up repetitions per run; `setup_s` is their median. The first runs
/// before the first pass; the rest are spread over the run so that, like
/// the passes, they sample the host's changing load.
const SETUP_REPS: usize = 9;

/// The warm-up cell's file size cap: enough to touch every layer once.
const WARM_UP_FILE: u64 = 64 << 20;

/// Pass pairs timed with observability toggled, for `obs.overhead_ratio`.
const OBS_PAIRS: usize = 3;

/// The paper's Fig. 5 maximum SAIs bandwidth gain (48 servers), in %.
const PAPER_GAIN_48SRV_PCT: f64 = 23.57;

const USAGE: &str = "usage: perfbench --workload <paper_read_sweep|write_stream|faults_observed> \
--seed <n> --seconds <s> --trace <0|1> [--golden <path>] [--out <dir>]\n       \
perfbench --write-golden [--golden <path>]";

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: PathBuf,
    out: PathBuf,
    write_golden: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        kind: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        golden: Path::new(BENCH_DIR).join("golden.txt"),
        out: Path::new(BENCH_DIR).join("out"),
        write_golden: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            a.write_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                a.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {value:?}: want a number in (0, 3600]"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                }
            }
            "--golden" => a.golden = PathBuf::from(value),
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if a.kind.is_none() && !a.write_golden {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

fn main() {
    trace::now_ns(); // start the span clock at process start
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if args.write_golden {
        write_golden(&args.golden)
    } else {
        run(&args)
    };
    std::process::exit(code);
}

/// What a run is traceable to: source revision, seed and host.
struct Identity {
    git_rev: String,
    src_hash: String,
    nproc: usize,
    cpu: String,
    calib_ns_per_iter: f64,
}

impl Identity {
    fn gather() -> Identity {
        Identity {
            git_rev: git_rev(Path::new(REPO)).unwrap_or_else(|| "none".to_string()),
            src_hash: format!("{:016x}", source_hash(Path::new(REPO))),
            nproc: sais_bench::executor::default_workers(),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
            calib_ns_per_iter: micro::calibration_ns_per_iter(),
        }
    }

    fn json(&self, workload: &str, seed: u64) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"src_hash\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \"cpu\": \"{}\", \"calib_ns_per_iter\": {}}}",
            self.git_rev,
            self.src_hash,
            self.nproc,
            self.cpu.replace(['"', '\\'], ""),
            self.calib_ns_per_iter
        )
    }
}

/// The checked-out commit, read from `.git` without running git. A
/// source tree without `.git` has none; `src_hash` identifies it instead.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

/// FNV-1a over the path and bytes of every Rust source and manifest the
/// benchmark builds from, in sorted path order.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target" && n != "out") {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Everything a pass needs: the grid, the golden values, and a warm-up
/// that checks the benchmark's decomposed cell run against
/// `ScenarioConfig::run` and that observability is inert.
fn set_up(kind: Kind, seed: u64, golden: &Path) -> Result<(Workload, Golden), String> {
    let w = Workload::new(kind, seed);
    let golden = Golden::load(golden)?;
    let mut cell = w.cells.last().expect("every grid has cells").clone();
    cell.cfg.file_size = cell.cfg.file_size.min(WARM_UP_FILE);
    let split = run_cell(cell.cfg.clone(), trace::Clock { on: false }, 0, 0).metrics;
    let whole = cell.cfg.clone().run();
    if !check::same_statistics(&split, &whole) {
        return Err(format!(
            "{}: the timed cell run differs from ScenarioConfig::run",
            cell.label
        ));
    }
    let toggled = cell
        .cfg
        .clone()
        .with_observability(toggled_obs(&cell.cfg.obs))
        .run();
    if !check::same_statistics(&toggled, &whole) {
        return Err(format!(
            "{}: observability changed the statistics",
            cell.label
        ));
    }
    Ok((w, golden))
}

/// Observability switched the other way: full if off, off if on.
fn toggled_obs(obs: &ObsConfig) -> ObsConfig {
    if obs.spans {
        ObsConfig::default()
    } else {
        ObsConfig::full()
    }
}

/// Check one pass; returns the reasons it failed (empty if it passed).
/// Counts must repeat exactly from pass to pass of one seed.
fn judge(w: &Workload, p: &Pass, golden: &Golden, first: &mut Option<Counts>) -> Vec<String> {
    let mut errs: Vec<String> = p
        .cells
        .iter()
        .zip(&w.cells)
        .filter_map(|(r, c)| {
            r.as_ref()
                .err()
                .map(|e| format!("{} panicked: {e}", c.label))
        })
        .collect();
    if let Some(ms) = p.metrics() {
        errs.extend(check::check_cells(w, &ms, Some(golden)));
        match first {
            None => *first = Some(p.counts),
            Some(f) if *f != p.counts => {
                errs.push("work counters changed between passes".to_string())
            }
            Some(_) => {}
        }
    }
    errs
}

/// Pass bookkeeping for the whole run.
struct Tally {
    attempted: u64,
    failed: u64,
    first_counts: Option<Counts>,
}

impl Tally {
    fn record(&mut self, w: &Workload, p: &Pass, golden: &Golden) {
        self.attempted += 1;
        let errs = judge(w, p, golden, &mut self.first_counts);
        for e in errs.iter().take(5) {
            eprintln!("perfbench: check failed: {e}");
        }
        if !errs.is_empty() {
            self.failed += 1;
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> i32 {
    let kind = args.kind.expect("checked by parse_args");
    let ident = Identity::gather();
    eprintln!("perfbench: identity {}", ident.json(kind.name(), args.seed));

    let timed_set_up = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let r = set_up(kind, args.seed, &args.golden);
        setup_s.push(t.elapsed().as_secs_f64());
        r.map_err(|e| {
            eprintln!("perfbench: set-up failed: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            1
        })
    };
    let mut setup_s = Vec::new();
    let (w, golden) = match timed_set_up(&mut setup_s) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        first_counts: None,
    };
    // Timed passes. With --trace 1 every other pass is traced, so the
    // traced and untraced pass times interleave under the same host
    // conditions and their ratio is the tracing overhead.
    let mut walls: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut bytes = 0u64;
    let mut spans: Vec<Span> = Vec::new();
    let mut execs = Vec::new();
    // Each pass's own peak resident set. The peak over a whole run is not
    // used: with two workers, which cells overlap and how the allocator's
    // per-thread arenas grew decide it, and on `faults_observed` it split
    // into two modes (48-53 MB and 60-66 MB) across seeds.
    let mut pass_rss = Vec::new();
    let mut last: Option<Pass> = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    // A traced run needs at least one traced and one untraced pass.
    let min_passes = if args.trace { 2 } else { 1 };
    let mut pass_no = 0u32;
    while pass_no < min_passes || Instant::now() < deadline {
        let due = setup_s.len() as f64 / SETUP_REPS as f64 * args.seconds;
        if setup_s.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            if let Err(code) = timed_set_up(&mut setup_s) {
                return code;
            }
        }
        let traced = args.trace && pass_no.is_multiple_of(2);
        reset_peak_rss();
        let p = run_pass(&w, pass_no, traced, None);
        pass_rss.push(peak_rss_mb());
        tally.record(&w, &p, &golden);
        if traced {
            traced_walls.push(p.wall_s);
            spans.extend(p.spans.iter().cloned());
        } else {
            walls.push(p.wall_s);
            bytes += p.counts.bytes;
        }
        execs.push(p.exec);
        last = Some(p);
        pass_no += 1;
    }
    let last = last.expect("at least one pass");
    while setup_s.len() < SETUP_REPS {
        if let Err(code) = timed_set_up(&mut setup_s) {
            return code;
        }
    }

    let mut report = BTreeMap::new();
    report.insert(
        "pass_s",
        walls
            .iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let metrics: Vec<Metric> = if args.trace {
        per_layer(
            &w,
            &last,
            &spans,
            &traced_walls,
            &walls,
            &execs,
            &golden,
            &mut tally,
            &mut report,
        )
    } else {
        let (tail, rank) = stats::tail(&walls);
        let total_s: f64 = walls.iter().sum();
        eprintln!(
            "perfbench: {} passes, pass_s p50 {:.4} / p{rank:.0} {tail:.4}, setup_s samples {setup_s:?}",
            walls.len(),
            median(&walls)
        );
        vec![
            metric("sim_mb_per_host_s", bytes as f64 / 1e6 / total_s, "MB/s"),
            metric("pass_s_p50", median(&walls), "s"),
            metric("pass_s_tail", tail, "s"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", median(&pass_rss), "MB"),
        ]
    };
    let failed_frac = tally.failed as f64 / tally.attempted as f64;
    eprintln!(
        "perfbench: {}: {} passes attempted, {} failed (failed_frac {failed_frac})",
        kind.name(),
        tally.attempted,
        tally.failed
    );
    write_outputs(args, &ident, &w, &last, &metrics, &spans, &report);
    let correct = tally.failed == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

/// Restart the process's peak-resident-set count (`VmHWM`) from the
/// current resident set. Where the kernel refuses, `VmHWM` stays the
/// process-wide peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) since the last [`reset_peak_rss`], in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-pass sums of the named span's durations, one entry per traced pass.
fn per_pass_ns(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_pass: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "pass") {
        by_pass.insert(s.pass, 0.0);
    }
    for s in spans.iter().filter(|s| s.name == name) {
        *by_pass.entry(s.pass).or_default() += (s.end_ns - s.start_ns) as f64;
    }
    by_pass.into_values().collect()
}

/// Median over traced passes of each layer's self time, in ms.
fn self_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut by_pass: BTreeMap<u32, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_pass.entry(s.pass).or_default().push(s.clone());
    }
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for pass_spans in by_pass.values() {
        for (layer, ns) in trace::self_times(pass_spans) {
            samples.entry(layer).or_default().push(ns as f64 / 1e6);
        }
    }
    samples.into_iter().map(|(l, v)| (l, median(&v))).collect()
}

/// Simulated accuracy against the paper claim the workload reproduces,
/// in percentage points. `None` where the paper gives no number.
fn model_error_pp(w: &Workload, p: &Pass) -> Option<f64> {
    let ms = p.metrics()?;
    let gain = |base: usize| {
        ms[base + 1].bandwidth_bytes_per_sec() / ms[base].bandwidth_bytes_per_sec() - 1.0
    };
    match w.kind {
        // Fig. 5: the max SAIs gain at 48 servers over transfer sizes.
        Kind::ReadSweep => {
            let best = (0..w.cells.len())
                .step_by(2)
                .filter(|&i| w.cells[i].cfg.servers == 48)
                .map(gain)
                .fold(f64::NEG_INFINITY, f64::max);
            Some((PAPER_GAIN_48SRV_PCT - 100.0 * best).abs())
        }
        // §I: writes have no interrupt locality to win, so 0 % gain.
        Kind::WriteStream => Some((100.0 * gain(0)).abs()),
        Kind::FaultsObserved => None,
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    w: &Workload,
    last: &Pass,
    spans: &[Span],
    traced_walls: &[f64],
    walls: &[f64],
    execs: &[workload::ExecDelta],
    golden: &Golden,
    tally: &mut Tally,
    report: &mut BTreeMap<&'static str, String>,
) -> Vec<Metric> {
    let c = last.counts;
    let med_ms = |name: &str| median(&per_pass_ns(spans, name)) / 1e6;
    let engine_run_ms = med_ms("engine.run");

    // Observability on against off over the same cells, interleaved.
    let mut on = Vec::new();
    let mut off = Vec::new();
    let configured_on = w.cells[0].cfg.obs.spans;
    let toggled = toggled_obs(&w.cells[0].cfg.obs);
    for i in 0..OBS_PAIRS {
        let base = run_pass(w, 1_000_000 + 2 * i as u32, false, None);
        tally.record(w, &base, golden);
        let flip = run_pass(w, 1_000_001 + 2 * i as u32, false, Some(&toggled));
        let same = match (base.metrics(), flip.metrics()) {
            (Some(a), Some(b)) => a.iter().zip(&b).all(|(x, y)| check::same_statistics(x, y)),
            _ => false,
        };
        tally.attempted += 1;
        if !same {
            tally.failed += 1;
            eprintln!("perfbench: check failed: observability changed the statistics");
        }
        let (a, b) = if configured_on {
            (&mut on, &mut off)
        } else {
            (&mut off, &mut on)
        };
        a.push(base.wall_s);
        b.push(flip.wall_s);
    }

    // The program's own phase totals over one untraced pass, as a
    // cross-check of the span self times (zones exist already; this
    // only switches them on).
    sais_prof::set_enabled(true);
    let before = sais_prof::phase_snapshot();
    let prof_pass = run_pass(w, 2_000_000, false, None);
    let after = sais_prof::phase_snapshot();
    sais_prof::set_enabled(false);
    tally.record(w, &prof_pass, golden);
    let prof_ms: Vec<f64> = before
        .iter()
        .zip(after)
        .map(|(b, a)| a.saturating_sub(*b) as f64 / 1e6)
        .collect();

    // Unit costs.
    let wheel_ns = micro::wheel_ns_per_op();
    let regimes = micro::mem_regimes();
    let parse_ns = micro::parse_ns();
    let sel_irq = micro::select_ns(PolicyChoice::LowestLoaded);
    let sel_sais = micro::select_ns(PolicyChoice::SourceAware);
    let mut transfer_cost: BTreeMap<u64, f64> = BTreeMap::new();
    let mut transfer_pred_ns = 0.0;
    for (cell, r) in w.cells.iter().zip(&last.cells) {
        let cfg = &cell.cfg;
        let ns = *transfer_cost
            .entry(cfg.faults.loss.to_bits())
            .or_insert_with(|| {
                let segments = SegmentPlan::streaming(cfg.strip_size, cfg.mtu, 4).packets;
                micro::transfer_ns(
                    segments,
                    cfg.faults.loss,
                    cfg.request_net_delay,
                    cfg.retransmit_timeout,
                )
            });
        if let Ok(r) = r {
            transfer_pred_ns += r.counts.transfers as f64 * ns;
        }
    }
    let ns_per_transfer = if c.transfers > 0 {
        transfer_pred_ns / c.transfers as f64
    } else {
        *transfer_cost.values().next().expect("at least one cell")
    };

    let regime_lines = [
        c.whole_hit_groups * 64,
        c.whole_c2c_groups * 64,
        c.whole_fill_groups * 64,
        c.partial_hit_lines,
        c.masked_fill_lines,
        c.fallback_lines,
    ];
    let touched: u64 = regime_lines.iter().sum();
    let mem_pred_ms: f64 = regimes
        .iter()
        .zip(regime_lines)
        .map(|(r, n)| r.ns_per_line * n as f64 / 1e6)
        .sum();

    // Predicted engine.run time: Σ count × unit cost.
    let mut rows: Vec<(String, u64, f64)> = regimes
        .iter()
        .zip(regime_lines)
        .map(|(r, n)| (format!("mem.{}", r.name), n, r.ns_per_line))
        .collect();
    rows.push(("engine.wheel_op".into(), c.events, wheel_ns));
    rows.push(("net.transfer".into(), c.transfers, ns_per_transfer));
    rows.push(("net.parse".into(), c.parses, parse_ns));
    rows.push((
        "apic.select.irqbalance".into(),
        c.interrupts - c.sais_interrupts,
        sel_irq,
    ));
    rows.push(("apic.select.sais".into(), c.sais_interrupts, sel_sais));
    let predicted_ms: f64 = rows.iter().map(|(_, n, ns)| *n as f64 * ns / 1e6).sum();
    let residual_frac = (engine_run_ms - predicted_ms) / engine_run_ms;
    let mut table = format!(
        "residual table, {} (one pass; measured = engine.run span, median of traced passes)\n{:<24} {:>12} {:>10} {:>12} {:>8}\n",
        w.kind.name(),
        "unit",
        "count",
        "ns/unit",
        "pred ms",
        "share"
    );
    for (name, n, ns) in &rows {
        let ms = *n as f64 * ns / 1e6;
        table.push_str(&format!(
            "{name:<24} {n:>12} {ns:>10.2} {ms:>12.3} {:>7.1}%\n",
            100.0 * ms / engine_run_ms
        ));
    }
    table.push_str(&format!(
        "{:<24} {:>12} {:>10} {predicted_ms:>12.3} {:>7.1}%\n{:<24} {:>12} {:>10} {engine_run_ms:>12.3} {:>7.1}%\nresidual {:.1}% of measured\n",
        "predicted", "", "", 100.0 * predicted_ms / engine_run_ms, "measured engine.run", "", "", 100.0, 100.0 * residual_frac
    ));
    if residual_frac.abs() > 0.25 {
        table.push_str(&format!(
            "FINDING: {:.0}% of engine.run is not explained by the unit costs above; \
             the Cluster event arms, CPU/process accounting and the interaction of the \
             layers' caches have no microbenchmark of their own\n",
            100.0 * residual_frac
        ));
    }
    for r in &regimes {
        if r.share < 0.9 {
            table.push_str(&format!(
                "FINDING: mem.ns_per_line.{} loop served only {:.0}% of its lines in that regime\n",
                r.name,
                100.0 * r.share
            ));
        }
    }
    eprint!("{table}");
    report.insert("residual_table", table);

    let self_times = self_ms(spans);
    let layer_self = |l: &str| self_times.get(l).copied().unwrap_or(0.0);
    let med =
        |f: &dyn Fn(&workload::ExecDelta) -> f64| median(&execs.iter().map(f).collect::<Vec<_>>());
    let pass_med = median(walls);
    let workers = execs.iter().map(|e| e.workers).max().unwrap_or(0);
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let model_err = model_error_pp(w, last).unwrap_or(0.0);

    let mut m = vec![
        metric("engine.events", c.events as f64, "count"),
        metric("engine.batches", c.batches as f64, "count"),
        metric("engine.cascades", c.cascades as f64, "count"),
        metric("engine.run_ms", engine_run_ms, "ms"),
        metric("engine.ns_per_op", wheel_ns, "ns"),
        metric("engine.self_ms", layer_self("engine"), "ms"),
        metric("engine.prof_self_ms", prof_ms[0], "ms"),
        metric("model.setup_us", med_ms("model.setup") * 1e3, "us"),
        metric("model.collect_us", med_ms("model.collect") * 1e3, "us"),
        metric("model.strips", c.strips as f64, "count"),
        metric("model.requests", c.requests as f64, "count"),
        metric("model.error_pp", model_err, "pp"),
        metric("model.self_ms", layer_self("model"), "ms"),
        metric("model.prof_self_ms", prof_ms[1], "ms"),
        metric("mem.accesses", c.accesses as f64, "count"),
        metric("mem.misses", c.misses as f64, "count"),
        metric("mem.c2c_lines", c.c2c_lines as f64, "count"),
        metric("mem.dram_fetches", c.dram_fetches as f64, "count"),
        metric("mem.whole_hit_groups", c.whole_hit_groups as f64, "count"),
        metric("mem.whole_c2c_groups", c.whole_c2c_groups as f64, "count"),
        metric("mem.whole_fill_groups", c.whole_fill_groups as f64, "count"),
        metric("mem.partial_hit_lines", c.partial_hit_lines as f64, "count"),
        metric("mem.masked_fill_lines", c.masked_fill_lines as f64, "count"),
        metric("mem.fallback_lines", c.fallback_lines as f64, "count"),
        metric(
            "mem.fastpath_ratio",
            ratio(touched - c.fallback_lines, touched),
            "ratio",
        ),
    ];
    for r in &regimes {
        m.push(metric(
            &format!("mem.ns_per_line.{}", r.name),
            r.ns_per_line,
            "ns",
        ));
    }
    m.extend([
        metric("mem.predicted_ms", mem_pred_ms, "ms"),
        metric("mem.prof_self_ms", prof_ms[2], "ms"),
        metric("net.retransmits", c.retransmits as f64, "count"),
        metric("net.tcp_timeouts", c.tcp_timeouts as f64, "count"),
        metric("net.duplicates", c.duplicates as f64, "count"),
        metric("net.stripped_options", c.stripped_options as f64, "count"),
        metric("net.parse_errors", c.parse_errors as f64, "count"),
        metric("net.ns_per_transfer", ns_per_transfer, "ns"),
        metric("net.ns_per_parse", parse_ns, "ns"),
        metric("net.prof_self_ms", prof_ms[3], "ms"),
        metric("apic.interrupts", c.interrupts as f64, "count"),
        metric(
            "apic.hinted_ratio",
            ratio(c.hinted_interrupts, c.interrupts),
            "ratio",
        ),
        metric("apic.degrades", c.degrades as f64, "count"),
        metric("apic.repromotes", c.repromotes as f64, "count"),
        metric("apic.ns_per_select.irqbalance", sel_irq, "ns"),
        metric("apic.ns_per_select.sais", sel_sais, "ns"),
        metric("obs.spans_recorded", c.spans_recorded as f64, "count"),
        metric("obs.spans_dropped", c.spans_dropped as f64, "count"),
        metric("obs.window_rotations", c.window_rotations as f64, "count"),
        metric("obs.detector_evals", c.detector_evals as f64, "count"),
        metric("obs.overhead_ratio", median(&on) / median(&off), "ratio"),
        metric("obs.trace_export_ms", med_ms("obs.export"), "ms"),
        metric("obs.trace_bytes", c.trace_bytes as f64, "B"),
        metric("obs.self_ms", layer_self("obs"), "ms"),
        metric("export.csv_us", med_ms("export.csv") * 1e3, "us"),
        metric("export.self_ms", layer_self("export"), "ms"),
        metric("export.prof_self_ms", prof_ms[4], "ms"),
        metric("executor.workers", workers as f64, "count"),
        metric("executor.tasks", med(&|e| e.tasks as f64), "count"),
        metric("executor.busy_ms", med(&|e| e.busy_ns as f64 / 1e6), "ms"),
        metric("executor.idle_ms", med(&|e| e.idle_ns as f64 / 1e6), "ms"),
        metric(
            "executor.steals_hit",
            med(&|e| e.steals_hit as f64),
            "count",
        ),
        metric(
            "executor.steals_missed",
            med(&|e| e.steals_missed as f64),
            "count",
        ),
        metric("executor.efficiency", med(&|e| e.efficiency), "ratio"),
        metric("bench.self_ms", layer_self("bench"), "ms"),
        metric("predicted_run_ms", predicted_ms, "ms"),
        metric("residual_frac", residual_frac, "ratio"),
        metric(
            "trace_overhead_ratio",
            median(traced_walls) / pass_med,
            "ratio",
        ),
    ]);
    m
}

/// Write the run's report (identity, metrics, residual table) and, for a
/// traced run, its spans and the last pass's CSV, under `--out`.
fn write_outputs(
    args: &Args,
    ident: &Identity,
    w: &Workload,
    last: &Pass,
    metrics: &[Metric],
    spans: &[Span],
    report: &BTreeMap<&'static str, String>,
) {
    let stem = format!(
        "{}-seed{}-trace{}",
        w.kind.name(),
        w.seed,
        u8::from(args.trace)
    );
    let mut body = format!(
        "{{\n\"identity\": {},\n\"metrics\": {{",
        ident.json(w.kind.name(), w.seed)
    );
    for (i, (n, v, u)) in metrics.iter().enumerate() {
        body.push_str(&format!(
            "{}\n  \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}",
            if i == 0 { "" } else { "," }
        ));
    }
    body.push_str("\n}");
    for (k, v) in report {
        body.push_str(&format!(",\n\"{k}\": {:?}", v));
    }
    body.push_str("\n}\n");
    let mut files = vec![
        (format!("{stem}.json"), body),
        (format!("{stem}.csv"), last.csv.clone()),
    ];
    if args.trace {
        files.push((
            format!("{stem}.spans.json"),
            format!(
                "{{\"identity\": {},\n\"spans\": {}}}\n",
                ident.json(w.kind.name(), w.seed),
                trace::spans_json(spans, w.kind.name(), w.seed)
            ),
        ));
    }
    let written = std::fs::create_dir_all(&args.out).and_then(|_| {
        files
            .iter()
            .try_for_each(|(name, text)| std::fs::write(args.out.join(name), text))
    });
    match written {
        Ok(()) => eprintln!("perfbench: wrote {}/{stem}.*", args.out.display()),
        Err(e) => eprintln!(
            "perfbench: cannot write outputs to {}: {e}",
            args.out.display()
        ),
    }
}

/// Regenerate the golden file from one pass of every workload at the
/// default seed. Refuses if any invariant fails.
fn write_golden(path: &Path) -> i32 {
    let mut rows: Vec<(Kind, String, GoldenRow)> = Vec::new();
    for kind in Kind::ALL {
        let w = Workload::new(kind, DEFAULT_SEED);
        let p = run_pass(&w, 0, false, None);
        let Some(ms) = p.metrics() else {
            eprintln!("perfbench: {}: a cell panicked", kind.name());
            return 1;
        };
        let errs = check::check_cells(&w, &ms, None);
        if !errs.is_empty() {
            for e in errs {
                eprintln!("perfbench: invariant failed: {e}");
            }
            return 1;
        }
        for (cell, m) in w.cells.iter().zip(ms) {
            rows.push((kind, cell.label.clone(), GoldenRow::of(m)));
        }
    }
    match std::fs::write(path, check::render_golden(&rows)) {
        Ok(()) => {
            eprintln!(
                "perfbench: wrote {} golden rows to {}",
                rows.len(),
                path.display()
            );
            0
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            1
        }
    }
}
