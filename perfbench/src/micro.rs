//! Unit costs: microbenchmarks of the layers' public functions, each the
//! median of several timed repetitions, in ns per unit of work.

use crate::stats::median;
use sais_apic::SteerCtx;
use sais_core::scenario::PolicyChoice;
use sais_core::SrcParser;
use sais_cpu::{CpuCore, LoadTracker};
use sais_mem::{AddrAlloc, AddrRange, ExtentStats, MemParams, MemorySystem};
use sais_net::{simulate_transfer, Ipv4Header, PipeFaults};
use sais_sim::{SimDuration, SimRng, SimTime, TimingWheel};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`'s wall time per unit it reports.
fn ns_per_unit(mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let units = f();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// A fixed integer kernel (dependent multiply-rotate chain): its ns/iter
/// lets numbers from different hosts be compared without normalising
/// them.
pub fn calibration_ns_per_iter() -> f64 {
    const ITERS: u64 = 1 << 22;
    ns_per_unit(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..ITERS {
            x = x.wrapping_mul(0xD134_2543_DE82_EF95).rotate_left(23) ^ i;
        }
        black_box(x);
        ITERS
    })
}

/// `TimingWheel::push` + `pop_run` in a steady state of 1024 pending
/// events with delays from 1 µs to 1 ms: ns per event scheduled and
/// dispatched.
pub fn wheel_ns_per_op() -> f64 {
    const PENDING: u64 = 1024;
    const OPS: u64 = 1 << 18;
    ns_per_unit(|| {
        let mut rng = SimRng::new(7);
        let mut wheel: TimingWheel<u64> = TimingWheel::with_capacity(PENDING as usize);
        for i in 0..PENDING {
            wheel.push(SimTime::from_nanos(1_000 + rng.next_below(1_000_000)), i);
        }
        let mut buf = Vec::with_capacity(64);
        let mut ops = 0;
        while ops < OPS {
            buf.clear();
            let now = wheel.pop_run(64, &mut buf).expect("the wheel never drains");
            for &e in &buf {
                let at = now.as_nanos() + 1_000 + rng.next_below(1_000_000);
                wheel.push(SimTime::from_nanos(at), black_box(e));
            }
            ops += buf.len() as u64;
        }
        ops
    })
}

/// The six `touch` regimes the extent summaries classify lines into, in
/// the order `mem.ns_per_line.<regime>` reports them.
pub const REGIMES: [&str; 6] = [
    "whole_hit",
    "whole_c2c",
    "whole_fill",
    "partial_hit",
    "masked_fill",
    "fallback",
];

/// Lines per regime of an `ExtentStats` (whole-group counters × 64).
pub fn regime_lines(s: &ExtentStats) -> [u64; 6] {
    [
        s.whole_hit_groups * 64,
        s.whole_c2c_groups * 64,
        s.whole_fill_groups * 64,
        s.partial_hit_lines,
        s.masked_fill_lines,
        s.fallback_lines,
    ]
}

/// One regime's unit cost, with the share of the timed lines that the
/// extent counters attribute to that regime (the check that the loop
/// exercised what it claims).
pub struct RegimeCost {
    pub name: &'static str,
    pub ns_per_line: f64,
    pub share: f64,
}

const STRIP: u64 = 64 * 1024; // 1024 lines = 16 aligned groups
const LINE: u64 = 64;
const GROUP: u64 = 64 * LINE;

/// A fresh strip starting on an extent-group boundary.
fn aligned_strip(alloc: &mut AddrAlloc) -> AddrRange {
    let r = alloc.alloc(STRIP + GROUP);
    AddrRange::new(r.start.next_multiple_of(GROUP), STRIP)
}

/// `MemorySystem::touch` per regime. Each loop is shaped so one regime
/// serves (nearly) every line; `share` reports how nearly.
pub fn mem_regimes() -> Vec<RegimeCost> {
    REGIMES
        .iter()
        .enumerate()
        .map(|(r, &name)| {
            let runs: Vec<(f64, f64)> = (0..REPS).map(|_| regime_loop(r)).collect();
            RegimeCost {
                name,
                ns_per_line: median(&runs.iter().map(|x| x.0).collect::<Vec<_>>()),
                share: runs.iter().map(|x| x.1).fold(1.0, f64::min),
            }
        })
        .collect()
}

/// Sub-range of group `g` of `strip`: lines `[8, 56)`, clipped at both
/// ends so the extent walk sees two partial-group edges.
fn inner(strip: AddrRange, g: u64) -> AddrRange {
    AddrRange::new(strip.start + (g * 64 + 8) * LINE, 48 * LINE)
}

/// Run regime `r`'s loop; returns (ns per line touched, share of those
/// lines counted in regime `r`). Only the loop itself is timed.
fn regime_loop(r: usize) -> (f64, f64) {
    let p = MemParams::sunfire_x4240();
    let mut alloc = AddrAlloc::new(p.line_size);
    let mut mem = MemorySystem::new(8, p);
    let strip = aligned_strip(&mut alloc);
    // Untimed preparation, then the timed loop below.
    match r {
        0 | 3 => {
            mem.touch(3, strip);
        }
        1 => {
            mem.touch(1, strip);
        }
        5 => {
            for g in 0..16 {
                mem.touch(1, inner(strip, g));
            }
        }
        _ => {}
    }
    let before = regime_lines(&mem.extent_stats());
    let mut lines = 0u64;
    const ROUNDS: u64 = 2048;
    let t = Instant::now();
    for i in 0..ROUNDS {
        match r {
            0 => lines += mem.touch(3, strip).lines,
            1 => lines += mem.touch((i % 2) as usize, strip).lines,
            2 => lines += mem.touch(2, aligned_strip(&mut alloc)).lines,
            3 => {
                for g in 0..16 {
                    lines += mem.touch(3, inner(strip, g)).lines;
                }
            }
            4 => {
                let b = aligned_strip(&mut alloc);
                for g in 0..16 {
                    lines += mem.touch(2, inner(b, g)).lines;
                }
            }
            _ => {
                for g in 0..16 {
                    lines += mem.touch((i % 2) as usize, inner(strip, g)).lines;
                }
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / lines as f64;
    let after = regime_lines(&mem.extent_stats());
    black_box(&mem);
    (ns, (after[r] - before[r]) as f64 / lines as f64)
}

/// `simulate_transfer` of one strip's segments at `loss`: ns per transfer.
pub fn transfer_ns(segments: u64, loss: f64, rtt: SimDuration, rto: SimDuration) -> f64 {
    const N: u64 = 256;
    let pipe = PipeFaults {
        loss,
        ..PipeFaults::clean()
    };
    let mut rng = SimRng::new(11);
    ns_per_unit(|| {
        for _ in 0..N {
            black_box(simulate_transfer(segments, rtt, rto, &pipe, &mut rng));
        }
        N
    })
}

/// `SrcParser::parse` over hinted and hint-less IPv4 headers: ns per
/// header.
pub fn parse_ns() -> f64 {
    const N: u64 = 1 << 18;
    let headers: Vec<Vec<u8>> = (0..8u8)
        .map(|i| {
            let h = Ipv4Header::tcp(0x0A00_0001 + i as u32, 0x0A00_0100, i as u16, 1460);
            if i % 2 == 0 {
                h.with_affinity(i).encode()
            } else {
                h.encode()
            }
        })
        .collect();
    let mut parser = SrcParser::new();
    ns_per_unit(|| {
        for i in 0..N {
            black_box(parser.parse(black_box(&headers[(i % 8) as usize])));
        }
        N
    })
}

/// `Policy::select` for one policy on the 8-core client: ns per
/// interrupt. SAIs gets a hint on three of every four interrupts, so its
/// hint-less streak logic runs too.
pub fn select_ns(choice: PolicyChoice) -> f64 {
    const N: u64 = 1 << 18;
    let cores: Vec<CpuCore> = (0..8).map(CpuCore::new).collect();
    let loads = LoadTracker::new(cores.len(), SimDuration::from_millis(10));
    let mut policy = choice.build();
    ns_per_unit(|| {
        for i in 0..N {
            let ctx = SteerCtx {
                now: SimTime::from_nanos(i * 1_000),
                pin: (i % 3) as usize,
                hint: (i % 4 != 3).then_some((i % 8) as usize),
                flow: i % 48,
                cores: &cores,
                loads: &loads,
            };
            black_box(policy.select(&ctx));
        }
        N
    })
}
