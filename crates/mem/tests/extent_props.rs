//! Adversarial property tests for the extent-grained fast paths.
//!
//! The geometries here have at least 64 sets, so the extent summaries
//! are *active* (the configs in `props.rs` are all below the gate and
//! exercise the exact walk only). Every test drives shapes chosen to
//! stress the summary bookkeeping: unaligned and short ranges, strips
//! straddling group boundaries, way-conflict storms that evict lines
//! out of the middle of a summarized group, and interleaved multi-core
//! touches that flip groups between whole, mixed and empty.

use proptest::prelude::*;
use sais_mem::{AddrAlloc, AddrRange, LineAddr, MemParams, MemorySystem};

/// A geometry above the extent gate: 64 sets of `assoc` ways. Lines 64
/// apart alias the same set, so consecutive groups fight for ways and
/// evictions land inside previously summarized groups.
fn params_64_sets(assoc: usize) -> MemParams {
    let mut p = MemParams::tiny_test();
    p.l2_bytes = p.line_size * 64 * assoc as u64;
    p.l2_ways = assoc;
    p
}

fn assert_equivalent(a: &MemorySystem, b: &MemorySystem, cores: usize, lines: u64) {
    for c in 0..cores {
        let (fa, fb) = (&a.cache(c).stats, &b.cache(c).stats);
        assert_eq!(fa.accesses.get(), fb.accesses.get(), "accesses, core {c}");
        assert_eq!(fa.hits.get(), fb.hits.get(), "hits, core {c}");
        assert_eq!(fa.misses.get(), fb.misses.get(), "misses, core {c}");
        assert_eq!(
            fa.evictions.get(),
            fb.evictions.get(),
            "evictions, core {c}"
        );
        assert_eq!(
            fa.invalidations.get(),
            fb.invalidations.get(),
            "invalidations, core {c}"
        );
        assert_eq!(
            a.cache(c).resident(),
            b.cache(c).resident(),
            "resident, core {c}"
        );
    }
    assert_eq!(a.c2c_transfers(), b.c2c_transfers());
    assert_eq!(a.dram_fetches(), b.dram_fetches());
    for l in 0..lines {
        assert_eq!(
            a.owner_of(LineAddr(l)),
            b.owner_of(LineAddr(l)),
            "ownership diverged on line {l}"
        );
    }
}

proptest! {
    /// The extent-summarized walk is bit-identical to the scanning
    /// oracle on every shape: group-aligned whole strips, unaligned and
    /// short ranges, group-straddling strips, and interleaved touches
    /// from four cores. Ranges span 0..320 lines (five groups) against
    /// 64-set caches, so group N+1 evicts group N's lines at low
    /// associativity — the way-conflict storm that punches holes in
    /// summarized groups.
    #[test]
    fn extent_touch_matches_reference(
        assoc in 1usize..4,
        ops in proptest::collection::vec(
            (0usize..4, 0u64..320u64, 1u64..160u64), 1..80
        )
    ) {
        let p = params_64_sets(assoc);
        let line = p.line_size;
        let cores = 4;
        let mut fast = MemorySystem::new(cores, p.clone());
        let mut slow = MemorySystem::new(cores, p);
        prop_assert!(fast.extents_enabled(), "64 sets must enable the summaries");
        for &(core, start_line, len_lines) in &ops {
            let r = AddrRange::new(start_line * line, len_lines * line);
            let cf = fast.touch(core, r);
            let cs = slow.touch_reference(core, r);
            prop_assert_eq!(cf, cs, "classification diverged on {:?} at core {}", r, core);
        }
        assert_equivalent(&fast, &slow, cores, 512);
        fast.check_invariants();
        slow.check_invariants();
    }

    /// Summaries disabled (`disable_extents`, the `SAIS_MEM_NO_EXTENTS`
    /// path) and enabled produce bit-identical systems — the forced
    /// fallback is the same walk, not a similar one.
    #[test]
    fn disabled_extents_bit_identical(
        assoc in 1usize..4,
        ops in proptest::collection::vec(
            (0usize..3, 0u64..256u64, 1u64..130u64), 1..80
        )
    ) {
        let p = params_64_sets(assoc);
        let line = p.line_size;
        let cores = 3;
        let mut on = MemorySystem::new(cores, p.clone());
        let mut off = MemorySystem::new(cores, p);
        off.disable_extents();
        prop_assert!(!off.extents_enabled());
        for &(core, start_line, len_lines) in &ops {
            let r = AddrRange::new(start_line * line, len_lines * line);
            let ca = on.touch(core, r);
            let cb = off.touch(core, r);
            prop_assert_eq!(ca, cb, "classification diverged on {:?} at core {}", r, core);
        }
        assert_equivalent(&on, &off, cores, 512);
        on.check_invariants();
    }

    /// Interleaving the reference walk and the batched walk on one
    /// system keeps the summaries exact: the oracle maintains them too,
    /// so a fast touch can consume state the reference path produced
    /// (and vice versa) without drift.
    #[test]
    fn reference_and_fast_interleave_on_one_system(
        ops in proptest::collection::vec(
            (0usize..3, 0u64..256u64, 1u64..96u64, any::<bool>()), 1..60
        )
    ) {
        let p = params_64_sets(2);
        let line = p.line_size;
        let cores = 3;
        let mut mixed = MemorySystem::new(cores, p.clone());
        let mut slow = MemorySystem::new(cores, p);
        for &(core, start_line, len_lines, use_fast) in &ops {
            let r = AddrRange::new(start_line * line, len_lines * line);
            let cm = if use_fast {
                mixed.touch(core, r)
            } else {
                mixed.touch_reference(core, r)
            };
            let cs = slow.touch_reference(core, r);
            prop_assert_eq!(cm, cs, "classification diverged on {:?} at core {}", r, core);
        }
        assert_equivalent(&mixed, &slow, cores, 512);
        mixed.check_invariants();
    }

    /// Preload interacts with the summaries exactly like fills do.
    #[test]
    fn preload_keeps_summaries_exact(
        ops in proptest::collection::vec(
            (0usize..3, 0u64..192u64, 1u64..96u64, any::<bool>()), 1..50
        )
    ) {
        let p = params_64_sets(2);
        let line = p.line_size;
        let mut m = MemorySystem::new(3, p);
        for &(core, start_line, len_lines, preload) in &ops {
            let r = AddrRange::new(start_line * line, len_lines * line);
            if preload {
                m.preload(core, r);
            } else {
                m.touch(core, r);
            }
        }
        m.check_invariants();
    }
}

#[test]
fn fast_paths_engage_on_canonical_regimes() {
    // Deterministic witness that the O(1) paths actually run: cold
    // sequential fill, all-hit replay, whole-extent migration, and the
    // two partial-edge arms the summary word proves (a subrange of a
    // group wholly resident here, a subrange of an empty group). Edges
    // of any other group take the exact walk. Every touch is checked
    // against the scanning oracle on a twin system.
    let p = params_64_sets(4);
    let line = p.line_size;
    let mut m = MemorySystem::new(2, p.clone());
    let mut twin = MemorySystem::new(2, p);
    assert!(m.extents_enabled());
    let lines = |first: u64, n: u64| AddrRange::new(first * line, n * line);
    let mut touch = |core: usize, r: AddrRange| {
        let c = m.touch(core, r);
        assert_eq!(c, twin.touch_reference(core, r), "touch({core}, {r:?})");
        (c, m.extent_stats())
    };
    let strip = lines(0, 128); // groups 0 and 1

    let (c, st) = touch(0, strip);
    assert_eq!(c.dram, 128);
    assert_eq!(st.whole_fill_groups, 2, "cold fill is O(1) per group");

    let (c, st) = touch(0, strip);
    assert_eq!(c.hits, 128);
    assert_eq!(st.whole_hit_groups, 2, "replay is O(1) per group");

    // Group 3: placed whole (virtually) on core 0, then clipped from
    // core 1. The group materializes its directory span, then walks.
    let (c, st) = touch(0, lines(192, 64));
    assert_eq!(c.dram, 64);
    assert_eq!(st.whole_fill_groups, 3);
    let (c, st) = touch(1, lines(192 + 8, 40));
    assert_eq!(c.c2c, 40);
    assert_eq!(st.fallback_lines, 40, "a remote edge falls back");

    let (c, st) = touch(0, lines(8, 48));
    assert_eq!(c.hits, 48);
    assert_eq!(
        st.partial_hit_lines, 48,
        "an edge of a wholly local group is one batched promote"
    );
    assert_eq!(st.fallback_lines, 40);

    let (c, st) = touch(1, strip);
    assert_eq!(c.c2c, 128);
    assert_eq!(st.whole_c2c_groups, 2, "migration is O(1) per group");
    assert_eq!(
        st.fallback_lines, 40,
        "whole-group migration takes no exact-walk lines"
    );

    // Group 2, fresh: an edge of an empty group is a batched fill.
    let (c, st) = touch(0, lines(128 + 8, 48));
    assert_eq!(c.dram, 48);
    assert_eq!(
        st.masked_fill_lines, 48,
        "an edge of an empty group fills without the walk"
    );
    assert_eq!(st.fallback_lines, 40);

    // The rest of group 2: absent lines of a partly resident group. The
    // word cannot prove them absent, so they take the exact walk.
    let (c, st) = touch(0, lines(128 + 56, 8));
    assert_eq!(c.dram, 8);
    assert_eq!(st.masked_fill_lines, 48);
    assert_eq!(
        st.fallback_lines,
        40 + 8,
        "a partly resident edge falls back"
    );
    assert_eq!(st.partial_hit_lines, 48);

    assert_equivalent(&m, &twin, 2, 256);
    m.check_invariants();
}

#[test]
fn allocator_buffers_take_only_whole_group_paths() {
    // The write path's shape at the testbed geometry: one core fills a
    // 1 MiB user buffer, then copies it strip by strip into fresh 64 KiB
    // kernel buffers. The allocator hands out group-aligned buffers, so
    // every touch covers whole groups and nothing falls back to a masked
    // fill or the exact walk.
    let p = MemParams::default();
    let line = p.line_size;
    let mut alloc = AddrAlloc::new(line);
    let user = alloc.alloc(1 << 20);
    assert_eq!(
        user.start % (64 * line),
        0,
        "first allocation starts on a group boundary"
    );
    let mut m = MemorySystem::new(1, p);
    assert!(m.extents_enabled());
    for _request in 0..2 {
        m.touch(0, user);
        for strip in user.chunks(64 << 10) {
            m.touch(0, strip);
            m.touch(0, alloc.alloc(strip.bytes));
        }
    }
    let stats = m.extent_stats();
    assert_eq!(stats.masked_fill_lines, 0, "{stats:?}");
    assert_eq!(stats.fallback_lines, 0, "{stats:?}");
    assert!(stats.whole_fill_groups > 0, "{stats:?}");
    m.check_invariants();
}

#[test]
fn way_conflict_storm_demotes_summary_and_stays_exact() {
    // assoc 1, 64 sets: group 1 aliases group 0 set-for-set, so touching
    // it evicts every line of the summarized group 0. The summary must
    // degrade to empty and the next replay must classify as DRAM again,
    // exactly like the oracle.
    let p = params_64_sets(1);
    let line = p.line_size;
    let mut fast = MemorySystem::new(1, p.clone());
    let mut slow = MemorySystem::new(1, p);
    let g0 = AddrRange::new(0, 64 * line);
    let g1 = AddrRange::new(64 * line, 64 * line);
    for (sys, reference) in [(&mut fast, false), (&mut slow, true)] {
        let t = |s: &mut MemorySystem, r| {
            if reference {
                s.touch_reference(0, r)
            } else {
                s.touch(0, r)
            }
        };
        assert_eq!(t(sys, g0).dram, 64);
        assert_eq!(t(sys, g0).hits, 64);
        assert_eq!(
            t(sys, g1).dram,
            64,
            "aliasing fill evicts group 0 wholesale"
        );
        assert_eq!(t(sys, g0).dram, 64, "group 0 must re-fetch after the storm");
    }
    assert_equivalent(&fast, &slow, 1, 128);
    fast.check_invariants();
}

#[test]
fn partial_eviction_inside_summarized_group_falls_back_exactly() {
    // Punch a 3-line hole in a wholly-owned group via a sub-group
    // aliasing touch (assoc 1): the group drops to Mixed, which the
    // summary word cannot split into hit and fill runs, so the next full
    // touch takes the exact walk for the whole group — and stays
    // bit-identical to the oracle.
    let p = params_64_sets(1);
    let line = p.line_size;
    let mut fast = MemorySystem::new(1, p.clone());
    let mut slow = MemorySystem::new(1, p);
    let g0 = AddrRange::new(0, 64 * line);
    let hole = AddrRange::new((64 + 20) * line, 3 * line); // evicts lines 20..23
    for sys in [&mut fast, &mut slow] {
        sys.touch(0, g0);
    }
    let cf = fast.touch(0, hole);
    let cs = slow.touch_reference(0, hole);
    assert_eq!(cf, cs);
    let before = fast.extent_stats();
    let cf = fast.touch(0, g0);
    let cs = slow.touch_reference(0, g0);
    assert_eq!(cf, cs);
    assert_eq!(cf.hits, 61);
    assert_eq!(cf.dram, 3);
    let after = fast.extent_stats();
    assert_eq!(
        after.fallback_lines - before.fallback_lines,
        64,
        "a holed group takes the exact walk"
    );
    assert_eq!(after.partial_hit_lines, before.partial_hit_lines);
    assert_eq!(after.masked_fill_lines, before.masked_fill_lines);
    assert_equivalent(&fast, &slow, 1, 128);
    fast.check_invariants();
}
