//! Extent-grained residency summaries over the line directory.
//!
//! One `u32` word per aligned [`GROUP_LINES`]-line group of the address
//! space, recording how many of the group's lines are resident anywhere
//! in the system and — when they all sit in one cache at one way — which
//! cache and which way. The summary lets [`crate::MemorySystem::touch`]
//! classify and account a whole group in O(1) in the steady-state
//! regimes (all-hit local replay, whole-extent cache-to-cache migration,
//! cold sequential fill) and fall back to the exact per-line walk only
//! when a group is mixed or partially resident, making the walk's cost
//! proportional to *ownership boundaries* rather than lines.
//!
//! Word layout (low to high):
//!
//! ```text
//! bits 0..=6   count   resident lines of the group, 0..=GROUP_LINES
//! bit  7       uniform all resident lines owned by `owner` at way `way`
//! bits 8..=15  way     the uniform way (meaningful only when uniform)
//! bits 16..=23 owner   the uniform owning core (meaningful only when uniform)
//! bit  24      virtual the group's directory span was never written
//! ```
//!
//! A touch subrange that clips a group (a partial *edge*) is classified
//! from the count/uniform word alone, like a whole group: a group wholly
//! resident in the touching core's cache is a batched promote of the
//! subrange, an empty group (every line provably absent) a batched fill,
//! and anything else takes the exact walk.
//!
//! A **virtual** group is one the whole-group fill placed without
//! writing its 64 directory entries: the summary word itself is the
//! directory for the group (owner and way determine every line's slot,
//! since line `L` lives at set `L mod sets`). The flag is only ever set
//! together with `count == GROUP_LINES && uniform`, and any operation
//! that would partially disturb the group — a per-line eviction of one
//! of its lines, or a partial migration — must *materialize* it first:
//! write the directory span the eager fill would have written (same
//! formula, `pack(owner, (way << set_shift) | set)`), clear the flag,
//! and only then decrement. Whole-group transitions (a wholesale
//! re-migration or a whole-strip eviction) clear the word outright and
//! never need the span. The tag arrays remain ground truth throughout —
//! a virtual group's tags are written normally — so residency checks
//! and the oracle's hit detection never consult the flag.
//!
//! The counts are **exact**, not hints: every fill increments and every
//! eviction or invalidation decrements, at every mutation site of the
//! memory system (`touch`, `touch_reference`, `fill`, `preload`). The
//! `uniform` bit is *sound but conservative*: set only while every fill
//! has matched the recorded `(owner, way)`, cleared on any mismatch, and
//! re-seeded when the count returns to zero — so `uniform && count ==
//! GROUP_LINES` proves "the whole group is live in `owner`'s cache at
//! `way`", which is the only state the fast paths consume. A cleared
//! bit merely costs a fallback to the exact walk.
//!
//! Exactness leans on one geometric invariant, asserted by the memory
//! system before it enables summaries: caches have at least
//! `GROUP_LINES` sets. Then an aligned group maps onto `GROUP_LINES`
//! *distinct, consecutive* sets (no wrap: the set count is a power of
//! two and the group is aligned to it), and a fill's victim — same set,
//! line number differing by a nonzero multiple of the set count — can
//! never belong to the group being filled. Both fast paths and the
//! batched bookkeeping below depend on that.

/// Lines per summarized group (and the log2 shift from line to group).
pub(crate) const GROUP_SHIFT: u32 = 6;
pub(crate) const GROUP_LINES: u64 = 1 << GROUP_SHIFT;
pub(crate) const GROUP_MASK: u64 = GROUP_LINES - 1;

const COUNT_MASK: u32 = 0x7F;
const UNIFORM: u32 = 1 << 7;
const VIRTUAL: u32 = 1 << 24;

/// What the summary word proves about a group, as consumed by the touch
/// fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupState {
    /// No line of the group is resident anywhere.
    Empty,
    /// Every line of the group is resident in `owner`'s cache at `way`.
    /// `virt` marks a group whose directory span was never written (the
    /// summary is its directory; see the module docs).
    Whole { owner: u32, way: u32, virt: bool },
    /// Partially resident, or resident but not provably uniform.
    Mixed,
}

/// The per-group summary words, indexed by `line >> GROUP_SHIFT`. Line
/// indices come from a bump allocator, so groups are dense from zero and
/// a flat vector (grown on first fill) is the whole structure.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExtentMap {
    words: Vec<u32>,
}

#[inline]
fn word_of(count: u32, uniform: bool, owner: u32, way: u32) -> u32 {
    count | ((uniform as u32) << 7) | (way << 8) | (owner << 16)
}

impl ExtentMap {
    /// Classify `group` for the fast paths. Read-only: a group beyond the
    /// map (never filled) is empty by construction.
    #[inline]
    pub(crate) fn classify(&self, group: u64) -> GroupState {
        let Some(&w) = self.words.get(group as usize) else {
            return GroupState::Empty;
        };
        let count = w & COUNT_MASK;
        if count == 0 {
            GroupState::Empty
        } else if count == GROUP_LINES as u32 && w & UNIFORM != 0 {
            GroupState::Whole {
                owner: (w >> 16) & 0xFF,
                way: (w >> 8) & 0xFF,
                virt: w & VIRTUAL != 0,
            }
        } else {
            GroupState::Mixed
        }
    }

    /// The `(owner, way)` of a *virtual* whole group, `None` otherwise.
    #[inline]
    pub(crate) fn virtual_info(&self, group: u64) -> Option<(u32, u32)> {
        let w = *self.words.get(group as usize)?;
        (w & VIRTUAL != 0).then_some(((w >> 16) & 0xFF, (w >> 8) & 0xFF))
    }

    /// Record a whole group placed by the virtual fill path: wholly
    /// resident in `owner`'s cache at `way`, directory span unwritten.
    #[inline]
    pub(crate) fn seed_virtual(&mut self, group: u64, owner: u32, way: u32) {
        let w = self.word_mut(group);
        debug_assert_eq!(*w & COUNT_MASK, 0, "virtual seed of a non-empty group");
        *w = word_of(GROUP_LINES as u32, true, owner, way) | VIRTUAL;
    }

    /// Take the `(owner, way)` of a virtual group, clearing its flag —
    /// the immediate-materialization twin of the queued demotion below,
    /// for callers holding no directory borrow.
    #[inline]
    pub(crate) fn take_virtual(&mut self, group: u64) -> Option<(u32, u32)> {
        let w = self.word_mut(group);
        if *w & VIRTUAL != 0 {
            let info = ((*w >> 16) & 0xFF, (*w >> 8) & 0xFF);
            *w &= !VIRTUAL;
            Some(info)
        } else {
            None
        }
    }

    /// If `group` is virtual, queue it for directory materialization
    /// (the caller writes the span once its borrows allow, and always
    /// before the next classification) and clear the flag — the
    /// summary stops being the group's directory the moment wholeness
    /// is about to break.
    #[inline]
    fn demote_virtual(&mut self, group: u64, pending: &mut Vec<(u64, u32, u32)>) {
        let w = self.word_mut(group);
        if *w & VIRTUAL != 0 {
            pending.push((group, (*w >> 16) & 0xFF, (*w >> 8) & 0xFF));
            *w &= !VIRTUAL;
        }
    }

    /// [`ExtentMap::note_evict`] for a line that may belong to a virtual
    /// group: demote-and-queue before the decrement.
    #[inline]
    pub(crate) fn note_evict_virtual(&mut self, line: u64, pending: &mut Vec<(u64, u32, u32)>) {
        let group = line >> GROUP_SHIFT;
        self.demote_virtual(group, pending);
        self.apply_evicts(group, 1);
    }

    /// [`ExtentMap::note_evicts`] with the virtual demotion of
    /// [`ExtentMap::note_evict_virtual`] applied once per victim group.
    #[inline]
    pub(crate) fn note_evicts_virtual(
        &mut self,
        victims: &[u64],
        pending: &mut Vec<(u64, u32, u32)>,
    ) {
        let mut i = 0usize;
        while i < victims.len() {
            let group = victims[i] >> GROUP_SHIFT;
            let mut n = 1u32;
            while i + (n as usize) < victims.len()
                && victims[i + n as usize] >> GROUP_SHIFT == group
            {
                n += 1;
            }
            self.demote_virtual(group, pending);
            self.apply_evicts(group, n);
            i += n as usize;
        }
    }

    /// The summary word of `group`, growing the map on first touch.
    #[inline]
    fn word_mut(&mut self, group: u64) -> &mut u32 {
        let g = group as usize;
        if g >= self.words.len() {
            // Doubling growth so a streaming fill pays O(1) amortized.
            let len = (g + 1).max(self.words.len() * 2);
            self.words.resize(len, 0);
        }
        // SAFETY: just grown to at least `g + 1`.
        unsafe { self.words.get_unchecked_mut(g) }
    }

    /// One line of `group` filled into `owner`'s cache at `way`.
    #[inline]
    pub(crate) fn note_fill(&mut self, line: u64, owner: u32, way: u32) {
        self.apply_fills(line >> GROUP_SHIFT, 1, owner, way, true);
    }

    /// `n` lines of `group` filled, all into `owner`'s cache; `uniform`
    /// says they all landed at `way`. Counts are added before the batch's
    /// eviction decrements are applied (see [`ExtentMap::note_evicts`]);
    /// the order is immaterial to the count (addition commutes) and safe
    /// for the uniform bit (evictions never change where the *remaining*
    /// lines sit, so a bit proven against the pre-eviction fills stays
    /// true of the survivors).
    #[inline]
    fn apply_fills(&mut self, group: u64, n: u32, owner: u32, way: u32, uniform: bool) {
        debug_assert!(n as u64 <= GROUP_LINES);
        let w = self.word_mut(group);
        debug_assert_eq!(
            *w & VIRTUAL,
            0,
            "fill into a virtual group (its lines are all resident)"
        );
        let count = *w & COUNT_MASK;
        debug_assert!(count + n <= GROUP_LINES as u32, "group overfilled");
        if count == 0 {
            *w = word_of(n, uniform, owner, way);
        } else {
            let keep =
                *w & UNIFORM != 0 && uniform && (*w >> 8) & 0xFF == way && (*w >> 16) == owner;
            *w = word_of(count + n, keep, *w >> 16, (*w >> 8) & 0xFF);
        }
    }

    /// A run of consecutive lines starting at `first_line` was filled
    /// into `owner`'s cache at the way slots packed in `entries` (the
    /// directory words the fill wrote). Splits the run at group
    /// boundaries and applies one batched update per group, deriving way
    /// uniformity from the entries themselves.
    #[inline]
    pub(crate) fn note_fill_run(
        &mut self,
        first_line: u64,
        entries: &[u32],
        owner: u32,
        set_shift: u32,
    ) {
        let mut i = 0usize;
        while i < entries.len() {
            let line = first_line + i as u64;
            let group = line >> GROUP_SHIFT;
            let room = (GROUP_LINES - (line & GROUP_MASK)) as usize;
            let chunk = room.min(entries.len() - i);
            let way0 = crate::linetab::slot_of(entries[i]) >> set_shift;
            let mut uniform = true;
            for &e in &entries[i + 1..i + chunk] {
                uniform &= crate::linetab::slot_of(e) >> set_shift == way0;
            }
            self.apply_fills(group, chunk as u32, owner, way0, uniform);
            i += chunk;
        }
    }

    /// One resident line of `line`'s group was evicted or invalidated.
    #[inline]
    pub(crate) fn note_evict(&mut self, line: u64) {
        self.apply_evicts(line >> GROUP_SHIFT, 1);
    }

    /// The lines in `victims` (in eviction order) were evicted. Runs of
    /// victims from one group — the common case, since streaming evicts
    /// consecutive old lines — collapse to one word update.
    #[inline]
    pub(crate) fn note_evicts(&mut self, victims: &[u64]) {
        let mut i = 0usize;
        while i < victims.len() {
            let group = victims[i] >> GROUP_SHIFT;
            let mut n = 1u32;
            while i + (n as usize) < victims.len()
                && victims[i + n as usize] >> GROUP_SHIFT == group
            {
                n += 1;
            }
            self.apply_evicts(group, n);
            i += n as usize;
        }
    }

    #[inline]
    fn apply_evicts(&mut self, group: u64, n: u32) {
        let w = self.word_mut(group);
        debug_assert_eq!(
            *w & VIRTUAL,
            0,
            "decrement of a virtual group without materialization"
        );
        let count = *w & COUNT_MASK;
        debug_assert!(count >= n, "eviction from an empty group summary");
        let left = count.saturating_sub(n);
        // Reset to zero when the group drains so the next fill re-seeds
        // the uniform bit instead of matching against stale owner bits.
        *w = if left == 0 {
            0
        } else {
            (*w & !COUNT_MASK) | left
        };
    }

    /// The whole group was invalidated or displaced at once (the
    /// cache-to-cache fast path, or a whole-strip eviction): equivalent
    /// to `GROUP_LINES` decrements. Virtual groups are welcome — a
    /// wholesale disappearance never needs the directory span, so the
    /// flag is dropped with the rest of the word.
    #[inline]
    pub(crate) fn clear_group(&mut self, group: u64) {
        let w = self.word_mut(group);
        debug_assert_eq!(*w & COUNT_MASK, GROUP_LINES as u32);
        *w = 0;
    }

    /// Iterate `(group, count, uniform, owner, way, virt)` for every
    /// group with at least one resident line. Invariant checks and
    /// [`crate::MemorySystem::disable_extents`] only.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (u64, u32, bool, u32, u32, bool)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w & COUNT_MASK != 0)
            .map(|(g, &w)| {
                (
                    g as u64,
                    w & COUNT_MASK,
                    w & UNIFORM != 0,
                    (w >> 16) & 0xFF,
                    (w >> 8) & 0xFF,
                    w & VIRTUAL != 0,
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_until_filled() {
        let m = ExtentMap::default();
        assert_eq!(m.classify(0), GroupState::Empty);
        assert_eq!(m.classify(1 << 30), GroupState::Empty);
    }

    #[test]
    fn fills_to_whole_then_evictions_to_empty() {
        let mut m = ExtentMap::default();
        for i in 0..GROUP_LINES {
            m.note_fill(i, 3, 7);
            let expect = if i + 1 == GROUP_LINES {
                GroupState::Whole {
                    owner: 3,
                    way: 7,
                    virt: false,
                }
            } else {
                GroupState::Mixed
            };
            assert_eq!(m.classify(0), expect, "after {} fills", i + 1);
        }
        for i in 0..GROUP_LINES {
            m.note_evict(i);
        }
        assert_eq!(m.classify(0), GroupState::Empty);
        // Re-seeding after a drain: a different owner takes the group.
        for i in 0..GROUP_LINES {
            m.note_fill(i, 1, 0);
        }
        assert_eq!(
            m.classify(0),
            GroupState::Whole {
                owner: 1,
                way: 0,
                virt: false
            }
        );
    }

    #[test]
    fn mismatched_fill_clears_uniform() {
        let mut m = ExtentMap::default();
        for i in 0..GROUP_LINES - 1 {
            m.note_fill(i, 2, 4);
        }
        m.note_fill(GROUP_LINES - 1, 2, 5); // same owner, different way
        assert_eq!(m.classify(0), GroupState::Mixed);
        // Draining and refilling uniformly recovers the bit.
        for i in 0..GROUP_LINES {
            m.note_evict(i);
        }
        for i in 0..GROUP_LINES {
            m.note_fill(i, 2, 5);
        }
        assert_eq!(
            m.classify(0),
            GroupState::Whole {
                owner: 2,
                way: 5,
                virt: false
            }
        );
    }

    #[test]
    fn note_fill_run_splits_groups_and_detects_uniformity() {
        let mut m = ExtentMap::default();
        // 4 sets of shift 2 → way = slot >> 2. A run of 2·GROUP_LINES
        // lines straddling a group boundary, all at way 1 except one.
        let set_shift = 2;
        let n = 2 * GROUP_LINES as usize;
        let mut entries: Vec<u32> = (0..n).map(|i| (1 << set_shift) | (i as u32 & 3)).collect();
        entries[GROUP_LINES as usize + 3] = 2 << set_shift; // way 2 in group 1
        m.note_fill_run(0, &entries, 5, set_shift);
        assert_eq!(
            m.classify(0),
            GroupState::Whole {
                owner: 5,
                way: 1,
                virt: false
            }
        );
        assert_eq!(m.classify(1), GroupState::Mixed);
    }

    #[test]
    fn note_evicts_coalesces_runs() {
        let mut m = ExtentMap::default();
        for i in 0..3 * GROUP_LINES {
            m.note_fill(i, 0, 0);
        }
        // Victims spanning three groups in one batch.
        let victims: Vec<u64> = (GROUP_LINES / 2..5 * GROUP_LINES / 2).collect();
        m.note_evicts(&victims);
        assert_eq!(m.classify(0), GroupState::Mixed);
        assert_eq!(m.classify(1), GroupState::Empty);
        assert_eq!(m.classify(2), GroupState::Mixed);
    }

    #[test]
    fn clear_group_resets_whole_group() {
        let mut m = ExtentMap::default();
        for i in 0..GROUP_LINES {
            m.note_fill(i, 9, 3);
        }
        m.clear_group(0);
        assert_eq!(m.classify(0), GroupState::Empty);
    }
}
