//! The scheduler's per-cycle kernels at vector width: the FR-FCFS scan of a
//! channel's queue, the refresh of the queue's copies of a bank's state, and
//! the search for the channels due in a tick.
//!
//! Each is one body, generic over a [`Vector`] of `u64` lanes, compiled once
//! per [`ScanTier`] and picked at run time, as gx-align's lane kernel is:
//! portable at 4 lanes, and on x86-64 at 8 lanes (one 512-bit register) for
//! AVX-512F+VL. [`ScanTier::host`] picks the widest tier the CPU reports;
//! [`DramSim::new`](crate::DramSim::new) runs on it. Every tier computes the
//! same integers, so the tier moves no cycle, counter or completion
//! (`tests/tick_diff.rs` runs every tier the CPU reports against the
//! cycle-stepped oracle).
//!
//! Unlike the lane kernel's, these bodies spell their vector operations out
//! (`Vector`'s methods, which are intrinsics on the wide tier) instead of
//! leaving them to the compiler: a queue is one to a few registers long, and
//! the compiler, left to itself, vectorises the loop over registers (lane
//! `l` of every register in one vector, through gathers) and runs a short
//! queue in its scalar, branching remainder.
//!
//! The kernels read and write a channel's *stripe*: one entry per queue
//! slot, the slot count rounded up to a whole number of the widest tier's
//! lanes. The padding slots, like every slot whose request has issued its
//! last burst or that holds none, carry [`NO_BANK`] and the due word
//! [`NEVER`], so no scan ever finds them ready and no refresh touches them.

/// One compilation of the scheduler's kernels: how many queue slots a
/// register covers and which instructions it runs.
///
/// Only [`ScanTier::host`] and [`ScanTier::supported`] make one, and they
/// make only tiers this CPU runs.
#[derive(Clone, Copy, Debug)]
pub struct ScanTier(pub(crate) Tier);

#[derive(Clone, Copy, Debug)]
pub(crate) enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Every tier, narrowest first.
const TIERS: &[Tier] = &[
    Tier::Portable,
    #[cfg(target_arch = "x86_64")]
    Tier::Avx512,
];

/// The widest tier's lane count; a stripe is a whole number of them.
pub(crate) const MAX_LANES: usize = 8;

impl ScanTier {
    /// The tier [`DramSim::new`](crate::DramSim::new) runs on: the widest
    /// one this CPU runs.
    pub fn host() -> ScanTier {
        ScanTier::supported()
            .last()
            .expect("the portable tier runs everywhere")
    }

    /// Every tier this CPU runs, narrowest first: the portable one, then
    /// each wide tier whose instructions the CPU reports.
    pub fn supported() -> impl Iterator<Item = ScanTier> {
        TIERS.iter().map(|&t| ScanTier(t)).filter(|t| t.detected())
    }

    fn detected(self) -> bool {
        match self.0 {
            Tier::Portable => true,
            // Every feature the AVX-512 tick's `target_feature` lets the
            // compiler use: the three it names and the three they imply.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("popcnt")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                    && std::arch::is_x86_feature_detected!("f16c")
            }
        }
    }

    /// The tier's name: `portable` (4 lanes) or `avx512f+vl` (8 lanes).
    pub fn name(self) -> &'static str {
        match self.0 {
            Tier::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => "avx512f+vl",
        }
    }
}

/// The bank index of a slot with no burst to schedule.
pub(crate) const NO_BANK: u32 = u32::MAX;

/// Set in a slot's due word when its row is open in its bank.
pub(crate) const HIT: u64 = 1 << 63;

/// The due word of a slot with no burst to schedule: a cycle no simulation
/// reaches (2^63 - 1; 292 years at 1 GHz), not a hit.
pub(crate) const NEVER: u64 = !HIT;

/// A slot's due word for a request for `row` on a bank with the given open
/// row, ready cycle and earliest precharge: on a row hit, [`HIT`] and the
/// cycle the bank is free (the burst also waits for the data bus, which the
/// scan reads off the channel); otherwise the cycle the precharge or
/// activate can issue (bank free, tRAS served).
#[inline(always)]
pub(crate) fn due_word(open_row: u64, ready_at: u64, pre_ok_at: u64, row: u64) -> u64 {
    if open_row == row {
        ready_at | HIT
    } else {
        ready_at.max(pre_ok_at)
    }
}

/// The first cycle a slot with due word `due` can take its next command,
/// with the data bus free at `bus_free_at`.
#[inline(always)]
pub(crate) fn next_command(due: u64, bus_free_at: u64) -> u64 {
    if due & HIT != 0 {
        (due & !HIT).max(bus_free_at)
    } else {
        due
    }
}

/// A channel's stripe: per queue slot, the row and bank of the request's
/// next burst and its due word, which holds what the scan needs of that
/// bank's open row, ready cycle and precharge-ok cycle.
pub(crate) struct Stripe<'a> {
    pub row: &'a mut [u64],
    pub bank: &'a mut [u32],
    pub due: &'a mut [u64],
}

/// Marks a [`Scan::pick`] that takes a precharge or activate rather than a
/// read burst.
pub(crate) const MISS: u64 = 1 << 63;

/// A register of `u64` lanes: what the kernels need of a vector unit. A lane
/// mask has bit `l` set for lane `l`.
///
/// # Safety
///
/// Every method may run the instructions of its tier: call them only where
/// [`ScanTier::supported`] has seen the CPU report them.
pub(crate) trait Vector: Copy {
    /// Lanes a register holds.
    const LANES: usize;
    /// The first `LANES` values of `from`.
    unsafe fn load(from: &[u64]) -> Self;
    /// `x` in every lane.
    unsafe fn splat(x: u64) -> Self;
    /// Unsigned.
    unsafe fn min(self, other: Self) -> Self;
    /// Unsigned.
    unsafe fn max(self, other: Self) -> Self;
    /// Bitwise.
    unsafe fn and(self, other: Self) -> Self;
    /// The lanes `<= other`, unsigned.
    unsafe fn le(self, other: Self) -> u32;
    /// The lanes whose top bit is set.
    unsafe fn top(self) -> u32;
    /// The lanes of `other` where `mask` is set, of `self` elsewhere.
    unsafe fn select(self, mask: u32, other: Self) -> Self;
    /// The first `LANES` values of `to`, overwritten where `mask` is set.
    unsafe fn store_where(self, to: &mut [u64], mask: u32);
    /// The least lane, unsigned.
    unsafe fn reduce_min(self) -> u64;
    /// The lanes of the first `LANES` values of `v` equal to `x`.
    unsafe fn eq32(v: &[u32], x: u32) -> u32;
    /// The lanes equal to `other`.
    unsafe fn eq(self, other: Self) -> u32;
}

/// The portable tier's register: plain lanes the compiler vectorises as
/// the target allows.
#[derive(Clone, Copy)]
pub(crate) struct Portable([u64; 4]);

impl Portable {
    fn map(self, other: Portable, f: impl Fn(u64, u64) -> u64) -> Portable {
        Portable(std::array::from_fn(|l| f(self.0[l], other.0[l])))
    }

    fn mask(f: impl Fn(usize) -> bool) -> u32 {
        (0..4).fold(0, |m, l| m | u32::from(f(l)) << l)
    }
}

impl Vector for Portable {
    const LANES: usize = 4;
    unsafe fn load(from: &[u64]) -> Portable {
        Portable(from[..4].try_into().unwrap())
    }
    unsafe fn splat(x: u64) -> Portable {
        Portable([x; 4])
    }
    unsafe fn min(self, other: Portable) -> Portable {
        self.map(other, u64::min)
    }
    unsafe fn max(self, other: Portable) -> Portable {
        self.map(other, u64::max)
    }
    unsafe fn and(self, other: Portable) -> Portable {
        self.map(other, |a, b| a & b)
    }
    unsafe fn le(self, other: Portable) -> u32 {
        Portable::mask(|l| self.0[l] <= other.0[l])
    }
    unsafe fn top(self) -> u32 {
        Portable::mask(|l| self.0[l] >> 63 != 0)
    }
    unsafe fn select(self, mask: u32, other: Portable) -> Portable {
        Portable(std::array::from_fn(|l| {
            if mask >> l & 1 != 0 {
                other.0[l]
            } else {
                self.0[l]
            }
        }))
    }
    unsafe fn store_where(self, to: &mut [u64], mask: u32) {
        for (l, to) in to[..4].iter_mut().enumerate() {
            if mask >> l & 1 != 0 {
                *to = self.0[l];
            }
        }
    }
    unsafe fn reduce_min(self) -> u64 {
        self.0.into_iter().fold(u64::MAX, u64::min)
    }
    unsafe fn eq32(v: &[u32], x: u32) -> u32 {
        Portable::mask(|l| v[l] == x)
    }
    unsafe fn eq(self, other: Portable) -> u32 {
        Portable::mask(|l| self.0[l] == other.0[l])
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx512::Avx512;

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Vector;
    use std::arch::x86_64::*;

    /// The AVX-512F+VL tier's register: one `zmm` of eight `u64` lanes.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512(__m512i);

    // SAFETY (every method): `Vector`'s contract — the caller has seen the
    // CPU report AVX-512F and AVX-512VL. The loads and stores touch the
    // first eight elements of their slice, which the slicing bounds-checks.
    impl Vector for Avx512 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn load(from: &[u64]) -> Avx512 {
            unsafe { Avx512(_mm512_loadu_si512(from[..8].as_ptr().cast())) }
        }
        #[inline(always)]
        unsafe fn splat(x: u64) -> Avx512 {
            unsafe { Avx512(_mm512_set1_epi64(x as i64)) }
        }
        #[inline(always)]
        unsafe fn min(self, other: Avx512) -> Avx512 {
            unsafe { Avx512(_mm512_min_epu64(self.0, other.0)) }
        }
        #[inline(always)]
        unsafe fn max(self, other: Avx512) -> Avx512 {
            unsafe { Avx512(_mm512_max_epu64(self.0, other.0)) }
        }
        #[inline(always)]
        unsafe fn and(self, other: Avx512) -> Avx512 {
            unsafe { Avx512(_mm512_and_si512(self.0, other.0)) }
        }
        #[inline(always)]
        unsafe fn le(self, other: Avx512) -> u32 {
            unsafe { u32::from(_mm512_cmple_epu64_mask(self.0, other.0)) }
        }
        #[inline(always)]
        unsafe fn top(self) -> u32 {
            unsafe { u32::from(_mm512_cmplt_epi64_mask(self.0, _mm512_setzero_si512())) }
        }
        #[inline(always)]
        unsafe fn select(self, mask: u32, other: Avx512) -> Avx512 {
            unsafe { Avx512(_mm512_mask_blend_epi64(mask as u8, self.0, other.0)) }
        }
        #[inline(always)]
        unsafe fn store_where(self, to: &mut [u64], mask: u32) {
            unsafe { _mm512_mask_storeu_epi64(to[..8].as_mut_ptr().cast(), mask as u8, self.0) }
        }
        #[inline(always)]
        unsafe fn reduce_min(self) -> u64 {
            unsafe { _mm512_reduce_min_epu64(self.0) }
        }
        #[inline(always)]
        unsafe fn eq32(v: &[u32], x: u32) -> u32 {
            unsafe {
                let v = _mm256_loadu_si256(v[..8].as_ptr().cast());
                u32::from(_mm256_cmpeq_epi32_mask(v, _mm256_set1_epi32(x as i32)))
            }
        }
        #[inline(always)]
        unsafe fn eq(self, other: Avx512) -> u32 {
            unsafe { u32::from(_mm512_cmpeq_epi64_mask(self.0, other.0)) }
        }
    }
}

/// What one pass over a stripe found.
pub(crate) struct Scan {
    /// The queue age (0 = the ring's head) of the oldest request whose read
    /// burst can issue now (row open, bank and data bus free); failing
    /// that, of the oldest whose precharge or activate can, with [`MISS`]
    /// set; `u64::MAX` if none can move.
    pub pick: u64,
    /// Requests whose read burst could issue now.
    pub hits: u32,
    /// Requests whose precharge or activate could issue now.
    pub misses: u32,
    /// The earliest cycle any request that cannot move now can (at most
    /// [`NEVER`]).
    pub later: u64,
}

/// The FR-FCFS pass over a channel's due words, whose ring starts at slot
/// `head` of `depth`, with the data bus free at `bus_free_at`. The ready
/// slots come out as bit masks, 64 slots a word, so the oldest is a bit
/// search rather than a reduction across lanes.
///
/// # Safety
///
/// The CPU runs `V`'s instructions (see [`Vector`]).
#[inline(always)]
pub(crate) unsafe fn scan<V: Vector>(
    due: &[u64],
    head: usize,
    depth: usize,
    bus_free_at: u64,
    now: u64,
) -> Scan {
    unsafe {
        let (bus, now, time) = (V::splat(bus_free_at), V::splat(now), V::splat(!HIT));
        let mut later = V::splat(u64::MAX);
        let (mut hit, mut miss) = (u64::MAX, u64::MAX);
        let mut ready = (0, 0);
        for (g, group) in due.chunks(64).enumerate() {
            let (mut hits, mut misses) = (0u64, 0u64);
            for (c, due) in group.chunks_exact(V::LANES).enumerate() {
                let due = V::load(due);
                // A row hit's burst also waits for the data bus.
                let is_hit = due.top();
                let at = due.and(time);
                let at = at.select(is_hit, at.max(bus));
                let go = at.le(now);
                later = later.select(!go, later.min(at));
                hits |= u64::from(go & is_hit) << (c * V::LANES);
                misses |= u64::from(go & !is_hit) << (c * V::LANES);
            }
            ready.0 += hits.count_ones();
            ready.1 += misses.count_ones();
            hit = hit.min(oldest(hits, g * 64, head, depth));
            miss = miss.min(oldest(misses, g * 64, head, depth));
        }
        Scan {
            pick: if hit != u64::MAX { hit } else { miss | MISS },
            hits: ready.0,
            misses: ready.1,
            later: later.reduce_min(),
        }
    }
}

/// The queue age of the oldest slot among `bits` (bit `b` is slot
/// `first + b`) in a ring of `depth` slots starting at `head`, or
/// `u64::MAX` if `bits` is empty: slots at or after the head come first.
#[inline(always)]
fn oldest(bits: u64, first: usize, head: usize, depth: usize) -> u64 {
    let after = match head.checked_sub(first) {
        None => bits,
        Some(skip) if skip < 64 => bits & (u64::MAX << skip),
        Some(_) => 0,
    };
    let (from, wrap) = if after != 0 {
        (after, 0)
    } else {
        (bits, depth)
    };
    if from == 0 {
        u64::MAX
    } else {
        (first + from.trailing_zeros() as usize + wrap - head) as u64
    }
}

/// Recomputes the due word of every slot of the stripe whose next burst
/// targets bank `bank`: `hit` for a request for the bank's open row, `miss`
/// for any other. Which rows are open is read off `open_row` when the bank
/// has just opened one, and off the slots' due words otherwise (a burst
/// keeps the open row; a precharge makes `hit == miss`).
///
/// # Safety
///
/// The CPU runs `V`'s instructions (see [`Vector`]).
#[inline(always)]
pub(crate) unsafe fn refresh<V: Vector>(
    s: &mut Stripe<'_>,
    bank: u32,
    hit: u64,
    miss: u64,
    open_row: Option<u64>,
) {
    unsafe {
        let (hit, miss) = (V::splat(hit), V::splat(miss));
        let chunks = s
            .bank
            .chunks_exact(V::LANES)
            .zip(s.row.chunks_exact(V::LANES));
        for ((banks, row), due) in chunks.zip(s.due.chunks_exact_mut(V::LANES)) {
            let on = V::eq32(banks, bank);
            let is_hit = match open_row {
                Some(open) => V::load(row).eq(V::splat(open)),
                None => V::load(due).top(),
            };
            miss.select(is_hit, hit).store_where(due, on);
        }
    }
}

/// The channels of `wake` (at most 64, a whole number of registers) whose
/// wake cycle has come by `now`, as a bit mask, and the earliest wake cycle
/// of the others.
///
/// # Safety
///
/// The CPU runs `V`'s instructions (see [`Vector`]).
#[inline(always)]
pub(crate) unsafe fn due<V: Vector>(wake: &[u64], now: u64) -> (u64, u64) {
    unsafe {
        let now = V::splat(now);
        let (mut mask, mut rest) = (0, V::splat(u64::MAX));
        for (c, wake) in wake.chunks_exact(V::LANES).enumerate() {
            let wake = V::load(wake);
            let due = wake.le(now);
            rest = rest.select(!due, rest.min(wake));
            mask |= u64::from(due) << (c * V::LANES);
        }
        (mask, rest.reduce_min())
    }
}
