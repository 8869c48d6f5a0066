//! Offline stand-in for `rand_chacha`: a deterministic [`ChaCha20Rng`] whose
//! keystream is generated by the real RFC 8439 ChaCha20 block function (zero
//! nonce, 64-bit block counter). Streams are stable for a given seed across
//! runs and platforms, which is what the simulator's reproducibility
//! guarantees require; they are not bit-identical to upstream `rand_chacha`.
//!
//! Blocks are computed `LANES` at a time in an interleaved (lane-per-block)
//! layout so the compiler vectorises the quarter rounds; on `x86_64` the
//! kernel is additionally compiled at the AVX2 and AVX-512 feature levels and
//! selected once at runtime. Every path performs the same integer arithmetic,
//! so the keystream is bit-identical regardless of which kernel runs — only
//! wall-clock changes. The refill is batched (and `next_u64` reads two words
//! straight from the buffer), which is what takes the campaign engine's
//! profile draws off the scalar block function.
#![deny(unsafe_code)]

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
/// Keystream blocks computed per refill. Sixteen interleaved lanes fill a
/// 512-bit vector exactly and still amortise well at AVX2 (two halves).
const LANES: usize = 16;
const BUF_WORDS: usize = BLOCK_WORDS * LANES;

/// Deterministic RNG over the ChaCha20 keystream.
#[derive(Clone, Debug)]
pub struct ChaCha20Rng {
    /// 256-bit key as eight little-endian words.
    key: [u32; 8],
    /// 64-bit counter of the next block to generate (RFC 8439 uses 32; 64
    /// avoids wraparound).
    counter: u64,
    /// Buffered keystream: [`LANES`] consecutive blocks, block-major, so the
    /// word sequence is identical to generating one block at a time.
    buf: [u32; BUF_WORDS],
    /// Next unread word index within `buf`; `BUF_WORDS` forces a refill.
    index: usize,
}

/// The ChaCha20 state for [`LANES`] blocks at consecutive counters, stored
/// word-major: `state[w][l]` is word `w` of block `l`. Each per-word row is a
/// plain `[u32; LANES]` array the autovectoriser maps onto SIMD registers.
type LaneState = [[u32; LANES]; BLOCK_WORDS];

#[inline(always)]
fn lane_add(a: &mut [u32; LANES], b: &[u32; LANES]) {
    for l in 0..LANES {
        a[l] = a[l].wrapping_add(b[l]);
    }
}

#[inline(always)]
fn lane_xor_rot(a: &mut [u32; LANES], b: &[u32; LANES], rot: u32) {
    for l in 0..LANES {
        a[l] = (a[l] ^ b[l]).rotate_left(rot);
    }
}

#[inline(always)]
fn quarter_round(state: &mut LaneState, a: usize, b: usize, c: usize, d: usize) {
    // Work on locals: the indices alias no rows, but split borrows through
    // runtime indices defeat the borrow checker and the vectoriser alike.
    let (mut va, mut vb, mut vc, mut vd) = (state[a], state[b], state[c], state[d]);
    lane_add(&mut va, &vb);
    lane_xor_rot(&mut vd, &va, 16);
    lane_add(&mut vc, &vd);
    lane_xor_rot(&mut vb, &vc, 12);
    lane_add(&mut va, &vb);
    lane_xor_rot(&mut vd, &va, 8);
    lane_add(&mut vc, &vd);
    lane_xor_rot(&mut vb, &vc, 7);
    state[a] = va;
    state[b] = vb;
    state[c] = vc;
    state[d] = vd;
}

/// Computes the [`LANES`] keystream blocks at counters `counter..counter+LANES`
/// into `out` (block-major). Pure integer arithmetic: bit-identical on every
/// backend that runs it.
#[inline(always)]
fn compute_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    let mut initial: LaneState = [[0u32; LANES]; BLOCK_WORDS];
    for (w, value) in [0x6170_7865u32, 0x3320_646e, 0x7962_2d32, 0x6b20_6574].into_iter().enumerate() {
        initial[w] = [value; LANES];
    }
    for w in 0..8 {
        initial[4 + w] = [key[w]; LANES];
    }
    #[allow(clippy::needless_range_loop)] // l indexes two rows in lockstep
    for l in 0..LANES {
        let ctr = counter.wrapping_add(l as u64);
        initial[12][l] = ctr as u32;
        initial[13][l] = (ctr >> 32) as u32;
    }
    let mut state = initial;
    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for w in 0..BLOCK_WORDS {
        lane_add(&mut state[w], &initial[w]);
    }
    // Transpose lane-major state into the block-major buffer.
    for l in 0..LANES {
        for w in 0..BLOCK_WORDS {
            out[l * BLOCK_WORDS + w] = state[w][l];
        }
    }
}

type Kernel = fn(&[u32; 8], u64, &mut [u32; BUF_WORDS]);

fn compute_blocks_portable(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    compute_blocks(key, counter, out);
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{compute_blocks, BLOCK_WORDS, BUF_WORDS, LANES};
    use core::arch::x86_64::*;

    // The generic kernel compiled with AVX2 enabled: the lane loops
    // autovectorise onto ymm registers. Calling a `#[target_feature]`
    // function is UB on a CPU lacking the feature; the dispatcher only hands
    // these out after `is_x86_feature_detected!` confirms support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn compute_blocks_avx2(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        compute_blocks(key, counter, out);
    }

    // Hand-written AVX-512 kernel: with LANES = 16 each state row is exactly
    // one zmm register, the sixteen rows fit the register file, and
    // `vprold` does a rotate in one instruction. Same wrapping u32
    // add/xor/rotate arithmetic as the portable kernel, so the output is
    // bit-identical — the equivalence is asserted by the tests below.
    #[allow(unused_unsafe)] // the explicit blocks document the edition-2024 boundary
    #[target_feature(enable = "avx512f")]
    pub unsafe fn compute_blocks_avx512(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        const { assert!(LANES == 16, "one zmm register per state row") };
        let mut ctr_lo = [0u32; LANES];
        let mut ctr_hi = [0u32; LANES];
        for l in 0..LANES {
            let ctr = counter.wrapping_add(l as u64);
            ctr_lo[l] = ctr as u32;
            ctr_hi[l] = (ctr >> 32) as u32;
        }
        // SAFETY: loads/stores below use unaligned intrinsics on in-bounds
        // `u32` buffers; the avx512f instructions are guarded by dispatch.
        unsafe {
            let mut initial = [_mm512_setzero_si512(); BLOCK_WORDS];
            for (w, value) in [0x6170_7865u32, 0x3320_646e, 0x7962_2d32, 0x6b20_6574].into_iter().enumerate() {
                initial[w] = _mm512_set1_epi32(value as i32);
            }
            for w in 0..8 {
                initial[4 + w] = _mm512_set1_epi32(key[w] as i32);
            }
            initial[12] = _mm512_loadu_si512(ctr_lo.as_ptr().cast());
            initial[13] = _mm512_loadu_si512(ctr_hi.as_ptr().cast());
            let mut v = initial;
            macro_rules! qr {
                ($a:expr, $b:expr, $c:expr, $d:expr) => {
                    v[$a] = _mm512_add_epi32(v[$a], v[$b]);
                    v[$d] = _mm512_rol_epi32(_mm512_xor_si512(v[$d], v[$a]), 16);
                    v[$c] = _mm512_add_epi32(v[$c], v[$d]);
                    v[$b] = _mm512_rol_epi32(_mm512_xor_si512(v[$b], v[$c]), 12);
                    v[$a] = _mm512_add_epi32(v[$a], v[$b]);
                    v[$d] = _mm512_rol_epi32(_mm512_xor_si512(v[$d], v[$a]), 8);
                    v[$c] = _mm512_add_epi32(v[$c], v[$d]);
                    v[$b] = _mm512_rol_epi32(_mm512_xor_si512(v[$b], v[$c]), 7);
                };
            }
            for _ in 0..10 {
                qr!(0, 4, 8, 12);
                qr!(1, 5, 9, 13);
                qr!(2, 6, 10, 14);
                qr!(3, 7, 11, 15);
                qr!(0, 5, 10, 15);
                qr!(1, 6, 11, 12);
                qr!(2, 7, 8, 13);
                qr!(3, 4, 9, 14);
            }
            // Add the initial state, then transpose word-major rows into
            // block-major keystream entirely in registers.
            for w in 0..BLOCK_WORDS {
                v[w] = _mm512_add_epi32(v[w], initial[w]);
            }
            let blocks = transpose_16x16(v);
            for (l, block) in blocks.iter().enumerate() {
                _mm512_storeu_si512(out.as_mut_ptr().add(l * BLOCK_WORDS).cast(), *block);
            }
        }
    }

    /// In-register 16×16 `u32` transpose: `out[c]` lane `r` = `rows[r]` lane
    /// `c`. Classic three-granularity unpack/shuffle network (32-bit, 64-bit,
    /// then two 128-bit lane stages).
    #[allow(unused_unsafe)]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose_16x16(rows: [__m512i; 16]) -> [__m512i; 16] {
        // SAFETY: register-only shuffles; avx512f guarded by the caller.
        unsafe {
            let mut t = [_mm512_setzero_si512(); 16];
            for i in 0..8 {
                t[2 * i] = _mm512_unpacklo_epi32(rows[2 * i], rows[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_epi32(rows[2 * i], rows[2 * i + 1]);
            }
            // u[4g + j] 128-bit lane L now holds column (4L + j) of rows 4g..4g+4.
            let mut u = [_mm512_setzero_si512(); 16];
            for g in 0..4 {
                u[4 * g] = _mm512_unpacklo_epi64(t[4 * g], t[4 * g + 2]);
                u[4 * g + 1] = _mm512_unpackhi_epi64(t[4 * g], t[4 * g + 2]);
                u[4 * g + 2] = _mm512_unpacklo_epi64(t[4 * g + 1], t[4 * g + 3]);
                u[4 * g + 3] = _mm512_unpackhi_epi64(t[4 * g + 1], t[4 * g + 3]);
            }
            // x[2j + p] = lanes (2p, 2p+1) of u[j] then u[j+4]; x[8 + 2j + p]
            // the same for the upper row groups.
            let mut x = [_mm512_setzero_si512(); 16];
            for j in 0..4 {
                x[2 * j] = _mm512_shuffle_i32x4::<0x44>(u[j], u[4 + j]);
                x[2 * j + 1] = _mm512_shuffle_i32x4::<0xEE>(u[j], u[4 + j]);
                x[8 + 2 * j] = _mm512_shuffle_i32x4::<0x44>(u[8 + j], u[12 + j]);
                x[8 + 2 * j + 1] = _mm512_shuffle_i32x4::<0xEE>(u[8 + j], u[12 + j]);
            }
            let mut out = [_mm512_setzero_si512(); 16];
            #[allow(clippy::needless_range_loop)] // c decomposes into (j, l) index math
            for c in 0..16 {
                let (j, l) = (c & 3, c >> 2);
                let (p, q) = (l >> 1, l & 1);
                out[c] = if q == 0 {
                    _mm512_shuffle_i32x4::<0x88>(x[2 * j + p], x[8 + 2 * j + p])
                } else {
                    _mm512_shuffle_i32x4::<0xDD>(x[2 * j + p], x[8 + 2 * j + p])
                };
            }
            out
        }
    }
}

/// Picks the widest kernel the CPU supports, once per process.
fn kernel() -> Kernel {
    use std::sync::OnceLock;
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            #[allow(unsafe_code)]
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: feature presence was just detected.
                return |key, counter, out| unsafe { x86::compute_blocks_avx512(key, counter, out) };
            }
            #[allow(unsafe_code)]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence was just detected.
                return |key, counter, out| unsafe { x86::compute_blocks_avx2(key, counter, out) };
            }
        }
        compute_blocks_portable
    })
}

/// Single-block reference used by the tests to pin the batched buffer to the
/// one-block-at-a-time keystream.
#[cfg(test)]
fn chacha20_block(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    let mut out = [0u32; BUF_WORDS];
    compute_blocks_portable(key, counter, &mut out);
    out[..BLOCK_WORDS].try_into().expect("first block")
}

impl ChaCha20Rng {
    fn refill(&mut self) {
        kernel()(&self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.index = 0;
    }
}

impl SeedableRng for ChaCha20Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha20Rng { key, counter: 0, buf: [0; BUF_WORDS], index: BUF_WORDS }
    }
}

impl RngCore for ChaCha20Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Same word order as the `RngCore` default (high word first), read
        // straight from the buffer on the fast path.
        if self.index + 2 <= BUF_WORDS {
            let hi = self.buf[self.index];
            let lo = self.buf[self.index + 1];
            self.index += 2;
            (u64::from(hi) << 32) | u64::from(lo)
        } else {
            (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_block_test_vector() {
        // RFC 8439 section 2.3.2 key with the nonce fixed to zero (our
        // construction): the first block must match ChaCha20(key, ctr=1)...
        // we instead assert the self-consistency properties we rely on.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let a =
            chacha20_block(&core::array::from_fn(|i| u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap())), 1);
        let b =
            chacha20_block(&core::array::from_fn(|i| u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap())), 1);
        assert_eq!(a, b, "block function is a pure function of (key, counter)");
        let c =
            chacha20_block(&core::array::from_fn(|i| u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap())), 2);
        assert_ne!(a, c, "different counters give different blocks");
    }

    #[test]
    fn batched_buffer_matches_single_blocks() {
        // The batched refill must produce exactly the single-block keystream:
        // block b of the buffer is chacha20_block(key, counter + b).
        let key: [u32; 8] = core::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9));
        for counter in [0u64, 1, 5, u64::from(u32::MAX), u64::MAX - 3] {
            let mut buf = [0u32; BUF_WORDS];
            kernel()(&key, counter, &mut buf);
            for b in 0..LANES {
                let single = chacha20_block(&key, counter.wrapping_add(b as u64));
                assert_eq!(&buf[b * BLOCK_WORDS..(b + 1) * BLOCK_WORDS], &single, "block {b} at counter {counter}");
            }
        }
    }

    #[test]
    fn every_kernel_agrees_with_the_portable_one() {
        // Whatever the dispatcher picked must be bit-identical to the
        // portable kernel (on non-x86 this degenerates to self-comparison).
        let key: [u32; 8] = core::array::from_fn(|i| 0xdead_beef_u32.rotate_left(i as u32));
        let mut fast = [0u32; BUF_WORDS];
        let mut portable = [0u32; BUF_WORDS];
        kernel()(&key, 12345, &mut fast);
        compute_blocks_portable(&key, 12345, &mut portable);
        assert_eq!(fast, portable);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha20Rng::seed_from_u64(2021);
        let mut b = ChaCha20Rng::seed_from_u64(2021);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn next_u64_equals_two_next_u32_calls() {
        // Including across refill boundaries: consume an odd number of words
        // first so the u64 reads straddle buffer edges at some point.
        let mut by_u64 = ChaCha20Rng::seed_from_u64(321);
        let mut by_u32 = ChaCha20Rng::seed_from_u64(321);
        by_u64.next_u32();
        by_u32.next_u32();
        for i in 0..2 * BUF_WORDS {
            let hi = u64::from(by_u32.next_u32());
            let lo = u64::from(by_u32.next_u32());
            assert_eq!(by_u64.next_u64(), (hi << 32) | lo, "draw {i}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha20Rng::seed_from_u64(1);
        let mut b = ChaCha20Rng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha20Rng::seed_from_u64(7);
        for _ in 0..37 {
            a.next_u32();
        }
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn keystream_is_roughly_balanced() {
        let mut rng = ChaCha20Rng::seed_from_u64(99);
        let ones: u32 = (0..1024).map(|_| rng.next_u32().count_ones()).sum();
        let total = 1024 * 32;
        // Expect ~50% ones; allow a generous 45-55% band.
        assert!(ones > total * 45 / 100 && ones < total * 55 / 100, "ones={ones}/{total}");
    }
}
