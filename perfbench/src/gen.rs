//! Seeded input generators.
//!
//! The benchmark owns its inputs: `mr_apps::inputs` seeds are fixed per
//! Table I cell, so every workload draws its data here from the run's
//! `--seed`. The same seed always yields byte-identical inputs; each input
//! has a digest so a run record (and the self-tests) can show it.

use mr_apps::{Pixel, Point, DIM};

/// SplitMix64: a small, fast, fully specified generator, so the inputs do
/// not depend on any external crate's stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` salted with `stream`, so independent inputs
    /// of one run never share a sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        SplitMix(seed ^ fnv1a(FNV_OFFSET, stream.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64 hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `nominal` moved by the seed within ±1%: the seed picks the exact input
/// length as well as its content.
fn jittered(rng: &mut SplitMix, nominal: usize) -> usize {
    nominal - nominal / 100 + rng.below((nominal / 50 + 1) as u64) as usize
}

/// Histogram pixels per job: Table I HWL-small (200 MB) at scale 100.
pub const HG_PIXELS: usize = 666_666;
/// WordCount lines per job (10 words each, about 4 MB of text).
pub const WC_LINES: usize = 60_000;
/// Words per WordCount line.
pub const WC_WORDS_PER_LINE: usize = 10;
/// WordCount vocabulary, ranked for Zipf(1).
pub const WC_VOCABULARY: usize = 200_000;
/// k-means points per job.
pub const KM_POINTS: usize = 100_000;
/// k-means clusters.
pub const KM_CLUSTERS: usize = 64;

/// Uniformly random RGB pixels.
pub fn hg_pixels(seed: u64) -> Vec<Pixel> {
    let mut rng = SplitMix::new(seed, "hg-pixels");
    let n = jittered(&mut rng, HG_PIXELS);
    (0..n)
        .map(|_| {
            let x = rng.next_u64();
            Pixel { r: x as u8, g: (x >> 8) as u8, b: (x >> 16) as u8 }
        })
        .collect()
}

/// The `rank`-th vocabulary word: its base-26 spelling, so short words are
/// the frequent ones, as in natural text.
fn word(mut rank: usize, out: &mut String) {
    // Bijective base 26: every rank has its own spelling.
    let mut letters = [0u8; 8];
    let mut len = 0;
    loop {
        letters[len] = b'a' + (rank % 26) as u8;
        len += 1;
        rank /= 26;
        if rank == 0 {
            break;
        }
        rank -= 1;
    }
    out.extend(letters[..len].iter().rev().map(|&b| char::from(b)));
}

/// Lines of Zipf(1) words over [`WC_VOCABULARY`] ranks.
pub fn wc_lines(seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(seed, "wc-lines");
    let n = jittered(&mut rng, WC_LINES);
    let mut cumulative = Vec::with_capacity(WC_VOCABULARY);
    let mut total = 0.0f64;
    for rank in 1..=WC_VOCABULARY {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    (0..n)
        .map(|_| {
            let mut line = String::with_capacity(WC_WORDS_PER_LINE * 5);
            for w in 0..WC_WORDS_PER_LINE {
                if w > 0 {
                    line.push(' ');
                }
                let u = rng.unit() * total;
                let rank = cumulative.partition_point(|&c| c < u).min(WC_VOCABULARY - 1);
                word(rank, &mut line);
            }
            line
        })
        .collect()
}

/// Points scattered ±5 around [`KM_CLUSTERS`] true centres in a 200-wide
/// cube.
pub fn km_points(seed: u64) -> Vec<Point> {
    let mut rng = SplitMix::new(seed, "km-points");
    let n = jittered(&mut rng, KM_POINTS);
    let centres: Vec<Point> =
        (0..KM_CLUSTERS).map(|_| std::array::from_fn(|_| rng.range(-100.0, 100.0))).collect();
    (0..n)
        .map(|_| {
            let c = centres[rng.below(KM_CLUSTERS as u64) as usize];
            let mut p = [0.0; DIM];
            for (d, x) in p.iter_mut().enumerate() {
                *x = c[d] + rng.range(-5.0, 5.0);
            }
            p
        })
        .collect()
}

/// A digest over an input's exact contents.
pub trait InputDigest {
    /// FNV-1a 64 over every item's bytes, in order.
    fn digest(items: &[Self]) -> u64
    where
        Self: Sized;
}

impl InputDigest for Pixel {
    fn digest(items: &[Self]) -> u64 {
        items.iter().fold(FNV_OFFSET, |h, p| fnv1a(h, &[p.r, p.g, p.b]))
    }
}

impl InputDigest for String {
    fn digest(items: &[Self]) -> u64 {
        items.iter().fold(FNV_OFFSET, |h, s| fnv1a(fnv1a(h, s.as_bytes()), b"\n"))
    }
}

impl InputDigest for Point {
    fn digest(items: &[Self]) -> u64 {
        items
            .iter()
            .fold(FNV_OFFSET, |h, p| p.iter().fold(h, |h, x| fnv1a(h, &x.to_bits().to_le_bytes())))
    }
}
