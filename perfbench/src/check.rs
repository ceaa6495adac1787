//! The serial reference and the output checks.
//!
//! Every expected output is computed on one thread by calling the app's
//! `map` and `combine` directly, with no runtime in the way. Every timed
//! job is then checked against it, and each verdict lands in a [`Tally`],
//! whose `failed_frac` counts errors, sheds and wrong outputs alike.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use mr_apps::kmeans::ClusterAccum;
use mr_apps::Point;
use mr_core::{Emitter, MapReduceJob};
use ramr::Backend;
use ramr_containers::CompactKey;
use ramr_telemetry::{ThreadRole, ThreadTelemetry};

use crate::gen::{fnv1a, FNV_OFFSET};

/// Runs `job` over `input` on the calling thread: map, combine into a
/// hash map, reduce, sort by key — the runtime's output contract without
/// the runtime.
pub fn serial_reduce<J: MapReduceJob>(job: &J, input: &[J::Input]) -> Vec<(J::Key, J::Value)> {
    let mut table: HashMap<J::Key, J::Value> = HashMap::new();
    let mut sink = |k: J::Key, v: J::Value| match table.entry(k) {
        Entry::Occupied(mut e) => job.combine(e.get_mut(), v),
        Entry::Vacant(e) => {
            e.insert(v);
        }
    };
    job.map(input, &mut Emitter::new(&mut sink));
    let mut pairs: Vec<_> =
        table.into_iter().map(|(k, v)| (k.clone(), job.reduce(&k, v))).collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs
}

/// A key whose bytes feed an exact output digest.
pub trait DigestKey {
    /// Folds the key into `hash`.
    fn fold(&self, hash: u64) -> u64;
}

impl DigestKey for u16 {
    fn fold(&self, hash: u64) -> u64 {
        fnv1a(hash, &self.to_le_bytes())
    }
}

impl DigestKey for CompactKey {
    fn fold(&self, hash: u64) -> u64 {
        fnv1a(fnv1a(hash, self.as_str().as_bytes()), &[0])
    }
}

/// An exact digest of key-sorted `(key, count)` output.
pub fn pairs_digest<K: DigestKey>(pairs: &[(K, u64)]) -> u64 {
    pairs.iter().fold(FNV_OFFSET, |h, (k, v)| fnv1a(k.fold(h), &v.to_le_bytes()))
}

/// Relative tolerance on k-means centroids: the order in which a runtime
/// folds f64 partial sums differs from the serial order, so sums agree to
/// rounding, not bit for bit.
pub const KM_REL_TOL: f64 = 1e-9;

/// The centroids a round's reduced output implies; clusters that drew no
/// point keep their previous centroid.
pub fn km_centroids(reduced: &[(u32, ClusterAccum)], previous: &[Point]) -> Vec<Point> {
    let mut next = previous.to_vec();
    for (cluster, acc) in reduced {
        if acc.count > 0 {
            next[*cluster as usize] = acc.sum.map(|s| s / acc.count as f64);
        }
    }
    next
}

/// Whether a k-means output matches the reference: the same clusters with
/// the same point counts, and centroids within [`KM_REL_TOL`].
pub fn km_matches(got: &[(u32, ClusterAccum)], want: &[(u32, ClusterAccum)]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|((gk, g), (wk, w))| {
            gk == wk
                && g.count == w.count
                && (0..g.sum.len()).all(|d| {
                    let (a, b) = (g.sum[d] / g.count as f64, w.sum[d] / w.count as f64);
                    (a - b).abs() <= KM_REL_TOL * a.abs().max(b.abs()).max(1.0)
                })
        })
}

/// OS threads a run used: mappers plus dedicated combiners for RAMR (a
/// flex thread that also combined appears in both halves of the report
/// but is one thread), workers for Phoenix.
pub fn os_threads(backend: Backend, threads: &[ThreadTelemetry], combiners: usize) -> usize {
    threads
        .iter()
        .filter(|t| match (backend, t.role) {
            (Backend::Phoenix, role) => role == ThreadRole::Worker,
            (_, ThreadRole::Combiner) => t.index < combiners,
            (_, role) => role == ThreadRole::Mapper,
        })
        .count()
}

/// The verdict on one timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Ran, and the output matched the reference.
    Ok,
    /// Ran, but the output disagreed with the reference (or the run broke
    /// the equal thread budget, which voids the comparison).
    Mismatch,
    /// Returned an error.
    Error,
    /// Refused by admission control.
    Shed,
}

/// Attempted operations and how many failed, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Outputs that disagreed with the reference.
    pub mismatches: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations refused by admission control.
    pub sheds: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Mismatch => self.mismatches += 1,
            Verdict::Error => self.errors += 1,
            Verdict::Shed => self.sheds += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.mismatches += other.mismatches;
        self.errors += other.errors;
        self.sheds += other.sheds;
    }

    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.mismatches + self.errors + self.sheds
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}
