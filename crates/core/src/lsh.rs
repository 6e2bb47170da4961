//! Query-aware minhash/LSH candidate prefilter.
//!
//! At a million knowledge nodes the exact posting-list kernel walks every
//! posting of every query feature — hundreds of thousands of decode steps
//! when the query carries hot boilerplate features. Following the
//! query-aware-LSH line of work (Rahmani et al., arXiv:2305.03017, see
//! PAPERS.md), this module prunes that to a candidate set whose size tracks
//! the number of *genuinely similar* nodes, not the posting volume:
//!
//! * each node's feature set is summarized by **minhash signatures**:
//!   `sig[i] = min over features f of h_i(f)` — for two sets,
//!   `P[sig_a[i] == sig_b[i]] = Jaccard(a, b)`;
//! * signatures are cut into **`bands` bands of `rows` hashes** each; a band
//!   key is the hash of its rows, and two sets collide in a band with
//!   probability `s^rows` (s = Jaccard). Over all bands,
//!   `P[candidate] = 1 − (1 − s^rows)^bands` — the classic S-curve;
//! * the default **32 bands × 3 rows** (96 hashes) puts the S-curve knee
//!   near s ≈ 0.3: a true neighbour at s = 0.45 is found with p ≈ 0.95 and
//!   at s = 0.55 with p ≈ 0.99, while background pairs at s ≤ 0.05 cost
//!   under 4·10⁻⁴ false-positive probability per node — a few hundred
//!   spurious candidates per million nodes.
//!
//! Band buckets are stored as **sorted parallel arrays** (`keys`/`nodes`)
//! probed by binary search, not as `HashMap<u64, Vec<u32>>`: 12 bytes per
//! (key, node) entry instead of ~50+ with per-bucket allocations — at 1M
//! nodes × 32 bands that is ~0.4 GB versus ~1.7 GB, and build time is a
//! sort per band instead of millions of small allocations.
//!
//! The prefilter is approximate by design; callers keep the exact kernel as
//! the differential oracle (`tests/lsh_recall.rs` asserts ≥ 95 % top-25
//! recall against it over 256 random queries).
//!
//! Snapshot seal does not build one and no serving path reads one: the
//! pruned ranking ([`crate::classifier::RankedKnn::rank_sealed_pruned`])
//! takes an index its caller built with [`LshIndex::from_kb`] — today the
//! scale-tier benchmarks and the recall tests. Whether serving should
//! switch to it above some knowledge-base size waits on a measured
//! crossover; at the paper's corpus size the exact kernel is faster.

use crate::knowledge::KnowledgeBase;

/// LSH shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Number of bands (each band is one hash table).
    pub bands: usize,
    /// Minhash rows per band; candidate probability per band = s^rows.
    pub rows: usize,
    /// Seed of the deterministic hash-family derivation.
    pub seed: u64,
}

impl Default for LshParams {
    fn default() -> Self {
        LshParams {
            bands: 32,
            rows: 3,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// SplitMix64 — the mixing finalizer used both to derive the hash family and
/// to scramble feature ids before the affine minhash functions.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One band's bucket table: `(key, node)` pairs sorted by key (then node),
/// stored as parallel arrays to avoid padding — see the module docs for the
/// memory math.
#[derive(Debug, Default, Clone)]
struct BandTable {
    keys: Vec<u64>,
    nodes: Vec<u32>,
}

impl BandTable {
    /// Visit every node whose band key equals `key`.
    #[inline]
    fn for_each_match(&self, key: u64, mut visit: impl FnMut(u32)) {
        let lo = self.keys.partition_point(|&k| k < key);
        let hi = lo + self.keys[lo..].partition_point(|&k| k == key);
        for &n in &self.nodes[lo..hi] {
            visit(n);
        }
    }
}

/// The minhash/LSH index over one sealed segment's nodes.
#[derive(Debug, Default, Clone)]
pub struct LshIndex {
    params: LshParams,
    /// Affine hash family: `h_i(f) = a_i * mix(f) + b_i`, `a_i` odd.
    hash_a: Vec<u64>,
    hash_b: Vec<u64>,
    tables: Vec<BandTable>,
}

impl LshIndex {
    /// Build the index over node feature sets, in node-index order. Nodes
    /// with empty feature sets are skipped (they have no signature and can
    /// never be near-neighbours).
    pub fn build<'a>(nodes: impl Iterator<Item = &'a [u32]>, params: LshParams) -> LshIndex {
        assert!(params.bands > 0 && params.rows > 0);
        let n_hashes = params.bands * params.rows;
        let mut hash_a = Vec::with_capacity(n_hashes);
        let mut hash_b = Vec::with_capacity(n_hashes);
        let mut state = params.seed;
        for _ in 0..n_hashes {
            state = splitmix64(state);
            hash_a.push(state | 1); // odd multiplier → bijective over u64
            state = splitmix64(state);
            hash_b.push(state);
        }
        let mut idx = LshIndex {
            params,
            hash_a,
            hash_b,
            tables: vec![BandTable::default(); params.bands],
        };
        // accumulate (key, node) pairs per band, then sort each band once
        let mut pending: Vec<Vec<(u64, u32)>> = vec![Vec::new(); params.bands];
        let mut sig = vec![u64::MAX; n_hashes];
        for (node, features) in nodes.enumerate() {
            if features.is_empty() {
                continue;
            }
            idx.signature(features, &mut sig);
            let node = u32::try_from(node).expect("under 4G nodes");
            for (band, key) in idx.band_keys(&sig).enumerate() {
                pending[band].push((key, node));
            }
        }
        for (band, mut entries) in pending.into_iter().enumerate() {
            entries.sort_unstable();
            let table = &mut idx.tables[band];
            table.keys.reserve_exact(entries.len());
            table.nodes.reserve_exact(entries.len());
            for (key, node) in entries {
                table.keys.push(key);
                table.nodes.push(node);
            }
        }
        idx
    }

    /// Build with default parameters over a knowledge base's nodes, in node
    /// order — the node ids the pruned ranking expects.
    pub fn from_kb(kb: &KnowledgeBase) -> LshIndex {
        Self::build(
            kb.nodes().iter().map(|n| n.features.ids()),
            LshParams::default(),
        )
    }

    /// The index's shape parameters.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// Total (key, node) entries across all band tables.
    pub fn n_entries(&self) -> usize {
        self.tables.iter().map(|t| t.keys.len()).sum()
    }

    /// Compute the minhash signature of a feature set into `sig`
    /// (`bands * rows` long).
    fn signature(&self, features: &[u32], sig: &mut [u64]) {
        sig.fill(u64::MAX);
        for &f in features {
            // one mix per feature, then a cheap affine pass per hash
            let m = splitmix64(f as u64 ^ 0xA5A5_A5A5_5A5A_5A5A);
            for (i, s) in sig.iter_mut().enumerate() {
                let h = self.hash_a[i].wrapping_mul(m).wrapping_add(self.hash_b[i]);
                if h < *s {
                    *s = h;
                }
            }
        }
    }

    /// Fold each band's rows into one 64-bit band key.
    fn band_keys<'a>(&'a self, sig: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
        sig.chunks_exact(self.params.rows)
            .enumerate()
            .map(|(band, rows)| {
                let mut key = splitmix64(band as u64 ^ self.params.seed);
                for &h in rows {
                    key = splitmix64(key ^ h);
                }
                key
            })
    }

    /// Visit every candidate node for a query feature set: any node sharing
    /// at least one band bucket. A node sharing several bands is visited
    /// once per shared band — callers deduplicate (the `ScoreScratch` bump
    /// does it for free). Empty queries visit nothing.
    pub fn for_each_candidate(&self, features: &[u32], mut visit: impl FnMut(u32)) {
        if features.is_empty() || self.tables.is_empty() {
            return;
        }
        let n_hashes = self.params.bands * self.params.rows;
        let mut sig = vec![u64::MAX; n_hashes];
        self.signature(features, &mut sig);
        let keys: Vec<u64> = self.band_keys(&sig).collect();
        for (band, key) in keys.into_iter().enumerate() {
            self.tables[band].for_each_match(key, &mut visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn candidates(idx: &LshIndex, q: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        idx.for_each_candidate(q, |n| out.push(n));
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn identical_sets_always_collide() {
        let sets: Vec<Vec<u32>> = (0..20)
            .map(|i| (0..12).map(|k| i * 100 + k * 7).collect())
            .collect();
        let idx = LshIndex::build(sets.iter().map(Vec::as_slice), Default::default());
        for (i, s) in sets.iter().enumerate() {
            let c = candidates(&idx, s);
            assert!(
                c.contains(&(i as u32)),
                "set {i} does not find itself: {c:?}"
            );
        }
    }

    #[test]
    fn disjoint_sets_rarely_collide() {
        // 200 mutually disjoint sets: expected false positives ≈
        // bands * s^rows with s = 0 → only hash collisions, essentially zero
        let sets: Vec<Vec<u32>> = (0..200u32)
            .map(|i| (0..12).map(|k| i * 1000 + k).collect())
            .collect();
        let idx = LshIndex::build(sets.iter().map(Vec::as_slice), Default::default());
        let mut false_hits = 0usize;
        for (i, s) in sets.iter().enumerate() {
            for &c in &candidates(&idx, s) {
                if c != i as u32 {
                    false_hits += 1;
                }
            }
        }
        assert!(false_hits <= 2, "too many false positives: {false_hits}");
    }

    #[test]
    fn similar_sets_usually_collide() {
        // pairs at Jaccard ≈ 0.6 (12 shared of 20 total): the S-curve gives
        // p ≈ 0.999 per pair — over 100 pairs, essentially all must be found
        let mut rng = StdRng::seed_from_u64(99);
        let mut sets: Vec<Vec<u32>> = Vec::new();
        for _ in 0..100 {
            let base: Vec<u32> = (0..16).map(|_| rng.random_range(0..1_000_000)).collect();
            let mut a = base[..12].to_vec();
            let mut b = base[..12].to_vec();
            for _ in 0..4 {
                a.push(rng.random_range(1_000_000..2_000_000));
                b.push(rng.random_range(2_000_000..3_000_000));
            }
            sets.push(a);
            sets.push(b);
        }
        let idx = LshIndex::build(sets.iter().map(Vec::as_slice), Default::default());
        let mut found = 0usize;
        for pair in 0..100 {
            let a = 2 * pair as u32;
            if candidates(&idx, &sets[2 * pair + 1]).contains(&a) {
                found += 1;
            }
        }
        assert!(found >= 95, "only {found}/100 similar pairs found");
    }

    #[test]
    fn deterministic_across_builds() {
        let sets: Vec<Vec<u32>> = (0..50)
            .map(|i| (0..10).map(|k| i * 31 + k * 3).collect())
            .collect();
        let a = LshIndex::build(sets.iter().map(Vec::as_slice), Default::default());
        let b = LshIndex::build(sets.iter().map(Vec::as_slice), Default::default());
        for s in &sets {
            assert_eq!(candidates(&a, s), candidates(&b, s));
        }
        assert_eq!(a.n_entries(), b.n_entries());
        // every non-empty set occupies one slot per band
        assert_eq!(a.n_entries(), 50 * a.params().bands);
    }

    #[test]
    fn empty_sets_and_queries() {
        let sets: Vec<Vec<u32>> = vec![vec![], vec![1, 2, 3], vec![]];
        let idx = LshIndex::build(sets.iter().map(Vec::as_slice), Default::default());
        // empty nodes were skipped: only node 1 is indexed
        assert_eq!(idx.n_entries(), idx.params().bands);
        assert!(candidates(&idx, &[]).is_empty());
        assert_eq!(candidates(&idx, &[1, 2, 3]), vec![1]);
        // empty index
        let empty = LshIndex::build(std::iter::empty(), Default::default());
        assert!(candidates(&empty, &[1, 2, 3]).is_empty());
    }
}
