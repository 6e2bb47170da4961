//! Sealed immutable index segments: every posting list delta+varint-encoded
//! into one contiguous byte arena, built once at snapshot seal time.
//!
//! [`SealedIndex`] is the only inverted feature index in the system; the
//! knowledge base keeps nodes and the part index, and
//! [`SealedIndex::build`] buckets the postings straight from its nodes. The
//! arena is laid out the way a search engine segment is:
//!
//! * node indexes are sorted ascending (nodes are visited in order), so
//!   each list is stored as **deltas** between consecutive ids;
//! * deltas are **LEB128 varints** — dense lists (hot boilerplate features)
//!   collapse to ~1 byte per posting, an 8× size cut over a `Vec<usize>`
//!   list, which is a memory-bandwidth cut on every query;
//! * all lists live in **one `Vec<u8>` arena** indexed by a flat offset
//!   table, so a query's feature walk is a few contiguous forward scans.
//!
//! Decoding happens block-at-a-time into a stack buffer with a u64-lane fast
//! path: when the next 8 bytes all have the continuation bit clear (the
//! common case on dense lists), one u64 load yields 8 complete deltas with no
//! per-byte branching.
//!
//! Two decode surfaces with different trust models:
//! * [`decode_sorted`] / [`read_varint`] — checked, for *untrusted* bytes
//!   (persistence, corrupt files): truncation and overflow return
//!   [`CodecError`], never panic;
//! * [`SealedIndex::accumulate_into`] — the trusted hot path over the arena
//!   this process encoded itself (wrapping arithmetic, no validation).
//!
//! [`SealedIndex`] bundles the arena with per-node metadata (dense part
//! index, feature-set cardinality) and is rebuilt from the knowledge base on
//! every snapshot seal. It carries no LSH prefilter: callers that want the
//! pruned path build a [`crate::lsh::LshIndex`] themselves.

use std::fmt;

use crate::features::FeatureSet;
use crate::knowledge::KnowledgeBase;

/// Decode failure on untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended inside a varint or before `count` values were read.
    Truncated,
    /// A varint exceeded 32 bits, or the delta sum overflowed `u32`.
    Overflow,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "varint stream truncated"),
            CodecError::Overflow => write!(f, "varint value overflows u32"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append one u32 as an LEB128 varint (1–5 bytes, little-endian groups of 7
/// bits, high bit = continuation).
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one varint from `buf` starting at `*pos`, advancing `*pos`. Checked:
/// truncation and 32-bit overflow are errors, never panics.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        let payload = (byte & 0x7f) as u32;
        if shift >= 32 || (shift == 28 && payload > 0x0f) {
            return Err(CodecError::Overflow);
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Delta+varint-encode a sorted (non-decreasing) id list. Every value is
/// stored as the delta from its predecessor (the first from 0), so the
/// encoding is uniform and [`decode_sorted`] needs no special first case.
///
/// Panics in debug builds if `ids` is not sorted; in release an unsorted
/// input silently encodes garbage deltas (the wrapping subtraction) — all
/// call sites encode lists that are sorted by construction.
pub fn encode_sorted(ids: &[u32], out: &mut Vec<u8>) {
    let mut prev = 0u32;
    for &id in ids {
        debug_assert!(id >= prev, "encode_sorted input must be sorted");
        write_varint(out, id.wrapping_sub(prev));
        prev = id;
    }
}

/// Decode `count` delta+varint values from untrusted bytes back into
/// absolute ids. Inverse of [`encode_sorted`]; checked end to end.
pub fn decode_sorted(buf: &[u8], count: usize) -> Result<Vec<u32>, CodecError> {
    let mut out = Vec::with_capacity(count);
    let mut pos = 0usize;
    let mut prev = 0u32;
    for _ in 0..count {
        let delta = read_varint(buf, &mut pos)?;
        prev = prev.checked_add(delta).ok_or(CodecError::Overflow)?;
        out.push(prev);
    }
    Ok(out)
}

/// Decode block size: big enough to amortize loop overhead, small enough to
/// stay in L1 (512 bytes).
const BLOCK: usize = 128;

/// Streaming block decoder over one trusted arena list: fills a caller
/// buffer with up to [`BLOCK`] absolute ids per call.
struct BlockDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: u32,
}

impl<'a> BlockDecoder<'a> {
    fn new(bytes: &'a [u8], count: usize) -> Self {
        BlockDecoder {
            bytes,
            pos: 0,
            remaining: count,
            prev: 0,
        }
    }

    /// Decode the next block of absolute ids into `out`; returns how many
    /// were produced (0 = exhausted).
    #[inline]
    fn next_block(&mut self, out: &mut [u32; BLOCK]) -> usize {
        let n = self.remaining.min(BLOCK);
        let mut i = 0;
        while i < n {
            // u64 lane: if the next 8 bytes all have the continuation bit
            // clear, they are 8 complete 1-byte deltas — decode them from a
            // single load. Dense (delta ≤ 127) regions take this path.
            if n - i >= 8 && self.bytes.len() - self.pos >= 8 {
                let word = u64::from_le_bytes(
                    self.bytes[self.pos..self.pos + 8]
                        .try_into()
                        .expect("8 bytes"),
                );
                if word & 0x8080_8080_8080_8080 == 0 {
                    let mut prev = self.prev;
                    for k in 0..8 {
                        prev = prev.wrapping_add(((word >> (k * 8)) & 0x7f) as u32);
                        out[i + k] = prev;
                    }
                    self.prev = prev;
                    self.pos += 8;
                    i += 8;
                    continue;
                }
            }
            // scalar varint (trusted: no truncation/overflow checks)
            let mut delta = 0u32;
            let mut shift = 0u32;
            loop {
                let byte = self.bytes[self.pos];
                self.pos += 1;
                delta |= ((byte & 0x7f) as u32) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            self.prev = self.prev.wrapping_add(delta);
            out[i] = self.prev;
            i += 1;
        }
        self.remaining -= n;
        n
    }
}

/// All posting lists of one sealed segment in a single contiguous byte
/// arena: list `i` owns `bytes[offsets[i]..offsets[i+1]]` holding
/// `counts[i]` delta+varint-encoded entries.
#[derive(Debug, Default, Clone)]
pub struct PostingArena {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
    counts: Vec<u32>,
}

impl PostingArena {
    pub fn new() -> Self {
        PostingArena {
            bytes: Vec::new(),
            offsets: vec![0],
            counts: Vec::new(),
        }
    }

    /// Append the next list (list ids are assigned densely in push order).
    pub fn push_list(&mut self, ids: &[u32]) {
        encode_sorted(ids, &mut self.bytes);
        let end = u32::try_from(self.bytes.len()).expect("posting arena under 4 GiB");
        self.offsets.push(end);
        self.counts
            .push(u32::try_from(ids.len()).expect("posting list under 4G entries"));
    }

    /// Number of lists.
    pub fn n_lists(&self) -> usize {
        self.counts.len()
    }

    /// Total encoded bytes.
    pub fn arena_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Total postings across all lists.
    pub fn n_postings(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Entry count of list `i` (0 when `i` is out of range — absent features
    /// have empty postings).
    pub fn count(&self, i: usize) -> usize {
        self.counts.get(i).map(|&c| c as usize).unwrap_or(0)
    }

    /// Raw encoded bytes of list `i`.
    pub fn list_bytes(&self, i: usize) -> &[u8] {
        if i >= self.counts.len() {
            return &[];
        }
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Decode list `i` fully (cold paths and tests; the hot path streams
    /// blocks instead).
    pub fn decode_list(&self, i: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count(i));
        self.for_each(i, |id| out.push(id));
        out
    }

    /// Stream every absolute id of list `i` through `f`, block-at-a-time.
    #[inline]
    pub fn for_each(&self, i: usize, mut f: impl FnMut(u32)) {
        let mut dec = BlockDecoder::new(self.list_bytes(i), self.count(i));
        let mut block = [0u32; BLOCK];
        loop {
            let n = dec.next_block(&mut block);
            if n == 0 {
                return;
            }
            for &id in &block[..n] {
                f(id);
            }
        }
    }
}

/// Reusable per-thread scratch state for the score-accumulation kernel
/// ([`SealedIndex::accumulate_into`]). Holds a per-node intersection-count
/// array plus the list of touched nodes, so a query resets in
/// O(candidates) rather than O(knowledge base).
#[derive(Debug, Default, Clone)]
pub struct ScoreScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl ScoreScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Node indexes with at least one hit, in posting order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Hit count of a touched node.
    pub fn count(&self, node: u32) -> u32 {
        self.counts[node as usize]
    }

    /// Clear for a new query over `n_nodes` nodes.
    pub(crate) fn begin(&mut self, n_nodes: usize) {
        if self.counts.len() < n_nodes {
            self.counts.resize(n_nodes, 0);
        }
        for &t in &self.touched {
            self.counts[t as usize] = 0;
        }
        self.touched.clear();
    }

    /// Register one hit for `node` (first hit records it as touched).
    #[inline]
    pub(crate) fn bump(&mut self, node: u32) {
        let c = &mut self.counts[node as usize];
        if *c == 0 {
            self.touched.push(node);
        }
        *c += 1;
    }
}

/// The immutable per-snapshot index segment: compressed postings and
/// per-node metadata. Built by [`SealedIndex::build`] at snapshot seal time;
/// node indexes are identical to the knowledge base's (no reordering), so
/// rankings computed here tie-break exactly like
/// [`crate::classifier::RankedKnn::rank_naive`] over the same nodes.
#[derive(Debug, Default, Clone)]
pub struct SealedIndex {
    n_nodes: usize,
    /// Dense part index per node, aligned with the knowledge base.
    node_parts: Vec<u32>,
    /// Feature-set cardinality per node (the |B| of every similarity score).
    node_lens: Vec<u32>,
    /// One posting list per feature id up to the largest one any node holds.
    postings: PostingArena,
}

impl SealedIndex {
    /// Build the segment from a knowledge base: bucket every node's
    /// features into per-feature posting lists in one pass over the nodes,
    /// then encode each list into the arena.
    pub fn build(kb: &KnowledgeBase) -> SealedIndex {
        let nodes = kb.nodes();
        let n_features = nodes
            .iter()
            .filter_map(|n| n.features.ids().last())
            .max()
            .map_or(0, |&m| m as usize + 1);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_features];
        for (i, node) in nodes.iter().enumerate() {
            for f in node.features.iter() {
                lists[f as usize].push(i as u32);
            }
        }
        let mut postings = PostingArena::new();
        for ids in &lists {
            postings.push_list(ids);
        }
        SealedIndex {
            n_nodes: nodes.len(),
            node_parts: kb.node_parts().to_vec(),
            node_lens: nodes.iter().map(|n| n.features.len() as u32).collect(),
            postings,
        }
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The compressed posting arena.
    pub fn postings(&self) -> &PostingArena {
        &self.postings
    }

    /// Feature-set cardinality of a node.
    #[inline]
    pub fn node_len(&self, node: u32) -> usize {
        self.node_lens[node as usize] as usize
    }

    /// Dense part index of a node.
    #[inline]
    pub fn node_part(&self, node: u32) -> u32 {
        self.node_parts[node as usize]
    }

    /// The exact score-accumulation kernel over compressed postings: walks
    /// each query feature's list block-at-a-time and accumulates |A ∩ B| per
    /// node into `scratch`, filtering by part inline (`Some(p)`: only part
    /// `p`'s nodes; `None`: every node). The touched set equals
    /// [`KnowledgeBase::candidates`] except for the unknown-part
    /// zero-overlap fallback, which callers apply themselves.
    pub fn accumulate_into(
        &self,
        part: Option<u32>,
        features: &FeatureSet,
        scratch: &mut ScoreScratch,
    ) {
        scratch.begin(self.n_nodes);
        let mut block = [0u32; BLOCK];
        for f in features.iter() {
            let i = f as usize;
            let count = self.postings.count(i);
            if count == 0 {
                continue;
            }
            let mut dec = BlockDecoder::new(self.postings.list_bytes(i), count);
            loop {
                let n = dec.next_block(&mut block);
                if n == 0 {
                    break;
                }
                match part {
                    Some(p) => {
                        for &node in &block[..n] {
                            if self.node_parts[node as usize] == p {
                                scratch.bump(node);
                            }
                        }
                    }
                    None => {
                        for &node in &block[..n] {
                            scratch.bump(node);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;

    fn fs(ids: &[u32]) -> FeatureSet {
        FeatureSet::from_unsorted(ids.to_vec())
    }

    #[test]
    fn varint_reference_values() {
        let cases: [(u32, &[u8]); 6] = [
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (u32::MAX, &[0xff, 0xff, 0xff, 0xff, 0x0f]),
        ];
        for (v, bytes) in cases {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            assert_eq!(out, bytes, "encoding of {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), Ok(v));
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn read_varint_rejects_garbage() {
        // truncated mid-varint
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80, 0x80], &mut pos),
            Err(CodecError::Truncated)
        );
        // empty
        let mut pos = 0;
        assert_eq!(read_varint(&[], &mut pos), Err(CodecError::Truncated));
        // 5th byte with payload beyond 32 bits
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0xff, 0xff, 0xff, 0xff, 0x1f], &mut pos),
            Err(CodecError::Overflow)
        );
        // 6+ bytes of continuation
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], &mut pos),
            Err(CodecError::Overflow)
        );
    }

    #[test]
    fn roundtrip_known_lists() {
        let lists: [&[u32]; 6] = [
            &[],
            &[0],
            &[5, 5, 5],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            &[100, 228, 1000, 70000, u32::MAX],
            &[u32::MAX],
        ];
        for ids in lists {
            let mut buf = Vec::new();
            encode_sorted(ids, &mut buf);
            assert_eq!(decode_sorted(&buf, ids.len()).unwrap(), ids);
        }
    }

    #[test]
    fn decode_sorted_overflow_and_truncation() {
        let mut buf = Vec::new();
        encode_sorted(&[u32::MAX], &mut buf);
        write_varint(&mut buf, 1); // second delta pushes the sum past u32::MAX
        assert_eq!(decode_sorted(&buf, 2), Err(CodecError::Overflow));
        // asking for more values than encoded
        let mut buf = Vec::new();
        encode_sorted(&[1, 2, 3], &mut buf);
        assert_eq!(decode_sorted(&buf, 4), Err(CodecError::Truncated));
    }

    #[test]
    fn arena_roundtrip_and_block_decode() {
        let mut arena = PostingArena::new();
        // dense list long enough to exercise the u64 lane across blocks
        let dense: Vec<u32> = (0..1000).map(|i| i * 2).collect();
        // sparse list with multi-byte deltas breaking the lane
        let sparse: Vec<u32> = vec![7, 1000, 1001, 500_000, 500_001, 4_000_000_000];
        arena.push_list(&dense);
        arena.push_list(&[]);
        arena.push_list(&sparse);
        assert_eq!(arena.n_lists(), 3);
        assert_eq!(arena.decode_list(0), dense);
        assert!(arena.decode_list(1).is_empty());
        assert_eq!(arena.decode_list(2), sparse);
        // out-of-range list behaves as empty
        assert_eq!(arena.count(99), 0);
        assert!(arena.decode_list(99).is_empty());
        // dense deltas are all 1-byte: compression actually happened
        assert!(arena.arena_bytes() < dense.len() + 6 * 5 + 1);
        assert_eq!(arena.n_postings(), dense.len() + sparse.len());
    }

    fn test_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.insert("P-01", "E100", fs(&[1, 2, 3]));
        kb.insert("P-01", "E200", fs(&[3, 4]));
        kb.insert("P-01", "E100", fs(&[1, 9]));
        kb.insert("P-02", "E300", fs(&[2, 5]));
        kb
    }

    #[test]
    fn sealed_counts_match_knowledge_base() {
        let kb = test_kb();
        let idx = SealedIndex::build(&kb);
        assert_eq!(idx.n_nodes(), kb.len());
        let queries = [
            ("P-01", fs(&[3])),
            ("P-01", fs(&[1, 2, 3])),
            ("P-02", fs(&[2, 5])),
            ("P-99", fs(&[2])),
            ("P-01", fs(&[777])),
            ("P-01", FeatureSet::default()),
        ];
        for (part_id, q) in &queries {
            let mut s = ScoreScratch::new();
            idx.accumulate_into(kb.part_index(part_id), q, &mut s);
            let mut touched: Vec<usize> = s.touched().iter().map(|&n| n as usize).collect();
            touched.sort_unstable();
            assert_eq!(
                touched,
                kb.candidates(part_id, q),
                "touched mismatch for {part_id}"
            );
            for &n in s.touched() {
                let expect = q.intersection_size(&kb.nodes()[n as usize].features);
                assert_eq!(s.count(n) as usize, expect, "count mismatch at node {n}");
            }
        }
    }

    #[test]
    fn sealed_postings_list_every_node_of_each_feature() {
        let kb = test_kb();
        let idx = SealedIndex::build(&kb);
        assert_eq!(idx.postings().n_lists(), 10);
        for f in 0..10u32 {
            let expect: Vec<u32> = (0..kb.len() as u32)
                .filter(|&n| kb.nodes()[n as usize].features.contains(f))
                .collect();
            assert_eq!(
                idx.postings().decode_list(f as usize),
                expect,
                "feature {f}"
            );
        }
        assert_eq!(idx.node_len(0), 3);
        assert_eq!(idx.node_part(3), kb.part_index("P-02").unwrap());
    }

    #[test]
    fn empty_kb_builds_empty_segment() {
        let idx = SealedIndex::build(&KnowledgeBase::new());
        assert_eq!(idx.n_nodes(), 0);
        assert_eq!(idx.postings().n_lists(), 0);
        let mut s = ScoreScratch::new();
        idx.accumulate_into(None, &fs(&[1, 2]), &mut s);
        assert!(s.touched().is_empty());
    }
}
