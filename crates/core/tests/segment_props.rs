//! Property suite for the sealed-segment codec and the sealed ranking path.
//!
//! Two layers of guarantees:
//!
//! * **codec**: delta+varint encode → checked decode is the identity over
//!   arbitrary sorted id lists, and decoding any truncated or garbage
//!   buffer returns `Err` — never panics, never fabricates ids (the decode
//!   path runs over untrusted snapshot bytes);
//! * **index**: a [`SealedIndex`] built from a random knowledge base lists,
//!   for every feature, exactly the nodes a brute-force scan of
//!   `kb.nodes()` finds, and its kernel touches exactly the nodes
//!   [`KnowledgeBase::candidates`] selects (plus the paper's whole-KB
//!   fallback, which the kernel leaves to its caller);
//! * **ranking**: [`RankedKnn::rank`] over that index is indistinguishable
//!   from the index-free [`RankedKnn::rank_naive`] — same codes, same
//!   order, same scores — across known/unknown parts, empty queries and
//!   tiny `top_nodes` cut-offs. The LSH-pruned path is held to its subset
//!   contract: every code it emits carries exactly the score the exact
//!   path assigns that code.

use proptest::collection::vec;
use proptest::prelude::*;
use qatk_core::prelude::*;

/// Sorted, deduplicated id list with a heavy-tailed value range so both
/// 1-byte and multi-byte varints occur constantly.
fn sorted_ids() -> impl Strategy<Value = Vec<u32>> {
    vec(
        prop_oneof![0u32..300, 0u32..100_000, 0u32..=u32::MAX],
        0..80,
    )
    .prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

type NodeSpec = (u8, u8, Vec<u32>);

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (0u8..4, 0u8..6, vec(0u32..12, 0..6))
}

fn build_kb(nodes: &[NodeSpec]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for (part, code, feats) in nodes {
        kb.insert(
            format!("P-{part:02}"),
            format!("E{code:03}"),
            FeatureSet::from_unsorted(feats.clone()),
        );
    }
    kb
}

fn query() -> impl Strategy<Value = (u8, Vec<u32>)> {
    (0u8..6, vec(0u32..12, 0..8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_roundtrip_is_identity(ids in sorted_ids()) {
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        let back = decode_sorted(&buf, ids.len()).expect("own encoding decodes");
        prop_assert_eq!(back, ids);
    }

    #[test]
    fn truncated_encoding_errors_never_panics(ids in sorted_ids(), cut_frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        encode_sorted(&ids, &mut buf);
        let cut = (buf.len() as f64 * cut_frac) as usize;
        // a proper prefix cannot contain all `ids.len()` varints: the
        // encoding is exactly one varint per id with no padding
        if cut < buf.len() {
            prop_assert!(decode_sorted(&buf[..cut], ids.len()).is_err());
        }
    }

    #[test]
    fn garbage_decode_errors_never_panics(bytes in vec(any::<u8>(), 0..64), count in 0usize..40) {
        // any outcome is fine except a panic; on success every id must have
        // come from a well-formed varint chain (checked adds reject overflow)
        let _ = decode_sorted(&bytes, count);
        let mut pos = 0usize;
        let _ = read_varint(&bytes, &mut pos);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn arena_lists_match_a_scan_of_the_nodes(nodes in vec(node_spec(), 0..24)) {
        let kb = build_kb(&nodes);
        let idx = SealedIndex::build(&kb);
        prop_assert_eq!(idx.n_nodes(), kb.len());
        let n_features = kb
            .nodes()
            .iter()
            .filter_map(|n| n.features.ids().last())
            .max()
            .map_or(0, |&m| m as usize + 1);
        prop_assert_eq!(idx.postings().n_lists(), n_features);
        for f in 0..n_features as u32 + 2 {
            let scan: Vec<u32> = (0..kb.len() as u32)
                .filter(|&n| kb.nodes()[n as usize].features.contains(f))
                .collect();
            prop_assert_eq!(idx.postings().decode_list(f as usize), scan);
        }
        for (n, node) in kb.nodes().iter().enumerate() {
            prop_assert_eq!(idx.node_len(n as u32), node.features.len());
            prop_assert_eq!(Some(idx.node_part(n as u32)), kb.part_index(&node.part_id));
        }
    }

    #[test]
    fn kernel_touches_exactly_the_candidates(
        nodes in vec(node_spec(), 0..24),
        (part, feats) in query(),
    ) {
        let kb = build_kb(&nodes);
        let idx = SealedIndex::build(&kb);
        let features = FeatureSet::from_unsorted(feats);
        let part = format!("P-{part:02}");
        let mut scratch = ScoreScratch::new();
        idx.accumulate_into(kb.part_index(&part), &features, &mut scratch);
        let mut touched: Vec<usize> = scratch.touched().iter().map(|&n| n as usize).collect();
        touched.sort_unstable();
        for &n in scratch.touched() {
            prop_assert_eq!(
                scratch.count(n) as usize,
                features.intersection_size(&kb.nodes()[n as usize].features)
            );
        }
        if touched.is_empty() && !kb.has_part(&part) {
            // the paper's fallback: an unknown part sharing nothing anywhere
            // selects the whole knowledge base
            touched = (0..kb.len()).collect();
        }
        prop_assert_eq!(touched, kb.candidates(&part, &features));
    }

    #[test]
    fn sealed_rank_matches_rank_naive(
        nodes in vec(node_spec(), 0..24),
        (part, feats) in query(),
        top in 1usize..8,
    ) {
        let kb = build_kb(&nodes);
        let idx = SealedIndex::build(&kb);
        let features = FeatureSet::from_unsorted(feats);
        let part = format!("P-{part:02}");
        for knn in [
            RankedKnn { top_nodes: top, measure: SimilarityMeasure::Jaccard },
            RankedKnn::new(SimilarityMeasure::Jaccard),
        ] {
            let naive = knn.rank_naive(&kb, &part, &features);
            let sealed = knn.rank(&kb, &idx, &part, &features);
            prop_assert_eq!(naive.len(), sealed.len());
            for (l, s) in naive.iter().zip(&sealed) {
                prop_assert_eq!(&l.code, &s.code);
                prop_assert!((l.score - s.score).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn pruned_rank_scores_agree_with_exact(
        nodes in vec(node_spec(), 0..24),
        (part, feats) in query(),
    ) {
        // the pruned path may *miss* codes (that is the recall trade,
        // bounded by tests/lsh_recall.rs) but every code it does emit must
        // carry the score the exact path computed for that code — pruning
        // selects candidates, it never changes arithmetic
        let kb = build_kb(&nodes);
        let idx = SealedIndex::build(&kb);
        let lsh = LshIndex::from_kb(&kb);
        let features = FeatureSet::from_unsorted(feats);
        let part = format!("P-{part:02}");
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let exact = knn.rank(&kb, &idx, &part, &features);
        let pruned = knn.rank_sealed_pruned(&kb, &idx, &lsh, &part, &features);
        for p in &pruned {
            match exact.iter().find(|e| e.code == p.code) {
                Some(e) => prop_assert!(
                    p.score <= e.score + 1e-12,
                    "pruned {}={} beats exact {}", p.code, p.score, e.score
                ),
                // a code that fell off exact's top-25 can only surface in
                // pruned output when pruning dropped higher-scoring nodes;
                // its score still cannot beat exact's cut-off
                None => prop_assert!(
                    exact.len() == knn.top_nodes
                        || exact.iter().all(|e| e.score + 1e-12 >= p.score)
                ),
            }
        }
    }
}
