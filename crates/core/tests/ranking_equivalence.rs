//! Differential suite: the score-accumulation kernel behind
//! [`RankedKnn::rank`], walking the sealed posting arena of a
//! [`SealedIndex`], must be indistinguishable from the original
//! per-candidate set-intersection path, kept alive as
//! [`RankedKnn::rank_naive`] exactly to serve as the oracle here (it scans
//! the knowledge base's nodes and reads no index).
//!
//! Every property below generates a random knowledge base and query, runs
//! both paths, and requires the *same codes in the same order* with scores
//! within 1e-12 (they are in fact computed with identical f64 operations,
//! so they agree bit-for-bit — the tolerance is the spec, the equality is
//! the implementation). Known and unknown part IDs, empty feature sets and
//! tiny `top_nodes` cut-offs are all inside the generated space.

use proptest::collection::vec;
use proptest::prelude::*;
use qatk_core::prelude::*;

/// Specification of one knowledge node, in small discrete spaces so that
/// part collisions, code collisions, duplicate configurations and score ties
/// all occur constantly.
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

/// Query parts range over 0..6 while knowledge parts range over 0..4, so
/// roughly a third of the queries hit the unknown-part fallback path.
fn query() -> impl Strategy<Value = (u8, Vec<u32>)> {
    (0u8..6, vec(0u32..12, 0..8))
}

fn assert_equivalent(knn: &RankedKnn, kb: &KnowledgeBase, part: &str, features: &FeatureSet) {
    let fast = knn.rank(kb, &SealedIndex::build(kb), part, features);
    let naive = knn.rank_naive(kb, part, features);
    assert_eq!(
        fast.len(),
        naive.len(),
        "{:?} part={part} top_nodes={}: length mismatch\n fast={fast:?}\nnaive={naive:?}",
        knn.measure,
        knn.top_nodes,
    );
    for (i, (f, n)) in fast.iter().zip(&naive).enumerate() {
        assert_eq!(
            f.code, n.code,
            "{:?} part={part} rank {i}: code mismatch\n fast={fast:?}\nnaive={naive:?}",
            knn.measure,
        );
        assert!(
            (f.score - n.score).abs() <= 1e-12,
            "{:?} part={part} rank {i}: score drift {} vs {}",
            knn.measure,
            f.score,
            n.score,
        );
    }
}

fn check_measure(
    measure: SimilarityMeasure,
    nodes: &[NodeSpec],
    part: u8,
    features: &[u32],
    top_nodes: usize,
) {
    let kb = build_kb(nodes);
    let features = FeatureSet::from_unsorted(features.to_vec());
    let part = format!("P-{part:02}");
    let knn = RankedKnn { top_nodes, measure };
    assert_equivalent(&knn, &kb, &part, &features);
    // the paper's cut-off as used in production
    let knn25 = RankedKnn::new(measure);
    assert_equivalent(&knn25, &kb, &part, &features);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn jaccard_kernel_matches_naive(
        nodes in vec(node_spec(), 0..24),
        (part, feats) in query(),
        top in 1usize..8,
    ) {
        check_measure(SimilarityMeasure::Jaccard, &nodes, part, &feats, top);
    }

    #[test]
    fn overlap_kernel_matches_naive(
        nodes in vec(node_spec(), 0..24),
        (part, feats) in query(),
        top in 1usize..8,
    ) {
        check_measure(SimilarityMeasure::Overlap, &nodes, part, &feats, top);
    }

    #[test]
    fn dice_kernel_matches_naive(
        nodes in vec(node_spec(), 0..24),
        (part, feats) in query(),
        top in 1usize..8,
    ) {
        check_measure(SimilarityMeasure::Dice, &nodes, part, &feats, top);
    }

    #[test]
    fn cosine_kernel_matches_naive(
        nodes in vec(node_spec(), 0..24),
        (part, feats) in query(),
        top in 1usize..8,
    ) {
        check_measure(SimilarityMeasure::Cosine, &nodes, part, &feats, top);
    }

    /// The parallel batch path must agree with the oracle for every query,
    /// whatever the worker count (including workers > queries and the
    /// sequential single-thread special case).
    #[test]
    fn classify_batch_matches_sequential(
        nodes in vec(node_spec(), 0..24),
        queries in vec(query(), 0..12),
        threads in 1usize..6,
    ) {
        let kb = build_kb(&nodes);
        let idx = SealedIndex::build(&kb);
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let parts: Vec<String> = queries.iter().map(|(p, _)| format!("P-{p:02}")).collect();
        let feats: Vec<FeatureSet> = queries
            .iter()
            .map(|(_, f)| FeatureSet::from_unsorted(f.clone()))
            .collect();
        let batch: Vec<BatchQuery<'_>> = parts
            .iter()
            .zip(&feats)
            .map(|(p, f)| BatchQuery { part_id: p, features: f })
            .collect();
        let got = knn.classify_batch_with_threads(&kb, &idx, &batch, threads);
        prop_assert_eq!(got.len(), batch.len());
        for (q, ranked) in batch.iter().zip(&got) {
            let expected = knn.rank_naive(&kb, q.part_id, q.features);
            prop_assert_eq!(ranked, &expected);
        }
    }
}

/// Deterministic corner cases the random generator could in principle miss.
#[test]
fn kernel_matches_naive_on_edge_cases() {
    let fs = |ids: &[u32]| FeatureSet::from_unsorted(ids.to_vec());
    let mut kb = KnowledgeBase::new();
    kb.insert("P-00", "E000", fs(&[1, 2, 3]));
    kb.insert("P-00", "E001", fs(&[1, 2, 3, 4]));
    kb.insert("P-01", "E000", fs(&[]));
    kb.insert("P-01", "E002", fs(&[9]));

    for measure in SimilarityMeasure::ALL {
        for top in [0usize, 1, 2, 25] {
            let knn = RankedKnn {
                top_nodes: top,
                measure,
            };
            // empty query, known and unknown parts
            assert_equivalent(&knn, &kb, "P-00", &fs(&[]));
            assert_equivalent(&knn, &kb, "P-??", &fs(&[]));
            // known part, zero overlap
            assert_equivalent(&knn, &kb, "P-00", &fs(&[42]));
            // unknown part, zero overlap → whole-KB fallback
            assert_equivalent(&knn, &kb, "P-??", &fs(&[42]));
            // plain overlapping queries
            assert_equivalent(&knn, &kb, "P-00", &fs(&[1, 2]));
            assert_equivalent(&knn, &kb, "P-??", &fs(&[1, 9]));
            // empty knowledge base
            assert_equivalent(&knn, &KnowledgeBase::new(), "P-00", &fs(&[1]));
        }
    }
}
