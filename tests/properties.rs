//! Property-based tests over the core data structures and invariants, using
//! proptest (DESIGN.md deliverable (c)).

use proptest::collection::{hash_set, vec};
use proptest::prelude::*;
use std::collections::BTreeSet;

use quest_qatk::prelude::*;
use quest_qatk::store::row;

// ---------------------------------------------------------------------------
// FeatureSet: behaves exactly like a set of u32
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn feature_set_matches_btreeset_model(a in vec(0u32..500, 0..80), b in vec(0u32..500, 0..80)) {
        let fa = FeatureSet::from_unsorted(a.clone());
        let fb = FeatureSet::from_unsorted(b.clone());
        let ma: BTreeSet<u32> = a.into_iter().collect();
        let mb: BTreeSet<u32> = b.into_iter().collect();
        prop_assert_eq!(fa.len(), ma.len());
        prop_assert_eq!(fa.intersection_size(&fb), ma.intersection(&mb).count());
        prop_assert_eq!(fa.union_size(&fb), ma.union(&mb).count());
        prop_assert_eq!(fa.intersects(&fb), !ma.is_disjoint(&mb));
        for x in ma.iter() {
            prop_assert!(fa.contains(*x));
        }
    }

    #[test]
    fn similarity_axioms(a in vec(0u32..300, 1..60), b in vec(0u32..300, 1..60)) {
        let fa = FeatureSet::from_unsorted(a);
        let fb = FeatureSet::from_unsorted(b);
        for m in SimilarityMeasure::ALL {
            let s_ab = m.score(&fa, &fb);
            let s_ba = m.score(&fb, &fa);
            // bounded, symmetric, self-similarity is 1
            prop_assert!((0.0..=1.0).contains(&s_ab), "{:?} -> {}", m, s_ab);
            prop_assert!((s_ab - s_ba).abs() < 1e-12);
            prop_assert!((m.score(&fa, &fa) - 1.0).abs() < 1e-12);
        }
        // overlap dominates dice dominates jaccard
        let j = SimilarityMeasure::Jaccard.score(&fa, &fb);
        let d = SimilarityMeasure::Dice.score(&fa, &fb);
        let o = SimilarityMeasure::Overlap.score(&fa, &fb);
        prop_assert!(o >= d - 1e-12);
        prop_assert!(d >= j - 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Store: row round-trips through snapshot bytes
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-ZäöüÄÖÜß0-9 .,;-]{0,40}".prop_map(Value::Text),
        vec(any::<u8>(), 0..60).prop_map(Value::Blob),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn database_snapshot_roundtrip(
        texts in vec("[a-zA-Z0-9 ]{0,30}", 1..30),
        blobs in vec(vec(any::<u8>(), 0..20), 1..10),
    ) {
        let mut db = Database::new();
        let schema = SchemaBuilder::new()
            .pk("id", DataType::Int)
            .col("t", DataType::Text)
            .col_null("b", DataType::Blob)
            .build()
            .unwrap();
        db.create_table("x", schema).unwrap();
        for (i, t) in texts.iter().enumerate() {
            let blob: Value = blobs.get(i % blobs.len()).cloned().map(Value::Blob).unwrap_or(Value::Null);
            db.insert("x", row![i as i64, t.clone(), blob]).unwrap();
        }
        let back = Database::from_bytes(&db.to_bytes()).unwrap();
        prop_assert_eq!(back.total_rows(), db.total_rows());
        for i in 0..texts.len() {
            let a = db.get("x", &Value::Int(i as i64)).unwrap().unwrap();
            let b = back.get("x", &Value::Int(i as i64)).unwrap().unwrap();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn value_total_order_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // antisymmetry
        if a.cmp(&b) == Ordering::Less {
            prop_assert_eq!(b.cmp(&a), Ordering::Greater);
        }
        // transitivity
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert!(a.cmp(&c) != Ordering::Greater);
        }
        // equality implies equal hashes
        if a == b {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }
}

// ---------------------------------------------------------------------------
// Trie + annotator: longest match invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_lookup_finds_all_inserted(phrases in hash_set("[a-z]{1,8}( [a-z]{1,8}){0,2}", 1..20)) {
        let mut trie = TokenTrie::new();
        for (i, p) in phrases.iter().enumerate() {
            trie.insert_phrase(p, ConceptId(i as u32));
        }
        for (i, p) in phrases.iter().enumerate() {
            let toks = normalize_phrase(p);
            let refs: Vec<&str> = toks.iter().map(String::as_str).collect();
            let hits = trie.lookup(&refs);
            prop_assert!(hits.contains(&ConceptId(i as u32)), "lost phrase {p}");
        }
    }

    #[test]
    fn longest_match_consumes_maximal_known_prefix(words in vec("[a-z]{1,6}", 1..12)) {
        // insert every prefix of the word sequence as its own concept
        let mut trie = TokenTrie::new();
        for k in 1..=words.len() {
            trie.insert_tokens(&words[..k], ConceptId(k as u32));
        }
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let (len, concepts) = trie.longest_match(&refs, 0).unwrap();
        // the longest prefix must win
        prop_assert_eq!(len, words.len());
        prop_assert!(concepts.contains(&ConceptId(words.len() as u32)));
    }

    #[test]
    fn normalization_is_idempotent(s in "[a-zA-ZäöüÄÖÜß0-9 .,;-]{0,60}") {
        let once = normalize_phrase(&s);
        let again = normalize_phrase(&once.join(" "));
        prop_assert_eq!(once, again);
    }
}

// ---------------------------------------------------------------------------
// Evaluation: stratified folds and accuracy counters
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stratified_folds_cover_all_items(classes in vec(0u32..25, 2..200), seed in any::<u64>()) {
        let folds = stratified_folds(&classes, 5, seed);
        prop_assert_eq!(folds.len(), classes.len());
        prop_assert!(folds.iter().all(|&f| f < 5));
        // per class, fold sizes differ by at most one (round-robin deal)
        for class in 0..25u32 {
            let mut per_fold = [0usize; 5];
            for (i, &f) in folds.iter().enumerate() {
                if classes[i] == class {
                    per_fold[f] += 1;
                }
            }
            let max = per_fold.iter().max().unwrap();
            let min = per_fold.iter().min().unwrap();
            prop_assert!(max - min <= 1, "class {class} unbalanced: {per_fold:?}");
        }
    }

    #[test]
    fn accuracy_counter_matches_naive_model(ranks in vec(proptest::option::of(0usize..40), 1..80)) {
        let mut counter = AccuracyCounter::new(&PAPER_KS);
        for r in &ranks {
            counter.record(*r);
        }
        let acc = counter.accuracies();
        for (i, &k) in PAPER_KS.iter().enumerate() {
            let expected = ranks.iter().filter(|r| r.is_some_and(|x| x < k)).count() as f64
                / ranks.len() as f64;
            prop_assert!((acc[i] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_probabilities_are_a_distribution(n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|k| z.probability(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // monotone non-increasing in rank
        for k in 1..n {
            prop_assert!(z.probability(k) <= z.probability(k - 1) + 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Classifier: ranking invariants under arbitrary knowledge bases
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ranking_is_sorted_deduped_and_bounded(
        nodes in vec((0usize..4, 0usize..12, vec(0u32..60, 1..10)), 1..80),
        query in vec(0u32..60, 1..10),
    ) {
        let mut kb = KnowledgeBase::new();
        for (part, code, feats) in &nodes {
            kb.insert(
                format!("P-{part}"),
                format!("E-{code}"),
                FeatureSet::from_unsorted(feats.clone()),
            );
        }
        let q = FeatureSet::from_unsorted(query);
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let ranked = knn.rank(&kb, &SealedIndex::build(&kb), "P-1", &q);
        // bounded by top_nodes
        prop_assert!(ranked.len() <= knn.top_nodes);
        // sorted by descending score
        for w in ranked.windows(2) {
            prop_assert!(w[0].score >= w[1].score - 1e-12);
        }
        // deduped
        let mut codes: Vec<&str> = ranked.iter().map(|s| s.code.as_str()).collect();
        codes.sort_unstable();
        let n = codes.len();
        codes.dedup();
        prop_assert_eq!(codes.len(), n);
        // every suggested code belongs to the queried part — unless the part
        // is unknown to the KB, where candidate selection intentionally
        // falls back across all parts (paper Fig. 5)
        if kb.has_part("P-1") {
            for s in &ranked {
                prop_assert!(kb.codes_for_part("P-1").contains(&s.code.as_str()));
            }
        }
    }
}
