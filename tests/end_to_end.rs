//! Cross-crate integration: the full QUEST/QATK path from corpus generation
//! through relational persistence, pipeline processing, knowledge-base
//! training, recommendation, assignment and snapshot durability.

use quest_qatk::prelude::*;

fn corpus() -> Corpus {
    Corpus::generate(CorpusConfig::small(99))
}

#[test]
fn corpus_survives_relational_persistence_and_classifies() {
    let c = corpus();
    // persist raw data relationally, then snapshot to bytes and back
    let mut db = Database::new();
    save_corpus(&c, &mut db).unwrap();
    let db2 = Database::from_bytes(&db.to_bytes()).unwrap();
    let bundles = load_bundles(&db2).unwrap();
    assert_eq!(bundles.len(), c.bundles.len());

    // train from the reloaded bundles via the core pipeline primitives
    let pipeline = build_pipeline(&c, FeatureModel::BagOfConcepts);
    let mut space = FeatureSpace::new();
    let mut kb = KnowledgeBase::new();
    for b in &bundles {
        let mut cas = b.to_cas(SourceSelection::Training);
        pipeline.process(&mut cas).unwrap();
        let f = space.extract(&cas, FeatureModel::BagOfConcepts);
        kb.insert(b.part_id.clone(), b.error_code.clone().unwrap(), f);
    }
    assert!(!kb.is_empty());
    assert!(kb.len() <= bundles.len());

    // the knowledge base itself persists relationally too (paper §4.4 3b)
    let mut kdb = Database::new();
    kb.save_to_db(&mut kdb).unwrap();
    let kb2 = KnowledgeBase::load_from_db(&kdb).unwrap();
    assert_eq!(kb2.len(), kb.len());

    // classify one bundle with the reloaded KB, sealed into its index
    let idx = SealedIndex::build(&kb2);
    let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
    let b = &bundles[0];
    let mut cas = b.to_cas(SourceSelection::Test);
    pipeline.process(&mut cas).unwrap();
    let f = space.extract(&cas, FeatureModel::BagOfConcepts);
    let ranked = knn.rank(&kb2, &idx, &b.part_id, &f);
    assert!(!ranked.is_empty());
}

#[test]
fn service_workflow_assignment_roundtrip() {
    let c = corpus();
    let mut users = UserRegistry::new();
    users.add("anna", Role::QualityExpert).unwrap();

    let svc =
        RecommendationService::train(&c, FeatureModel::BagOfConcepts, SimilarityMeasure::Jaccard);
    let mut db = Database::new();

    // drive the Fig. 2 workflow for one incoming part
    let incoming = c.bundles[5].clone();
    let mut case = EvaluationCase::register("R-IT-1", incoming.part_id.clone(), "system");
    case.add_mechanic_report("shop", &incoming.mechanic_report)
        .unwrap();
    case.add_supplier_report("sup", &incoming.supplier_report, "RC-1")
        .unwrap();

    let suggestions = svc.suggest(&incoming);
    assert!(!suggestions.top.is_empty());
    svc.persist_suggestions(&mut db, &suggestions).unwrap();
    let chosen = suggestions.top[0].code.clone();
    svc.assign(&mut db, &users, "anna", &incoming, &chosen)
        .unwrap();
    case.finalize("anna", &chosen, "done").unwrap();
    assert_eq!(case.stage(), Stage::Finalized);

    // the whole state snapshot (recommendations + assignment) round-trips
    let db2 = Database::from_bytes(&db.to_bytes()).unwrap();
    assert_eq!(
        db2.table(quest::service::tables::ASSIGNMENTS)
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        db2.table(quest::service::tables::RECOMMENDATIONS)
            .unwrap()
            .len(),
        suggestions.top.len()
    );
}

#[test]
fn taxonomy_xml_file_roundtrip_feeds_annotator() {
    let c = corpus();
    let tax = &c.taxonomy.taxonomy;
    // write the taxonomy to its XML format on disk, re-read, and use it
    let dir = std::env::temp_dir().join("quest_qatk_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("taxonomy.xml");
    std::fs::write(&path, write_taxonomy(tax)).unwrap();
    let xml = std::fs::read_to_string(&path).unwrap();
    let reloaded = parse_taxonomy(&xml).unwrap();
    assert_eq!(&reloaded, tax);

    let annotator = ConceptAnnotator::new(&reloaded);
    let mut cas = c.bundles[0].to_cas(SourceSelection::Training);
    WhitespaceTokenizer::new().process(&mut cas).unwrap();
    annotator.process(&mut cas).unwrap();
    assert!(cas.concept_mentions().count() > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn nhtsa_comparison_produces_renderable_report() {
    let c = corpus();
    let complaints = generate_complaints(
        &c,
        &NhtsaConfig {
            n_complaints: 150,
            ..NhtsaConfig::default()
        },
    );
    let svc =
        RecommendationService::train(&c, FeatureModel::BagOfConcepts, SimilarityMeasure::Jaccard);
    let internal = c.bundles.iter().filter_map(|b| b.error_code.clone());
    let report = compare_with_complaints(&svc, internal, &complaints, 3);
    let text = report.render();
    assert!(text.contains("Other"));
    assert!(report.left.total > 0 && report.right.total > 0);
}

#[test]
fn facade_prelude_is_coherent() {
    // every major type is reachable from the single prelude
    let _c: CorpusConfig = CorpusConfig::small(1);
    let _m: FeatureModel = FeatureModel::BagOfConcepts;
    let _s: SimilarityMeasure = SimilarityMeasure::Jaccard;
    let _k = KnowledgeBase::new();
    let _d = Database::new();
    let _u = UserRegistry::new();
    let _t = TokenTrie::new();
}
