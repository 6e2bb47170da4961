//! End-to-end per-bundle classification latency — the measurement behind the
//! paper's §5.2.2 industrial-feasibility argument (bag-of-words ≈ 0.5
//! s/bundle vs bag-of-concepts ≈ 0.14 s/bundle on their testbed; the *ratio*
//! is the reproduction target).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use qatk_core::prelude::*;
use qatk_corpus::bundle::SourceSelection;
use qatk_corpus::generator::{Corpus, CorpusConfig};

fn bench_classify(c: &mut Criterion) {
    let corpus = Corpus::generate(CorpusConfig {
        n_bundles: 2000,
        pool_scale: 0.3,
        ..CorpusConfig::default()
    });

    let mut group = c.benchmark_group("classify-bundle");
    group.sample_size(20);
    for model in [
        FeatureModel::BagOfWords,
        FeatureModel::BagOfWordsNoStop,
        FeatureModel::BagOfConcepts,
    ] {
        // train once per model
        let pipeline = build_pipeline(&corpus, model);
        let mut space = FeatureSpace::new();
        let mut kb = KnowledgeBase::new();
        for b in &corpus.bundles {
            let mut cas = b.to_cas(SourceSelection::Training);
            pipeline.process(&mut cas).unwrap();
            let f = space.extract(&cas, model);
            kb.insert(b.part_id.clone(), b.error_code.clone().unwrap(), f);
        }
        let idx = SealedIndex::build(&kb);
        let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
        let test: Vec<_> = corpus.bundles.iter().take(25).collect();
        group.bench_with_input(
            BenchmarkId::new(model.label(), "25-bundles"),
            &test,
            |bench, test| {
                bench.iter(|| {
                    for b in test.iter() {
                        let mut cas = b.to_cas(SourceSelection::Test);
                        pipeline.process(&mut cas).unwrap();
                        let f = space.extract(&cas, model);
                        black_box(knn.rank(&kb, &idx, &b.part_id, &f).len());
                    }
                })
            },
        );
    }
    group.finish();
}

/// The sealed posting-arena kernel against the per-candidate
/// re-intersection path it replaced, and the parallel batch API against a
/// sequential loop — text processing factored out so only ranking is timed.
fn bench_rank_paths(c: &mut Criterion) {
    let corpus = Corpus::generate(CorpusConfig {
        n_bundles: 2000,
        pool_scale: 0.3,
        ..CorpusConfig::default()
    });
    let model = FeatureModel::BagOfWords;
    let pipeline = build_pipeline(&corpus, model);
    let mut space = FeatureSpace::new();
    let mut kb = KnowledgeBase::new();
    for b in &corpus.bundles {
        let mut cas = b.to_cas(SourceSelection::Training);
        pipeline.process(&mut cas).unwrap();
        let f = space.extract(&cas, model);
        kb.insert(b.part_id.clone(), b.error_code.clone().unwrap(), f);
    }
    let idx = SealedIndex::build(&kb);
    let knn = RankedKnn::new(SimilarityMeasure::Jaccard);
    let test: Vec<(String, FeatureSet)> = corpus
        .bundles
        .iter()
        .take(100)
        .map(|b| {
            let mut cas = b.to_cas(SourceSelection::Test);
            pipeline.process(&mut cas).unwrap();
            (b.part_id.clone(), space.extract(&cas, model))
        })
        .collect();
    let queries: Vec<BatchQuery<'_>> = test
        .iter()
        .map(|(p, f)| BatchQuery {
            part_id: p,
            features: f,
        })
        .collect();

    let mut group = c.benchmark_group("rank-paths");
    group.sample_size(20);
    group.bench_function("kernel", |b| {
        b.iter(|| {
            let mut scratch = ScoreScratch::new();
            for q in &queries {
                black_box(
                    knn.rank_with(&kb, &idx, q.part_id, q.features, &mut scratch)
                        .len(),
                );
            }
        })
    });
    group.bench_function("naive", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(knn.rank_naive(&kb, q.part_id, q.features).len());
            }
        })
    });
    group.bench_function("batch-parallel", |b| {
        b.iter(|| black_box(knn.classify_batch(&kb, &idx, &queries).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_classify, bench_rank_paths);
criterion_main!(benches);
