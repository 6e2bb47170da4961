//! End-to-end experiment orchestration.
//!
//! This module wires the whole QATK pipeline of paper Fig. 8 together: data
//! bundles → CAS → tokenizer (→ concept annotator) → feature extraction →
//! knowledge-base construction (training) → candidate selection → ranked
//! kNN classification (test), evaluated under stratified cross-validation
//! with per-bundle timing, alongside the two §5.1 baselines. Folds run on
//! scoped threads — each fold owns its feature space and knowledge base, so
//! no cross-fold state leaks.

use std::time::Instant;

use qatk_corpus::bundle::{DataBundle, SourceSelection};
use qatk_corpus::generator::Corpus;
use qatk_text::concept_annotator::ConceptAnnotator;
use qatk_text::engine::Pipeline;
use qatk_text::langdetect::LanguageDetector;
use qatk_text::stemmer::StemAnnotator;
use qatk_text::tokenizer::WhitespaceTokenizer;

use crate::baselines::{CandidateSetBaseline, CodeFrequencyBaseline};
use crate::classifier::BatchQuery;
use crate::eval::{stratified_folds, AccuracyCounter, F1Counter, PAPER_KS};
use crate::features::{FeatureModel, FeatureSet, FeatureSpace};
use crate::interner::Interner;
use crate::knowledge::KnowledgeBase;
use crate::segment::SealedIndex;
use crate::similarity::SimilarityMeasure;
use crate::zoo::{Classifier, ClassifierFamily, RankerConfig};

/// Configuration of one experiment variant.
#[derive(Debug, Clone)]
pub struct ClassifierConfig {
    pub model: FeatureModel,
    /// Classifier family under evaluation (paper: ranked kNN).
    pub classifier: ClassifierFamily,
    pub measure: SimilarityMeasure,
    /// Text sources used at *test* time (training always uses everything).
    pub test_selection: SourceSelection,
    /// Best-scored nodes contributing codes (paper: 25).
    pub top_nodes: usize,
    /// Accuracy cut-offs.
    pub ks: Vec<usize>,
    /// Cross-validation folds (paper: 5).
    pub folds: usize,
    pub seed: u64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            model: FeatureModel::BagOfConcepts,
            classifier: ClassifierFamily::Knn,
            measure: SimilarityMeasure::Jaccard,
            test_selection: SourceSelection::Test,
            top_nodes: 25,
            ks: PAPER_KS.to_vec(),
            folds: 5,
            seed: 0x5EED,
        }
    }
}

impl ClassifierConfig {
    /// Short label like `bag-of-concepts+jaccard`, matching figure legends.
    /// Non-kNN families (whose scoring rules don't involve the similarity
    /// measure) are labeled by family, e.g. `bag-of-words+naive-bayes`.
    pub fn label(&self) -> String {
        match self.classifier {
            ClassifierFamily::Knn => {
                format!("{}+{}", self.model.label(), self.measure.label())
            }
            family => format!("{}+{}", self.model.label(), family.label()),
        }
    }

    /// The ranker configuration this experiment trains per fold.
    pub fn ranker(&self) -> RankerConfig {
        RankerConfig {
            family: self.classifier,
            measure: self.measure,
            top_nodes: self.top_nodes,
        }
    }
}

/// One accuracy curve.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyCurve {
    pub label: String,
    pub ks: Vec<usize>,
    pub accuracy: Vec<f64>,
}

impl AccuracyCurve {
    fn from_counter(label: impl Into<String>, counter: &AccuracyCounter) -> Self {
        AccuracyCurve {
            label: label.into(),
            ks: counter.ks().to_vec(),
            accuracy: counter.accuracies(),
        }
    }

    /// Accuracy at a given k.
    pub fn at(&self, k: usize) -> Option<f64> {
        self.ks
            .iter()
            .position(|&x| x == k)
            .map(|i| self.accuracy[i])
    }
}

/// Full output of one experiment run: the classifier curve plus both
/// baselines, with timing.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub config_label: String,
    pub classifier: AccuracyCurve,
    pub code_frequency: AccuracyCurve,
    pub candidate_set: AccuracyCurve,
    /// Wall-clock seconds per fold (test phase).
    pub fold_seconds: Vec<f64>,
    /// Mean per-bundle classification latency in seconds.
    pub seconds_per_bundle: f64,
    /// Total test bundles classified across folds.
    pub total_tested: usize,
    /// Mean knowledge-base size across folds.
    pub mean_kb_nodes: f64,
    /// Mean feature count of test bundles (the paper's ≈70 words / ≈26
    /// concepts statistic).
    pub mean_features_per_bundle: f64,
    /// Per-part-ID accuracy breakdown: (part id, curve, test bundles). The
    /// paper's data is heavily skewed across its 31 part IDs, so aggregate
    /// accuracy can hide weak part types; this surfaces them.
    pub per_part: Vec<(String, AccuracyCurve, usize)>,
    /// Per-item outcome: (index into `corpus.evaluable_bundles()`, 0-based
    /// rank of the true code in the recommendation list). Sorted by index;
    /// aligns across variants run on the same corpus+seed, enabling paired
    /// significance tests ([`crate::bootstrap`]).
    pub ranks: Vec<(usize, Option<usize>)>,
    /// Micro-averaged F1 of the classifier's top-1 predictions across folds.
    pub micro_f1: f64,
    /// Macro-averaged F1 of the classifier's top-1 predictions across folds.
    pub macro_f1: f64,
}

/// Build the text-analysis pipeline for a feature model (paper Fig. 8; the
/// domain-ignorant variant "eliminates the concept annotation step").
pub fn build_pipeline(corpus: &Corpus, model: FeatureModel) -> Pipeline {
    let builder = Pipeline::builder()
        .add(WhitespaceTokenizer::new())
        .add(LanguageDetector::new());
    match model {
        FeatureModel::BagOfConcepts => builder
            .add(ConceptAnnotator::new(&corpus.taxonomy.taxonomy))
            .build(),
        FeatureModel::BagOfStems => builder.add(StemAnnotator::new()).build(),
        // char n-grams need neither stemming nor the taxonomy — tokens alone
        FeatureModel::BagOfWords
        | FeatureModel::BagOfWordsNoStop
        | FeatureModel::CharNgrams { .. } => builder.build(),
    }
}

/// Outcome of one fold.
struct FoldOutcome {
    knn: AccuracyCounter,
    f1: F1Counter,
    freq: AccuracyCounter,
    cand: AccuracyCounter,
    /// Per-part accuracy, indexed by the experiment-wide dense part id —
    /// no per-bundle `String` clones or hash lookups on the accounting path.
    per_part: Vec<AccuracyCounter>,
    ranks: Vec<(usize, Option<usize>)>,
    seconds: f64,
    tested: usize,
    kb_nodes: usize,
    feature_sum: usize,
}

fn run_fold(
    bundles: &[&DataBundle],
    fold_of: &[usize],
    fold: usize,
    pipeline: &Pipeline,
    parts: &Interner,
    config: &ClassifierConfig,
) -> FoldOutcome {
    let mut space = FeatureSpace::new();
    let mut kb = KnowledgeBase::new();

    // --- training phase ---------------------------------------------------
    let mut train_pairs: Vec<(&str, &str)> = Vec::new();
    for (i, b) in bundles.iter().enumerate() {
        if fold_of[i] == fold {
            continue;
        }
        let mut cas = b.to_cas(SourceSelection::Training);
        pipeline
            .process(&mut cas)
            .expect("pipeline never fails on corpus text");
        let features = space.extract(&cas, config.model);
        let code = b.error_code.as_deref().expect("training bundles are coded");
        kb.insert(b.part_id.clone(), code, features);
        train_pairs.push((b.part_id.as_str(), code));
    }
    let freq_baseline = CodeFrequencyBaseline::train(train_pairs);
    // the fold's ranker: kNN reproduces the paper kernel bit-for-bit over
    // the fold's sealed index, the other zoo families train an eager model
    // over the fold's knowledge base
    let index = SealedIndex::build(&kb);
    let ranker = config.ranker().train(&kb);

    // --- test phase ---------------------------------------------------------
    let mut knn_acc = AccuracyCounter::new(&config.ks);
    let mut f1 = F1Counter::default();
    let mut freq_acc = AccuracyCounter::new(&config.ks);
    let mut cand_acc = AccuracyCounter::new(&config.ks);
    let mut per_part = vec![AccuracyCounter::new(&config.ks); parts.len()];
    let mut ranks: Vec<(usize, Option<usize>)> = Vec::new();
    let mut feature_sum = 0usize;
    let start = Instant::now();

    // extract the test bundles' features, then classify the whole fold as
    // one parallel batch (per-thread scratch state inside classify_batch)
    let mut test_set: Vec<(usize, &DataBundle, FeatureSet)> = Vec::new();
    for (i, b) in bundles.iter().enumerate() {
        if fold_of[i] != fold {
            continue;
        }
        let mut cas = b.to_cas(config.test_selection);
        pipeline
            .process(&mut cas)
            .expect("pipeline never fails on corpus text");
        let features = space.extract(&cas, config.model);
        feature_sum += features.len();
        test_set.push((i, b, features));
    }
    let queries: Vec<BatchQuery<'_>> = test_set
        .iter()
        .map(|(_, b, features)| BatchQuery {
            part_id: &b.part_id,
            features,
        })
        .collect();
    let rankings = ranker.rank_batch(&kb, Some(&index), &queries);

    let tested = test_set.len();
    for ((i, b, features), ranked) in test_set.iter().zip(&rankings) {
        let truth = b.error_code.as_deref().expect("test bundles are coded");
        let rank_of_truth = ranked.iter().position(|s| s.code == truth);
        knn_acc.record(rank_of_truth);
        f1.record(truth, ranked.first().map(|s| s.code.as_str()));
        ranks.push((*i, rank_of_truth));
        let part = parts
            .get(&b.part_id)
            .expect("every bundle part is interned");
        per_part[part as usize].record(rank_of_truth);

        let freq_rank = freq_baseline.rank(&b.part_id);
        freq_acc.record(freq_rank.iter().position(|c| c == truth));

        let cand_rank = CandidateSetBaseline.rank(&kb, &b.part_id, features);
        cand_acc.record(cand_rank.iter().position(|c| c == truth));
    }
    FoldOutcome {
        knn: knn_acc,
        f1,
        freq: freq_acc,
        cand: cand_acc,
        per_part,
        ranks,
        seconds: start.elapsed().as_secs_f64(),
        tested,
        kb_nodes: kb.len(),
        feature_sum,
    }
}

/// Run one experiment variant under stratified cross-validation.
///
/// Folds execute in parallel on scoped threads; results are merged in fold
/// order so the output is deterministic for a given corpus and config.
pub fn run_experiment(corpus: &Corpus, config: &ClassifierConfig) -> ExperimentResult {
    let bundles = corpus.evaluable_bundles();
    assert!(
        !bundles.is_empty(),
        "corpus has no evaluable (multi-occurrence) bundles"
    );
    let codes: Vec<&str> = bundles
        .iter()
        .map(|b| b.error_code.as_deref().expect("coded"))
        .collect();
    let fold_of = stratified_folds(&codes, config.folds, config.seed);
    let pipeline = build_pipeline(corpus, config.model);
    // experiment-wide dense part ids: interned once here, shared read-only by
    // every fold, so per-part accounting indexes a Vec instead of cloning
    // part-id strings into per-fold hash maps
    let mut part_interner = Interner::new();
    for b in &bundles {
        part_interner.intern(&b.part_id);
    }
    let parts = &part_interner;

    let mut outcomes: Vec<Option<FoldOutcome>> = (0..config.folds).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for fold in 0..config.folds {
            let bundles = &bundles;
            let fold_of = &fold_of;
            let pipeline = &pipeline;
            handles.push((
                fold,
                s.spawn(move || run_fold(bundles, fold_of, fold, pipeline, parts, config)),
            ));
        }
        for (fold, h) in handles {
            outcomes[fold] = Some(h.join().expect("fold thread panicked"));
        }
    });

    let outcomes: Vec<FoldOutcome> = outcomes.into_iter().map(Option::unwrap).collect();
    let mut knn = AccuracyCounter::new(&config.ks);
    let mut f1 = F1Counter::default();
    let mut freq = AccuracyCounter::new(&config.ks);
    let mut cand = AccuracyCounter::new(&config.ks);
    let mut fold_seconds = Vec::with_capacity(outcomes.len());
    let mut tested = 0usize;
    let mut kb_nodes = 0usize;
    let mut feature_sum = 0usize;
    let mut per_part_acc = vec![AccuracyCounter::new(&config.ks); parts.len()];
    let mut ranks: Vec<(usize, Option<usize>)> = Vec::new();
    for o in &outcomes {
        ranks.extend_from_slice(&o.ranks);
        knn.merge(&o.knn);
        f1.merge(&o.f1);
        freq.merge(&o.freq);
        cand.merge(&o.cand);
        for (acc, counter) in per_part_acc.iter_mut().zip(&o.per_part) {
            acc.merge(counter);
        }
        fold_seconds.push(o.seconds);
        tested += o.tested;
        kb_nodes += o.kb_nodes;
        feature_sum += o.feature_sum;
    }
    let mut per_part: Vec<(String, AccuracyCurve, usize)> = per_part_acc
        .into_iter()
        .enumerate()
        .filter(|(_, counter)| counter.total() > 0)
        .map(|(id, counter)| {
            let part = parts.resolve(id as u32).expect("dense id").to_owned();
            let total = counter.total();
            (
                part.clone(),
                AccuracyCurve::from_counter(part, &counter),
                total,
            )
        })
        .collect();
    per_part.sort_by(|a, b| a.0.cmp(&b.0));
    ranks.sort_unstable_by_key(|&(i, _)| i);
    let total_seconds: f64 = fold_seconds.iter().sum();
    ExperimentResult {
        config_label: config.label(),
        classifier: AccuracyCurve::from_counter(config.label(), &knn),
        code_frequency: AccuracyCurve::from_counter("code-frequency-baseline", &freq),
        candidate_set: AccuracyCurve::from_counter(
            format!("candidate-set-baseline ({})", config.model.label()),
            &cand,
        ),
        fold_seconds,
        seconds_per_bundle: if tested == 0 {
            0.0
        } else {
            total_seconds / tested as f64
        },
        total_tested: tested,
        mean_kb_nodes: kb_nodes as f64 / outcomes.len() as f64,
        mean_features_per_bundle: if tested == 0 {
            0.0
        } else {
            feature_sum as f64 / tested as f64
        },
        per_part,
        ranks,
        micro_f1: f1.micro_f1(),
        macro_f1: f1.macro_f1(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qatk_corpus::generator::CorpusConfig;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::small(21))
    }

    fn config(model: FeatureModel) -> ClassifierConfig {
        ClassifierConfig {
            model,
            folds: 3,
            ..ClassifierConfig::default()
        }
    }

    #[test]
    fn experiment_runs_and_reports() {
        let c = corpus();
        let r = run_experiment(&c, &config(FeatureModel::BagOfConcepts));
        assert_eq!(r.classifier.ks, PAPER_KS.to_vec());
        assert_eq!(r.fold_seconds.len(), 3);
        assert!(r.total_tested > 0);
        assert!(r.mean_kb_nodes > 0.0);
        assert!(r.seconds_per_bundle >= 0.0);
        // accuracies are monotone in k
        for w in r.classifier.accuracy.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn classifier_beats_candidate_baseline_at_small_k() {
        let c = corpus();
        let r = run_experiment(&c, &config(FeatureModel::BagOfWords));
        let a1 = r.classifier.at(1).unwrap();
        let c1 = r.candidate_set.at(1).unwrap();
        assert!(
            a1 > c1,
            "classifier@1 {a1:.3} should beat candidate baseline@1 {c1:.3}"
        );
    }

    #[test]
    fn both_models_reach_high_accuracy_at_25() {
        // The BoW > BoC ordering of Fig. 11 is a *scale* effect (codes
        // collide on concepts only when pools are large); it is asserted by
        // the full-scale fig11 harness and recorded in EXPERIMENTS.md. At
        // test scale we check both models classify well and beat the
        // unsorted candidate baseline.
        let c = corpus();
        for model in [FeatureModel::BagOfWords, FeatureModel::BagOfConcepts] {
            let r = run_experiment(&c, &config(model));
            let a25 = r.classifier.at(25).unwrap();
            assert!(a25 > 0.8, "{model:?}@25 = {a25:.3}");
            assert!(
                r.classifier.at(1).unwrap() > r.candidate_set.at(1).unwrap(),
                "{model:?} should beat the unsorted candidate baseline @1"
            );
        }
    }

    #[test]
    fn mechanic_only_is_much_worse_than_full_test() {
        // needs a slightly bigger corpus than the other tests: at 600
        // bundles the class pools are small enough that sampling noise can
        // mask the mechanic-report information gap
        let c = Corpus::generate(qatk_corpus::generator::CorpusConfig {
            n_bundles: 1500,
            pool_scale: 0.2,
            ..qatk_corpus::generator::CorpusConfig::default()
        });
        let full = run_experiment(&c, &config(FeatureModel::BagOfWords));
        let mech = run_experiment(
            &c,
            &ClassifierConfig {
                test_selection: SourceSelection::MechanicOnly,
                ..config(FeatureModel::BagOfWords)
            },
        );
        assert!(
            mech.classifier.at(1).unwrap() + 0.1 < full.classifier.at(1).unwrap(),
            "mechanic-only @1 ({:.3}) should be well below full-test @1 ({:.3})",
            mech.classifier.at(1).unwrap(),
            full.classifier.at(1).unwrap()
        );
    }

    #[test]
    fn deterministic_runs() {
        let c = corpus();
        let a = run_experiment(&c, &config(FeatureModel::BagOfConcepts));
        let b = run_experiment(&c, &config(FeatureModel::BagOfConcepts));
        assert_eq!(a.classifier.accuracy, b.classifier.accuracy);
        assert_eq!(a.code_frequency.accuracy, b.code_frequency.accuracy);
    }

    #[test]
    fn per_part_breakdown_consistent() {
        let c = corpus();
        let r = run_experiment(&c, &config(FeatureModel::BagOfConcepts));
        assert!(!r.per_part.is_empty());
        let total: usize = r.per_part.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, r.total_tested);
        // parts are sorted and unique
        for w in r.per_part.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // each part curve is monotone
        for (_, curve, _) in &r.per_part {
            for w in curve.accuracy.windows(2) {
                assert!(w[1] >= w[0] - 1e-12);
            }
        }
    }

    #[test]
    fn labels_and_curves() {
        let cfg = config(FeatureModel::BagOfConcepts);
        assert_eq!(cfg.label(), "bag-of-concepts+jaccard");
        let c = corpus();
        let r = run_experiment(&c, &cfg);
        assert!(r.candidate_set.label.contains("bag-of-concepts"));
        assert_eq!(r.classifier.at(99), None);
    }
}
