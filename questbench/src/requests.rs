//! The seeded request set, the answer oracle, and the response scanner.
//!
//! The corpus is always the paper-scale one (7 500 bundles, the generator's
//! default seed). `--seed` picks which bundles are held out and the order
//! they are requested in; the knowledge base is trained on the rest.

use qatk_core::prelude::*;
use qatk_corpus::prelude::*;
use qatk_obs::json::escape;

/// Held-out bundles per run: one in five, a fold of a 5-fold
/// cross-validation. Enough that `hit_at_10` varies by ~1% between seeds.
pub const HELD_OUT: usize = 1500;

/// Codes a `/suggest` answer carries (the service's top-10 cut).
pub const TOP: usize = quest::TOP_SUGGESTIONS;

/// FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Extend an FNV-1a hash with `bytes`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// splitmix64: a small, well-mixed generator for seeded permutations.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The held-out request set of one seed.
pub struct RequestSet {
    /// `/suggest` bodies: mechanic, supplier and part text of a bundle.
    pub bodies: Vec<String>,
    /// `/learn` bodies: the same fields plus the bundle's true code.
    pub learn_bodies: Vec<String>,
    /// The bundle the server builds from each body (what the oracle and the
    /// in-process layer calls see).
    pub wire: Vec<DataBundle>,
    /// Each bundle's true error code.
    pub truth: Vec<String>,
    /// Order in which learns take the bundles.
    pub learn_order: Vec<usize>,
}

/// Split the corpus by `seed` into a training corpus and the request set.
pub fn split(corpus: &Corpus, seed: u64) -> (Corpus, RequestSet) {
    let mut rng = SplitMix::new(seed);
    let mut idx: Vec<usize> = (0..corpus.bundles.len()).collect();
    rng.shuffle(&mut idx);
    let (held, rest) = idx.split_at(HELD_OUT);
    let mut rest = rest.to_vec();
    rest.sort_unstable();
    let train = Corpus {
        bundles: rest.iter().map(|&i| corpus.bundles[i].clone()).collect(),
        ..corpus.clone()
    };
    let mut set = RequestSet {
        bodies: Vec::with_capacity(HELD_OUT),
        learn_bodies: Vec::with_capacity(HELD_OUT),
        wire: Vec::with_capacity(HELD_OUT),
        truth: Vec::with_capacity(HELD_OUT),
        learn_order: (0..HELD_OUT).collect(),
    };
    for &i in held {
        let b = &corpus.bundles[i];
        let truth = b.error_code.clone().expect("corpus bundles are coded");
        let body = format!(
            "{{\"reference_number\":\"{}\",\"part_id\":\"{}\",\"mechanic_report\":\"{}\",\"supplier_report\":\"{}\",\"part_description\":\"{}\"",
            escape(&b.reference_number),
            escape(&b.part_id),
            escape(&b.mechanic_report),
            escape(&b.supplier_report),
            escape(&b.part_description),
        );
        set.learn_bodies
            .push(format!("{body},\"code\":\"{}\"}}", escape(&truth)));
        set.bodies.push(body + "}");
        // mirrors the handler's body → bundle mapping: absent fields are
        // empty, nothing coded
        set.wire.push(DataBundle {
            reference_number: b.reference_number.clone(),
            article_code: String::new(),
            part_id: b.part_id.clone(),
            error_code: None,
            responsibility_code: None,
            mechanic_report: b.mechanic_report.clone(),
            initial_report: None,
            supplier_report: b.supplier_report.clone(),
            final_report: None,
            part_description: b.part_description.clone(),
            error_description: None,
        });
        set.truth.push(truth);
    }
    rng.shuffle(&mut set.learn_order);
    (train, set)
}

/// The features a `/suggest` for `bundle` ranks with on `snapshot`.
pub fn features(snapshot: &KnowledgeSnapshot, bundle: &DataBundle) -> FeatureSet {
    let mut cas = bundle.to_cas(SourceSelection::Test);
    snapshot
        .process_and_extract(&mut cas)
        .expect("held-out corpus text passes the pipeline")
}

/// The oracle: the top codes the paper's ranking gives `bundle` on
/// `snapshot`, computed by the unoptimised `RankedKnn::rank_naive`.
pub fn oracle(snapshot: &KnowledgeSnapshot, bundle: &DataBundle) -> Vec<String> {
    let RankerModel::Knn(knn) = snapshot.ranker() else {
        panic!("every workload serves the kNN family");
    };
    let f = features(snapshot, bundle);
    knn.rank_naive(snapshot.kb(), &bundle.part_id, &f)
        .into_iter()
        .take(TOP)
        .map(|sc| sc.code)
        .collect()
}

/// A `/suggest` (or `/learn`) answer read without a JSON parser: the epoch
/// and the codes of the `top` list, in order.
#[derive(Debug, PartialEq)]
pub struct Answer<'a> {
    pub epoch: u64,
    pub codes: Vec<&'a str>,
}

/// Read `"epoch":N` and, when present, the `"top":[{"code":"..",...},..]`
/// list out of a response body. `None` when the body is not shaped like
/// the handler's output.
pub fn scan(body: &[u8]) -> Option<Answer<'_>> {
    let text = std::str::from_utf8(body).ok()?;
    let after = text.split_once("\"epoch\":")?.1;
    let digits = after.bytes().take_while(u8::is_ascii_digit).count();
    let epoch = after[..digits].parse().ok()?;
    let mut codes = Vec::new();
    if let Some((_, mut rest)) = text.split_once("\"top\":[") {
        while let Some(r) = rest.strip_prefix("{\"code\":\"") {
            let end = r.find('"')?;
            if r[..end].contains('\\') {
                return None;
            }
            codes.push(&r[..end]);
            let close = r[end..].find('}')?;
            rest = &r[end + close + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest);
        }
        rest.strip_prefix(']')?;
    }
    Some(Answer { epoch, codes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_reads_epoch_and_top_codes() {
        let body = br#"{"epoch":17,"reference_number":"R-1","top":[{"code":"E1-02","score":0.500000},{"code":"E7","score":0.250000}],"all_codes_for_part":["E1-02","E7","E9"]}"#;
        let a = scan(body).unwrap();
        assert_eq!(a.epoch, 17);
        assert_eq!(a.codes, vec!["E1-02", "E7"]);
        let empty = br#"{"epoch":0,"reference_number":"","top":[],"all_codes_for_part":[]}"#;
        assert_eq!(scan(empty).unwrap().codes, Vec::<&str>::new());
        let learn = br#"{"enqueued":1,"added":1,"epoch":3}"#;
        assert_eq!(scan(learn).unwrap().epoch, 3);
        assert!(scan(b"{\"error\":\"nope\"}").is_none());
        assert!(scan(br#"{"epoch":1,"top":[{"code":"E1","score":1}"#).is_none());
    }

    #[test]
    fn split_is_seeded_and_disjoint() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let mut x: Vec<u32> = (0..100).collect();
        let mut y = x.clone();
        a.shuffle(&mut x);
        b.shuffle(&mut y);
        assert_eq!(x, y);
        let mut c = SplitMix::new(8);
        let mut z: Vec<u32> = (0..100).collect();
        c.shuffle(&mut z);
        assert_ne!(x, z);
        z.sort_unstable();
        assert_eq!(z, (0..100).collect::<Vec<_>>());
    }
}
