//! The knowledge base: deduplicated configuration instances with the access
//! paths the classifier needs.
//!
//! Paper §4.3: "we can represent each unique combination of part ID, error
//! key and concept mentions as a node in a knowledge base, which is derived
//! in a first training step. This also allows us to abstract from data
//! instances to configuration instances, reducing the size of the knowledge
//! base" — the kNN-Model-style fix for instance-based kNN's memory appetite.
//! Candidate retrieval (Fig. 5) goes through two indexes: part ID and an
//! inverted feature index ("this selection is made via the indexes of the
//! knowledge structure"). The knowledge base keeps the part index; the one
//! inverted feature index is [`crate::segment::SealedIndex`], built from
//! the nodes when a snapshot seals. [`KnowledgeBase::candidates`] scans the
//! nodes directly and serves as the reference for that index.

use std::collections::{HashMap, HashSet};

use qatk_store::prelude::*;

use crate::features::FeatureSet;

/// One knowledge node: a unique (part ID, error code, feature set)
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnowledgeNode {
    pub part_id: String,
    pub error_code: String,
    pub features: FeatureSet,
}

/// The knowledge base.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeBase {
    nodes: Vec<KnowledgeNode>,
    by_part: HashMap<String, Vec<usize>>,
    dedup: HashSet<(String, String, Vec<u32>)>,
    /// Dense part index: part ID → small integer, assigned on first insert.
    part_ids: HashMap<String, u32>,
    /// Per-node dense part index, aligned with `nodes` — lets the score
    /// accumulator filter postings with an integer compare instead of a
    /// string compare.
    node_parts: Vec<u32>,
    /// Raw instances offered, including duplicates (for the dedup ratio).
    offered: usize,
}

impl KnowledgeBase {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a configuration instance. Returns `false` when an identical
    /// (part, code, features) node already exists — the dedup that turns
    /// data instances into configuration instances.
    pub fn insert(
        &mut self,
        part_id: impl Into<String>,
        error_code: impl Into<String>,
        features: FeatureSet,
    ) -> bool {
        let part_id = part_id.into();
        let error_code = error_code.into();
        self.offered += 1;
        let key = (part_id.clone(), error_code.clone(), features.ids().to_vec());
        if !self.dedup.insert(key) {
            return false;
        }
        let idx = self.nodes.len();
        self.by_part.entry(part_id.clone()).or_default().push(idx);
        let next_part = self.part_ids.len() as u32;
        let part_idx = *self.part_ids.entry(part_id.clone()).or_insert(next_part);
        self.node_parts.push(part_idx);
        self.nodes.push(KnowledgeNode {
            part_id,
            error_code,
            features,
        });
        true
    }

    /// Number of (deduplicated) knowledge nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Raw instances offered to [`KnowledgeBase::insert`], before dedup.
    pub fn instances_offered(&self) -> usize {
        self.offered
    }

    /// All nodes.
    pub fn nodes(&self) -> &[KnowledgeNode] {
        &self.nodes
    }

    /// Node indexes of a part ID.
    pub fn nodes_for_part(&self, part_id: &str) -> &[usize] {
        self.by_part.get(part_id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if the part ID exists in the knowledge structure.
    pub fn has_part(&self, part_id: &str) -> bool {
        self.by_part.contains_key(part_id)
    }

    /// Dense integer index of a part ID (assigned on first insert), if known.
    pub fn part_index(&self, part_id: &str) -> Option<u32> {
        self.part_ids.get(part_id).copied()
    }

    /// Number of distinct part IDs in the knowledge structure.
    pub fn part_count(&self) -> usize {
        self.part_ids.len()
    }

    /// Per-node dense part indexes, aligned with [`KnowledgeBase::nodes`].
    pub fn node_parts(&self) -> &[u32] {
        &self.node_parts
    }

    /// All known part IDs (arbitrary order).
    pub fn parts(&self) -> impl Iterator<Item = &str> {
        self.by_part.keys().map(String::as_str)
    }

    /// Distinct error codes known for a part ID.
    ///
    /// Allocates a fresh vector per call — fine for tests and cold paths; the
    /// serving path uses the per-part lists
    /// [`crate::snapshot::KnowledgeSnapshot`] precomputes once at seal time.
    pub fn codes_for_part(&self, part_id: &str) -> Vec<&str> {
        let mut codes: Vec<&str> = self
            .nodes_for_part(part_id)
            .iter()
            .map(|&i| self.nodes[i].error_code.as_str())
            .collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Candidate set generation (paper Fig. 5): nodes with the same part ID
    /// sharing ≥ 1 feature; if the part ID is unknown, *all* nodes sharing
    /// ≥ 1 feature ("If the part ID is not found in the knowledge structure,
    /// we select all nodes into our neighbor candidate set"), and the entire
    /// knowledge base when no node shares a feature.
    ///
    /// A plain scan of the part's nodes (or of every node), returning
    /// ascending node indexes. It reads no index on purpose: it is the
    /// reference the sealed kernel ([`crate::segment::SealedIndex`]) is
    /// checked against, through [`crate::classifier::RankedKnn::rank_naive`].
    pub fn candidates(&self, part_id: &str, features: &FeatureSet) -> Vec<usize> {
        if self.has_part(part_id) {
            return self
                .nodes_for_part(part_id)
                .iter()
                .copied()
                .filter(|&i| self.nodes[i].features.intersects(features))
                .collect();
        }
        let hits: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].features.intersects(features))
            .collect();
        if hits.is_empty() {
            // unknown part with zero feature overlap anywhere: fall back to
            // the entire knowledge base, as the paper specifies
            return (0..self.nodes.len()).collect();
        }
        hits
    }

    // --- relational persistence ------------------------------------------

    /// Table name for knowledge nodes.
    pub const TABLE: &'static str = "knowledge_nodes";

    /// Persist into a relational database (paper §4.4 step 3b: "Knowledge
    /// Base Persistence: store knowledge nodes in a relational database").
    /// Features are stored as a little-endian u32 blob.
    pub fn save_to_db(&self, db: &mut Database) -> StoreResult<()> {
        if !db.has_table(Self::TABLE) {
            let schema = SchemaBuilder::new()
                .pk("id", DataType::Int)
                .col("part_id", DataType::Text)
                .col("error_code", DataType::Text)
                .col("features", DataType::Blob)
                .build()?;
            db.create_table(Self::TABLE, schema)?;
            db.table_mut(Self::TABLE)?
                .create_index("kn_by_part", "part_id", IndexKind::Hash)?;
        } else {
            db.table_mut(Self::TABLE)?.truncate();
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let mut blob = Vec::with_capacity(node.features.len() * 4);
            for f in node.features.iter() {
                blob.extend_from_slice(&f.to_le_bytes());
            }
            db.insert(
                Self::TABLE,
                row![
                    i as i64,
                    node.part_id.clone(),
                    node.error_code.clone(),
                    blob
                ],
            )?;
        }
        Ok(())
    }

    /// Load back from a relational database.
    pub fn load_from_db(db: &Database) -> StoreResult<Self> {
        let table = db.table(Self::TABLE)?;
        let rows = Query::new().order_by("id", SortOrder::Asc).run(table)?;
        let mut kb = KnowledgeBase::new();
        for r in rows {
            let part = r.get(1).and_then(Value::as_text).unwrap_or_default();
            let code = r.get(2).and_then(Value::as_text).unwrap_or_default();
            let blob = r.get(3).and_then(Value::as_blob).unwrap_or_default();
            let ids: Vec<u32> = blob
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            kb.insert(part, code, FeatureSet::from_unsorted(ids));
        }
        Ok(kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(ids: &[u32]) -> FeatureSet {
        FeatureSet::from_unsorted(ids.to_vec())
    }

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.insert("P-01", "E100", fs(&[1, 2, 3]));
        kb.insert("P-01", "E200", fs(&[3, 4]));
        kb.insert("P-01", "E100", fs(&[1, 9]));
        kb.insert("P-02", "E300", fs(&[2, 5]));
        kb
    }

    #[test]
    fn dedup_configuration_instances() {
        let mut kb = kb();
        assert_eq!(kb.len(), 4);
        // identical configuration is absorbed
        assert!(!kb.insert("P-01", "E100", fs(&[1, 2, 3])));
        assert_eq!(kb.len(), 4);
        assert_eq!(kb.instances_offered(), 5);
        // same features, different code → new node
        assert!(kb.insert("P-01", "E999", fs(&[1, 2, 3])));
        assert_eq!(kb.len(), 5);
    }

    #[test]
    fn part_index() {
        let kb = kb();
        assert_eq!(kb.nodes_for_part("P-01").len(), 3);
        assert_eq!(kb.nodes_for_part("P-02").len(), 1);
        assert!(kb.nodes_for_part("P-99").is_empty());
        assert!(kb.has_part("P-01"));
        assert!(!kb.has_part("P-99"));
        assert_eq!(kb.codes_for_part("P-01"), vec!["E100", "E200"]);
    }

    #[test]
    fn candidates_same_part_shared_feature() {
        let kb = kb();
        // feature 3 hits nodes 0 and 1 of P-01
        let c = kb.candidates("P-01", &fs(&[3]));
        assert_eq!(c, vec![0, 1]);
        // feature 1 hits nodes 0 and 2
        let c = kb.candidates("P-01", &fs(&[1]));
        assert_eq!(c, vec![0, 2]);
        // feature 5 belongs to P-02 only → empty for P-01
        let c = kb.candidates("P-01", &fs(&[5]));
        assert!(c.is_empty());
    }

    #[test]
    fn unknown_part_falls_back_to_all_nodes() {
        let kb = kb();
        // unknown part, shared features → all sharing nodes across parts
        let c = kb.candidates("P-99", &fs(&[2]));
        assert_eq!(c, vec![0, 3]);
        // unknown part, no shared features → the whole knowledge base
        let c = kb.candidates("P-99", &fs(&[777]));
        assert_eq!(c, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_features_yield_no_candidates_for_known_part() {
        let kb = kb();
        assert!(kb.candidates("P-01", &FeatureSet::default()).is_empty());
    }

    #[test]
    fn db_roundtrip() {
        let kb = kb();
        let mut db = Database::new();
        kb.save_to_db(&mut db).unwrap();
        assert_eq!(db.table(KnowledgeBase::TABLE).unwrap().len(), 4);
        let loaded = KnowledgeBase::load_from_db(&db).unwrap();
        assert_eq!(loaded.len(), kb.len());
        assert_eq!(loaded.nodes(), kb.nodes());
        // candidate behaviour identical after the roundtrip
        assert_eq!(
            loaded.candidates("P-01", &fs(&[3])),
            kb.candidates("P-01", &fs(&[3]))
        );
    }

    #[test]
    fn save_twice_replaces() {
        let kb = kb();
        let mut db = Database::new();
        kb.save_to_db(&mut db).unwrap();
        kb.save_to_db(&mut db).unwrap();
        assert_eq!(db.table(KnowledgeBase::TABLE).unwrap().len(), 4);
    }

    #[test]
    fn empty_kb() {
        let kb = KnowledgeBase::new();
        assert!(kb.is_empty());
        assert!(kb.candidates("P-01", &fs(&[1])).is_empty());
        let mut db = Database::new();
        kb.save_to_db(&mut db).unwrap();
        let loaded = KnowledgeBase::load_from_db(&db).unwrap();
        assert!(loaded.is_empty());
    }
}
