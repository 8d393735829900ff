//! Cached query entries.

use gc_graph::{BitSet, Graph};
use gc_iso::GraphProfile;
use gc_method::QueryKind;

/// Identifier of a cache entry. Stable for the entry's lifetime; ids are
/// reused after eviction (slab allocation) — dashboards show them as the
/// "graph ids" of Figures 2(c) and 3.
pub type EntryId = u32;

/// Per-entry bookkeeping the Statistics Manager maintains.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EntryStats {
    /// Logical time (query sequence number) the entry was admitted.
    pub inserted_at: u64,
    /// Logical time of the last hit this entry contributed to.
    pub last_used: u64,
    /// Exact-match hits served.
    pub exact_hits: u64,
    /// Hits where the new query was a subgraph of this entry.
    pub sub_hits: u64,
    /// Hits where this entry was a subgraph of the new query.
    pub super_hits: u64,
    /// Total sub-iso tests this entry saved other queries.
    pub tests_saved: u64,
    /// Total estimated verifier steps this entry saved other queries.
    pub cost_saved: f64,
}

impl EntryStats {
    /// Total hits of any kind.
    pub fn total_hits(&self) -> u64 {
        self.exact_hits + self.sub_hits + self.super_hits
    }
}

/// A cached query: the query graph, its kind, and its full answer set.
///
/// Serializable, so cache contents can be exported for inspection. Warm
/// starts persist entries through [`crate::persist`] instead.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheEntry {
    /// Entry id (slab slot).
    pub id: EntryId,
    /// The cached query graph.
    pub graph: Graph,
    /// Verification profile of `graph`, computed once at admission and
    /// reused by every hit-confirmation probe against this entry (the same
    /// precompute-once discipline [`gc_method::DatasetProfiles`] applies to
    /// dataset graphs). Order built with `label_freq = None` — probes face
    /// ever-changing query graphs, so only the entry's own statistics are
    /// meaningful.
    pub profile: GraphProfile,
    /// Query kind the answer set corresponds to.
    pub kind: QueryKind,
    /// The exact answer set over the dataset universe.
    pub answer: BitSet,
    /// WL fingerprint of `graph` (exact-match bucket key).
    pub fingerprint: u64,
    /// `|C_M|` when this query was first executed — the number of sub-iso
    /// tests an exact-match hit saves.
    pub base_tests: u64,
    /// Verifier steps spent when first executed (cost analogue).
    pub base_cost: u64,
    /// Statistics Manager data.
    pub stats: EntryStats,
}

impl CacheEntry {
    /// Does the (freshly inserted) dataset graph `gid` belong in this
    /// entry's answer set? Cheap summary prefilter, then the exact
    /// containment test in the direction the entry's kind dictates — the
    /// answer-repair primitive of live dataset mutation.
    pub(crate) fn answers_inserted(
        &self,
        dataset: &gc_method::Dataset,
        gid: gc_graph::GraphId,
        engine: gc_method::Engine,
    ) -> bool {
        match self.kind {
            QueryKind::Subgraph => {
                self.profile.summary.may_embed_into(dataset.summary(gid))
                    && engine.verify(&self.graph, dataset.graph(gid)).0
            }
            QueryKind::Supergraph => {
                dataset.summary(gid).may_embed_into(&self.profile.summary)
                    && engine.verify(dataset.graph(gid), &self.graph).0
            }
        }
    }

    /// Approximate heap bytes held by this entry (graph + profile + answer
    /// set), reported by the cache's memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + self.profile.memory_bytes()
            + self.answer.memory_bytes()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    #[test]
    fn stats_totals() {
        let s = EntryStats { exact_hits: 2, sub_hits: 3, super_hits: 5, ..EntryStats::default() };
        assert_eq!(s.total_hits(), 10);
    }

    #[test]
    fn memory_positive() {
        let g = graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap();
        let e = CacheEntry {
            id: 0,
            fingerprint: gc_graph::hash::fingerprint(&g),
            profile: GraphProfile::new(&g, None),
            graph: g,
            kind: QueryKind::Subgraph,
            answer: BitSet::new(10),
            base_tests: 4,
            base_cost: 100,
            stats: EntryStats::default(),
        };
        assert!(e.memory_bytes() > 0);
    }
}
