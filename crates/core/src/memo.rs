//! Generation-versioned exact answer memo.
//!
//! A bounded map from canonical query hash (WL fingerprint mixed with the
//! query kind) to a complete, verified answer set, stamped with the
//! [`gc_method::Dataset`] generation it was computed against. Sitting in
//! front of the containment probe, it serves repeat queries that the
//! fingerprint table cannot: queries the admission filter rejected, queries
//! evicted by replacement, and queries whose entries never existed — the
//! memo remembers *answers*, not cache entries, so it costs no index slots
//! and never competes with the replacement policy.
//!
//! ## Correctness
//!
//! A memo answer is only served when its recorded dataset generation equals
//! the live dataset's — any insert or remove bumps the generation, which
//! invalidates the **entire** memo in O(1) (stale slots are dropped lazily
//! on the next lookup/store). A hit is confirmed with exact isomorphism, so
//! fingerprint collisions cannot leak a wrong answer. Within a generation
//! the dataset is immutable, hence a memoized answer set is exactly the
//! answer Method M alone would produce: the memo is sound by construction.

use gc_graph::{BitSet, Graph};
use gc_method::QueryKind;
use std::collections::HashMap;

/// One memoized answer.
#[derive(Debug, Clone)]
pub(crate) struct MemoHit {
    /// The complete answer set (current-universe bitset).
    pub answer: BitSet,
    /// `|C_M|` of the original execution (tests an exact repeat saves).
    pub base_tests: u64,
}

#[derive(Debug)]
struct MemoSlot {
    graph: Graph,
    kind: QueryKind,
    answer: BitSet,
    base_tests: u64,
}

/// Bounded, generation-versioned answer memo (see module docs).
#[derive(Debug)]
pub(crate) struct AnswerMemo {
    /// Keyed by `mix(fingerprint, kind)`; collisions resolved by exact
    /// isomorphism on the stored graph.
    map: HashMap<u64, Vec<MemoSlot>>,
    /// Insertion order for FIFO bounding (keys may repeat across
    /// generations; eviction tolerates misses).
    order: std::collections::VecDeque<u64>,
    /// Dataset generation the stored answers are valid for.
    generation: u64,
    /// Maximum stored answers (0 = memo disabled).
    capacity: usize,
    /// Live slot count (order may hold stale keys).
    len: usize,
}

/// Memo key of a query with WL fingerprint `fp`.
fn memo_key(fp: u64, kind: QueryKind) -> u64 {
    let tag = match kind {
        QueryKind::Subgraph => 0x5355_4251,   // "SUBQ"
        QueryKind::Supergraph => 0x5355_5051, // "SUPQ"
    };
    gc_graph::hash::mix(fp, tag)
}

impl AnswerMemo {
    pub(crate) fn new(capacity: usize) -> Self {
        AnswerMemo {
            map: HashMap::new(),
            order: std::collections::VecDeque::new(),
            generation: 0,
            capacity,
            len: 0,
        }
    }

    /// Drop everything if the memo was computed against an older dataset
    /// generation — the O(1)-invalidation contract (one comparison per
    /// lookup; the actual clear is amortized over the stale entries).
    fn sync_generation(&mut self, generation: u64) {
        if self.generation != generation {
            self.map.clear();
            self.order.clear();
            self.len = 0;
            self.generation = generation;
        }
    }

    /// Look up the exact answer for `query` (WL fingerprint `fp`) at
    /// dataset `generation`.
    pub(crate) fn lookup(
        &mut self,
        fp: u64,
        query: &Graph,
        kind: QueryKind,
        generation: u64,
    ) -> Option<MemoHit> {
        if self.capacity == 0 {
            return None;
        }
        self.sync_generation(generation);
        let slots = self.map.get(&memo_key(fp, kind))?;
        slots
            .iter()
            .find(|s| s.kind == kind && gc_iso::iso::are_isomorphic(&s.graph, query))
            .map(|s| MemoHit { answer: s.answer.clone(), base_tests: s.base_tests })
    }

    /// Store a freshly executed query's (WL fingerprint `fp`) exact answer
    /// at `generation`.
    pub(crate) fn store(
        &mut self,
        fp: u64,
        query: &Graph,
        kind: QueryKind,
        answer: &BitSet,
        base_tests: u64,
        generation: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.sync_generation(generation);
        let key = memo_key(fp, kind);
        if let Some(slots) = self.map.get(&key) {
            if slots.iter().any(|s| s.kind == kind && gc_iso::iso::are_isomorphic(&s.graph, query))
            {
                return; // already memoized this generation
            }
        }
        while self.len >= self.capacity {
            let Some(old_key) = self.order.pop_front() else { break };
            if let Some(slots) = self.map.get_mut(&old_key) {
                if !slots.is_empty() {
                    slots.remove(0);
                    self.len -= 1;
                }
                if slots.is_empty() {
                    self.map.remove(&old_key);
                }
            }
        }
        self.map.entry(key).or_default().push(MemoSlot {
            graph: query.clone(),
            kind,
            answer: answer.clone(),
            base_tests,
        });
        self.order.push_back(key);
        self.len += 1;
    }

    /// Live memoized answers (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};

    fn g(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
        let ls: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        graph_from_parts(&ls, edges).unwrap()
    }

    fn fp(q: &Graph) -> u64 {
        gc_graph::hash::fingerprint(q)
    }

    #[test]
    fn memoizes_and_confirms_isomorphism() {
        let mut memo = AnswerMemo::new(4);
        let q = g(&[0, 1], &[(0, 1)]);
        let answer = BitSet::from_indices(4, [1usize, 3]);
        assert!(memo.lookup(fp(&q), &q, QueryKind::Subgraph, 0).is_none());
        memo.store(fp(&q), &q, QueryKind::Subgraph, &answer, 7, 0);
        // Isomorphic relabeling of the same query hits.
        let q_iso = g(&[1, 0], &[(0, 1)]);
        let hit = memo.lookup(fp(&q_iso), &q_iso, QueryKind::Subgraph, 0).expect("memo hit");
        assert_eq!(hit.answer, answer);
        assert_eq!(hit.base_tests, 7);
        // Other kind misses.
        assert!(memo.lookup(fp(&q), &q, QueryKind::Supergraph, 0).is_none());
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let mut memo = AnswerMemo::new(4);
        let q = g(&[0], &[]);
        memo.store(fp(&q), &q, QueryKind::Subgraph, &BitSet::from_indices(2, [0usize]), 2, 0);
        assert!(memo.lookup(fp(&q), &q, QueryKind::Subgraph, 0).is_some());
        assert!(memo.lookup(fp(&q), &q, QueryKind::Subgraph, 1).is_none(), "new generation misses");
        assert_eq!(memo.len(), 0, "stale slots dropped");
    }

    #[test]
    fn capacity_bounds_and_zero_disables() {
        let mut memo = AnswerMemo::new(2);
        for i in 0..5u32 {
            let q = g(&[i], &[]);
            memo.store(fp(&q), &q, QueryKind::Subgraph, &BitSet::new(1), 1, 0);
        }
        assert!(memo.len() <= 2);
        // The newest entries survive FIFO eviction.
        let (newest, oldest) = (g(&[4], &[]), g(&[0], &[]));
        assert!(memo.lookup(fp(&newest), &newest, QueryKind::Subgraph, 0).is_some());
        assert!(memo.lookup(fp(&oldest), &oldest, QueryKind::Subgraph, 0).is_none());

        let mut off = AnswerMemo::new(0);
        off.store(fp(&oldest), &oldest, QueryKind::Subgraph, &BitSet::new(1), 1, 0);
        assert!(off.lookup(fp(&oldest), &oldest, QueryKind::Subgraph, 0).is_none());
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn duplicate_store_is_idempotent() {
        let mut memo = AnswerMemo::new(4);
        let q = g(&[0, 1], &[(0, 1)]);
        let q_iso = g(&[1, 0], &[(0, 1)]);
        memo.store(fp(&q), &q, QueryKind::Subgraph, &BitSet::new(2), 1, 0);
        memo.store(fp(&q_iso), &q_iso, QueryKind::Subgraph, &BitSet::new(2), 1, 0);
        assert_eq!(memo.len(), 1, "isomorphic duplicate not stored twice");
    }
}
