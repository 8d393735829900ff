//! Developer scenario: plugging a custom replacement policy into GraphCache.
//!
//! The paper's Fig. 2(d) shows the `Cache` extension class developers
//! override (`updateCacheItems`, `updateCacheStaInfo`,
//! `getReplacedContent`). The Rust equivalent is the
//! [`ReplacementPolicy`] trait; this example implements a FIFO policy from
//! scratch and races it against the bundled HD policy on the same workload.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use graphcache::prelude::*;
use std::sync::Arc;

/// First-in-first-out eviction: utility = admission order, hits ignored.
///
/// * `on_hit` is the paper's `updateCacheStaInfo` — FIFO deliberately does
///   nothing with it;
/// * `victims` is the paper's `getReplacedContent` — the oldest entries;
/// * eviction bookkeeping (the paper's `updateCacheItems`) is `on_evict`.
#[derive(Debug, Default)]
struct FifoPolicy {
    arrival: Vec<(EntryId, u64)>,
}

impl ReplacementPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "FIFO(custom)"
    }

    fn on_insert(&mut self, entry: EntryId, now: u64) {
        self.arrival.push((entry, now));
    }

    fn on_hit(&mut self, _entry: EntryId, _credit: &HitCredit, _now: u64) {
        // FIFO ignores usage.
    }

    fn on_evict(&mut self, entry: EntryId) {
        self.arrival.retain(|&(e, _)| e != entry);
    }

    fn victims(&mut self, x: usize) -> Vec<EntryId> {
        let mut v = self.arrival.clone();
        v.sort_by_key(|&(e, t)| (t, e));
        v.into_iter().take(x).map(|(e, _)| e).collect()
    }
}

fn run(
    dataset: &Arc<Dataset>,
    make_policy: fn() -> Box<dyn ReplacementPolicy>,
    workload: &Workload,
) -> (String, GlobalStats) {
    // One shard: one cache, one policy instance.
    let gc = SharedGraphCache::new(
        dataset.clone(),
        Arc::new(FtvMethod::build(dataset, 2)),
        make_policy,
        CacheConfig { capacity: 30, window_size: 5, shards: 1, ..CacheConfig::default() },
    )
    .expect("valid config");
    for wq in &workload.queries {
        gc.query(&wq.graph, wq.kind);
    }
    (gc.policy_name().to_owned(), gc.stats())
}

fn main() {
    let dataset = Arc::new(Dataset::new(molecule_dataset(80, 321)));
    let spec = WorkloadSpec {
        n_queries: 300,
        pool_size: 60,
        kind: WorkloadKind::Zipf { skew: 1.0 },
        seed: 3,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);

    println!("racing a custom FIFO policy against bundled HD on {} queries\n", workload.len());
    let policies: [fn() -> Box<dyn ReplacementPolicy>; 2] =
        [|| Box::new(FifoPolicy::default()), || PolicyKind::Hd.make()];
    for make_policy in policies {
        let (name, stats) = run(&dataset, make_policy, &workload);
        println!(
            "{name:<14} hit ratio {:>5.1}%  tests/query {:>7.2}  tests saved {:>7}",
            100.0 * stats.hit_ratio(),
            stats.avg_tests_per_query(),
            stats.tests_saved
        );
    }
    println!("\nto plug in your own policy, implement gc_core::ReplacementPolicy");
    println!(
        "(on_insert / on_hit / on_evict / victims) and hand a constructor to SharedGraphCache::new."
    );
}
