//! Many client threads sharing one cache.
//!
//! `SharedGraphCache` serves the staged pipeline through `&self`: shard
//! the cache state, probe under read locks, admit under short write
//! sections, and let every client thread query concurrently with exactly
//! the answers Method M alone would give. This example times one client
//! on a one-shard cache against many clients on a sharded one, and checks
//! every answer of both runs against Method M.
//!
//! Run with: `cargo run --release --example concurrent_clients`

use graphcache::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    const CLIENTS: usize = 8;
    const QUERIES: usize = 400;

    // A dataset and a skewed workload (repetition is what caches love).
    let dataset = Arc::new(Dataset::new(molecule_dataset(80, 2024)));
    let spec = WorkloadSpec {
        n_queries: QUERIES,
        pool_size: 60,
        kind: WorkloadKind::Zipf { skew: 1.2 },
        seed: 11,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);

    // Ground truth: Method M alone, no cache.
    let method = FtvMethod::build(&dataset, 2);
    let expected: Vec<BitSet> = workload
        .queries
        .iter()
        .map(|wq| execute_base(&dataset, &method, Engine::Vf2, &wq.graph, wq.kind).answer)
        .collect();

    // One client over a one-shard cache.
    let single = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(&dataset, 2)),
        PolicyKind::Hd,
        CacheConfig { shards: 1, ..CacheConfig::default() },
    )
    .unwrap();
    let t0 = Instant::now();
    let single_answers: Vec<BitSet> =
        workload.queries.iter().map(|wq| single.query(&wq.graph, wq.kind).answer).collect();
    let single_time = t0.elapsed();
    assert!(single_answers == expected, "one-client answers diverged from Method M");

    // Concurrent run: CLIENTS threads stripe the same workload over one
    // sharded cache.
    let gc = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(FtvMethod::build(&dataset, 2)),
        PolicyKind::Hd,
        CacheConfig::default(),
    )
    .unwrap();
    let t0 = Instant::now();
    let mismatches: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let gc = &gc;
                let workload = &workload;
                let expected = &expected;
                scope.spawn(move || {
                    let mut bad = 0usize;
                    for (i, wq) in workload.queries.iter().enumerate() {
                        if i % CLIENTS != t {
                            continue;
                        }
                        if gc.query(&wq.graph, wq.kind).answer != expected[i] {
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let shared_time = t0.elapsed();

    let stats = gc.stats();
    println!("{QUERIES} queries, {CLIENTS} concurrent clients, {} shards", gc.shard_count());
    println!("1 client, 1 shard     : {:>8.1} ms", single_time.as_secs_f64() * 1e3);
    println!(
        "{CLIENTS} clients, {} shards   : {:>8.1} ms",
        gc.shard_count(),
        shared_time.as_secs_f64() * 1e3
    );
    println!(
        "hit ratio {:.1}% | exact hits {} | admitted {} | evicted {}",
        100.0 * stats.hit_ratio(),
        stats.exact_hits,
        stats.admitted,
        stats.evicted
    );
    match mismatches {
        0 => println!("all answers identical to Method M alone ✓"),
        n => println!("!! {n} answers diverged — this would be a bug"),
    }
    assert_eq!(mismatches, 0);
}
