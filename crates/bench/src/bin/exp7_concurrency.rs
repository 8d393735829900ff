//! Experiment VII: concurrent-client throughput of the sharded cache.
//!
//! The ROADMAP's north star is a cache that serves heavy concurrent
//! traffic; this harness measures how `SharedGraphCache` throughput scales
//! with client threads on a fixed zipf workload, against a one-shard cache
//! driven by one client as the baseline:
//!
//! 1. the one-shard cache over the workload, one client (baseline
//!    queries/s, reported as mode `sequential`);
//! 2. the sharded cache with 1, 2, 4 and 8 client threads (workload
//!    striped round-robin).
//!
//! Every answer of every run is checked against Method M alone
//! (`gc_method::execute_base`).
//!
//! Writes `bench_results/exp7_concurrency.json` and — as the perf
//! trajectory artifact for later PRs — `BENCH_concurrency.json` at the
//! working directory root. The artifact records
//! `available_parallelism`: scaling is bounded by physical cores, so a
//! 1-core container shows flat scaling by construction; the number that
//! must not regress *on equal hardware* is `throughput_qps` per thread
//! count.

use gc_bench::{print_table, write_artifact};
use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_method::{execute_base, Dataset, SiMethod};
use gc_workload::{molecule_dataset, Workload, WorkloadKind, WorkloadSpec};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct ThroughputPoint {
    mode: String,
    clients: usize,
    queries: usize,
    elapsed_s: f64,
    throughput_qps: f64,
    speedup_vs_sequential: f64,
    hit_ratio: f64,
}

#[derive(Serialize)]
struct Exp7Artifact {
    available_parallelism: usize,
    dataset_graphs: usize,
    n_queries: usize,
    zipf_skew: f64,
    policy: String,
    shards: usize,
    points: Vec<ThroughputPoint>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_graphs = if quick { 60 } else { 150 };
    let n_queries = if quick { 400 } else { 1500 };
    let skew = 1.1;
    let dataset = Arc::new(Dataset::new(molecule_dataset(n_graphs, 4242)));
    let spec = WorkloadSpec {
        n_queries,
        pool_size: 120,
        kind: WorkloadKind::Zipf { skew },
        min_edges: 4,
        max_edges: 10,
        seed: 23,
        ..WorkloadSpec::default()
    };
    let workload = Workload::generate(dataset.graphs(), &spec);
    let config = CacheConfig { capacity: 64, window_size: 8, ..CacheConfig::default() };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- reference answers: Method M alone ------------------------------------
    let expected: Vec<gc_graph::BitSet> = workload
        .queries
        .iter()
        .map(|wq| execute_base(&dataset, &SiMethod, config.engine, &wq.graph, wq.kind).answer)
        .collect();

    // --- baseline: one shard, one client ----------------------------------------
    let seq = SharedGraphCache::with_policy(
        dataset.clone(),
        Box::new(SiMethod),
        PolicyKind::Hd,
        CacheConfig { shards: 1, ..config.clone() },
    )
    .expect("valid config");
    let t0 = Instant::now();
    let answers: Vec<gc_graph::BitSet> =
        workload.queries.iter().map(|wq| seq.query(&wq.graph, wq.kind).answer).collect();
    let seq_elapsed = t0.elapsed().as_secs_f64();
    assert!(answers == expected, "one-shard answers diverged from Method M");
    let seq_qps = n_queries as f64 / seq_elapsed.max(1e-9);

    let mut points = vec![ThroughputPoint {
        mode: "sequential".into(),
        clients: 1,
        queries: n_queries,
        elapsed_s: seq_elapsed,
        throughput_qps: seq_qps,
        speedup_vs_sequential: 1.0,
        hit_ratio: seq.stats().hit_ratio(),
    }];
    let mut rows = vec![vec![
        "sequential".to_string(),
        "1".to_string(),
        format!("{seq_elapsed:.3} s"),
        format!("{seq_qps:.0} q/s"),
        "1.00x".to_string(),
    ]];

    // --- sharded cache at increasing client counts ---------------------------
    for clients in [1usize, 2, 4, 8] {
        let gc = SharedGraphCache::with_policy(
            dataset.clone(),
            Box::new(SiMethod),
            PolicyKind::Hd,
            config.clone(),
        )
        .expect("valid config");
        let t0 = Instant::now();
        let mismatches: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    let gc = &gc;
                    let workload = &workload;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut bad = 0usize;
                        for (i, wq) in workload.queries.iter().enumerate() {
                            if i % clients != t {
                                continue;
                            }
                            let got = gc.query(&wq.graph, wq.kind);
                            if got.answer != expected[i] {
                                bad += 1;
                            }
                        }
                        bad
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client panicked")).sum()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(mismatches, 0, "shared answers diverged from Method M");
        let qps = n_queries as f64 / elapsed.max(1e-9);
        points.push(ThroughputPoint {
            mode: "shared".into(),
            clients,
            queries: n_queries,
            elapsed_s: elapsed,
            throughput_qps: qps,
            speedup_vs_sequential: qps / seq_qps,
            hit_ratio: gc.stats().hit_ratio(),
        });
        rows.push(vec![
            "shared".to_string(),
            clients.to_string(),
            format!("{elapsed:.3} s"),
            format!("{qps:.0} q/s"),
            format!("{:.2}x", qps / seq_qps),
        ]);
    }

    println!(
        "=== Experiment VII: concurrent throughput (SI base, HD policy, zipf {skew}, \
         {n_queries} queries, {cores} core(s)) ===\n"
    );
    print_table(&["mode", "clients", "wall time", "throughput", "vs sequential"], &rows);
    println!("\nall answers verified bit-identical to Method M alone");
    if cores < 8 {
        println!(
            "note: only {cores} core(s) available — thread scaling is bounded by hardware, \
             not by the cache (see artifact's available_parallelism)"
        );
    }

    let artifact = Exp7Artifact {
        available_parallelism: cores,
        dataset_graphs: n_graphs,
        n_queries,
        zipf_skew: skew,
        policy: "HD".into(),
        shards: config.shards,
        points,
    };
    match write_artifact("exp7_concurrency", &artifact) {
        Ok(p) => println!("artifact: {}", p.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
    // Perf trajectory baseline for later PRs, at the repo/working dir root.
    match serde_json::to_string_pretty(&artifact) {
        Ok(json) => match std::fs::write("BENCH_concurrency.json", json) {
            Ok(()) => println!("baseline: BENCH_concurrency.json"),
            Err(e) => eprintln!("baseline write failed: {e}"),
        },
        Err(e) => eprintln!("baseline serialization failed: {e}"),
    }
}
