//! The system under test: dataset, Method M, the shared cache, and (per
//! workload) a persistence store or a loopback HTTP server.

use crate::inputs::{Inputs, CORPUS_SEED};
use crate::oracle::FTV_L;
use gc_core::{CacheConfig, PolicyKind, SharedGraphCache};
use gc_method::{Dataset, DatasetOp, FtvMethod};
use gc_server::{HttpClient, Server, ServerConfig};
use gc_store::CacheStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries run after construction and before any timed window.
pub const WARMUP_QUERIES: usize = 500;
/// Server worker threads and client connections of `http_open`.
pub const HTTP_WORKERS: usize = 2;

/// The front-end a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edge {
    InProcess,
    /// In-process, with a `CacheStore` attached (journal + snapshots).
    Store,
    Http,
}

pub struct System {
    pub cache: Arc<SharedGraphCache>,
    pub server: Option<Server>,
    pub clients: Vec<HttpClient>,
    pub store_dir: Option<PathBuf>,
}

/// Pre-encoded `POST /query` requests, one per pool query.
pub struct Requests {
    pub paths: Vec<&'static str>,
    pub bodies: Vec<Vec<u8>>,
}

impl Requests {
    pub fn encode(inputs: &Inputs) -> Requests {
        let paths = inputs
            .pool
            .iter()
            .map(|(_, kind)| match kind {
                gc_method::QueryKind::Subgraph => "/query?kind=sub",
                gc_method::QueryKind::Supergraph => "/query?kind=super",
            })
            .collect();
        let bodies = inputs
            .pool
            .iter()
            .map(|(q, _)| gc_graph::io::dataset_to_string(std::slice::from_ref(q)).into_bytes())
            .collect();
        Requests { paths, bodies }
    }
}

/// Build the system and warm it with [`WARMUP_QUERIES`] queries of the
/// corpus-seeded stream, so every run starts from the same warm cache.
/// Returns the system and the set-up time (input generation excluded: the
/// graphs are cloned before the clock starts).
pub fn build(
    inputs: &Inputs,
    edge: Edge,
    requests: Option<&Requests>,
    store_dir: &Path,
) -> Result<(System, Duration), String> {
    let graphs = inputs.graphs.clone();
    let _ = std::fs::remove_dir_all(store_dir);
    let t0 = Instant::now();
    let dataset = Arc::new(Dataset::new(graphs));
    let method = FtvMethod::build(&dataset, FTV_L);
    let mut cache = SharedGraphCache::with_policy(
        dataset,
        Box::new(method),
        PolicyKind::Hd,
        CacheConfig::default(),
    )?;
    let mut store = None;
    if edge == Edge::Store {
        std::fs::create_dir_all(store_dir).map_err(|e| format!("store dir: {e}"))?;
        let s = CacheStore::open(store_dir).map_err(|e| format!("open store: {e}"))?;
        cache.attach_store(Arc::new(s))?;
        store = Some(store_dir.to_path_buf());
    }
    let cache = Arc::new(cache);
    let mut system = System { cache, server: None, clients: Vec::new(), store_dir: store };
    let requests = requests.filter(|_| edge == Edge::Http);
    if edge == Edge::Http {
        let config = ServerConfig { workers: HTTP_WORKERS, ..ServerConfig::default() };
        let server = Server::start(Arc::clone(&system.cache), config)?;
        for _ in 0..HTTP_WORKERS {
            system.clients.push(HttpClient::connect(server.addr())?);
        }
        system.server = Some(server);
    }
    system.warm_up(inputs, requests)?;
    Ok((system, t0.elapsed()))
}

impl System {
    /// Run [`WARMUP_QUERIES`] queries of the corpus-seeded stream, over HTTP
    /// when the system serves it.
    fn warm_up(&mut self, inputs: &Inputs, requests: Option<&Requests>) -> Result<(), String> {
        let mut stream = inputs.stream(CORPUS_SEED);
        for i in 0..WARMUP_QUERIES {
            let idx = stream.next_index();
            if let Some(requests) = requests {
                let client = &mut self.clients[i % HTTP_WORKERS];
                let resp = client.post(requests.paths[idx], &requests.bodies[idx])?;
                if resp.status != 200 {
                    return Err(format!("warm-up request failed with status {}", resp.status));
                }
            } else {
                let (q, kind) = &inputs.pool[idx];
                std::hint::black_box(self.cache.query(q, *kind));
            }
        }
        Ok(())
    }

    /// Close the connections, drain the server, delete the store.
    pub fn teardown(mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.drain();
        }
        if let Some(dir) = &self.store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Resident bytes of the program's state, by component.
#[derive(Debug, Clone, Copy, Default)]
pub struct Footprint {
    pub cache: usize,
    pub graphs: usize,
    pub profiles: usize,
    pub op_log: usize,
    pub ops: usize,
    pub method_index: usize,
}

impl Footprint {
    pub fn measure(cache: &SharedGraphCache, method_index: usize) -> Footprint {
        let ds = cache.dataset();
        let op_log = ds
            .ops()
            .iter()
            .map(|op| match op {
                DatasetOp::Insert(g) => g.memory_bytes(),
                DatasetOp::Remove(_) => 0,
            })
            .sum();
        Footprint {
            cache: cache.memory_bytes(),
            graphs: ds.memory_bytes(),
            profiles: ds.profiles().memory_bytes(),
            op_log,
            ops: ds.ops().len(),
            method_index,
        }
    }

    pub fn total(&self) -> usize {
        self.cache + self.graphs + self.profiles + self.op_log + self.method_index
    }
}

/// Total bytes of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Resident set size of this process, when the platform exposes it.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse::<u64>().ok()))
        .map_or(0, |pages| pages * 4096)
}
