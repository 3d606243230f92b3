//! The snapshot store: named, immutable, atomically swappable graphs.
//!
//! `ffmrd` treats every graph as a *snapshot* — an immutable
//! [`FlowNetwork`] shared by `Arc` among all in-flight queries. Loading
//! or reloading a dataset builds the new network off to the side and
//! swaps the map entry atomically: queries that already hold the old
//! `Arc` finish against a consistent graph, new queries see the new one,
//! and the old snapshot is freed when its last query completes. Every
//! swap bumps the snapshot's `epoch`, which is part of every
//! [`FlowCache`](crate::cache::FlowCache) key — stale cache entries can
//! never be served for a reloaded graph.
//!
//! Every swap also starts one background thread that builds the
//! snapshot's Gomory–Hu [`CutTree`] (n − 1 certified local searches;
//! about a second on FB4'). The swap does not wait for it: until the
//! tree lands in the snapshot's own slot, queries take the solver path,
//! and a snapshot with one-way capacities never gets one. The thread
//! holds the network and the slot, not the snapshot, so a tree can only
//! ever serve the epoch it was built for; when the snapshot drops
//! (reload, load over it, shutdown) it raises the build's cancel flag
//! and the build stops at its next step. Nothing joins the thread.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ffmr_sync::RwLock;
use maxflow::cut_tree::CutTree;
use maxflow::Cancel;
use swgraph::FlowNetwork;

/// One immutable loaded graph.
#[derive(Debug)]
pub struct Snapshot {
    /// Dataset name the snapshot is registered under.
    pub name: String,
    /// Monotonic per-dataset version, bumped on every (re)load.
    pub epoch: u64,
    /// The graph itself, shared by `Arc` with every in-flight query so
    /// serving a query never copies the graph.
    pub network: Arc<FlowNetwork>,
    /// Where the graph was read from, when file-backed (reloadable).
    pub source_path: Option<String>,
    /// When this snapshot was swapped in (drives the epoch-age gauge).
    pub loaded_at: Instant,
    /// Filled once by the build thread: the tree, or `None` when the
    /// capacities are not symmetric.
    cut_tree: Arc<OnceLock<Option<BuiltTree>>>,
    /// Raised when this snapshot drops; cancels its tree's build.
    retired: Arc<AtomicBool>,
}

/// A finished cut-tree build.
#[derive(Debug)]
pub struct BuiltTree {
    /// The tree.
    pub tree: CutTree,
    /// Wall time from the swap to the finished tree.
    pub build_time: Duration,
}

/// How far a snapshot's cut tree has got: the `cut-tree` field of
/// `stats dataset`.
#[derive(Debug, Clone, Copy)]
pub enum CutTreeStatus<'a> {
    /// The build thread is still running.
    Building,
    /// Some edge pair's capacities differ: no tree, ever.
    Asymmetric,
    /// Built; plain `maxflow` queries are read off it.
    Ready(&'a BuiltTree),
}

impl CutTreeStatus<'_> {
    /// The status's wire name.
    #[must_use]
    pub const fn as_str(&self) -> &'static str {
        match self {
            CutTreeStatus::Building => "building",
            CutTreeStatus::Asymmetric => "asymmetric",
            CutTreeStatus::Ready(_) => "ready",
        }
    }
}

impl Snapshot {
    /// The snapshot's cut tree, once built.
    #[must_use]
    pub fn cut_tree(&self) -> Option<&CutTree> {
        self.cut_tree.get()?.as_ref().map(|built| &built.tree)
    }

    /// How far the cut tree's build has got.
    #[must_use]
    pub fn cut_tree_status(&self) -> CutTreeStatus<'_> {
        match self.cut_tree.get() {
            None => CutTreeStatus::Building,
            Some(None) => CutTreeStatus::Asymmetric,
            Some(Some(built)) => CutTreeStatus::Ready(built),
        }
    }

    /// Waits up to `timeout` for the cut tree's build to finish, for
    /// callers that must measure or test the tree route; returns the
    /// status then (still [`CutTreeStatus::Building`] on a time-out).
    #[must_use]
    pub fn await_cut_tree(&self, timeout: Duration) -> CutTreeStatus<'_> {
        let deadline = Instant::now() + timeout;
        while self.cut_tree.get().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.cut_tree_status()
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.retired.store(true, Ordering::Relaxed);
    }
}

/// Called from the build thread each time a snapshot's tree is ready,
/// with the dataset name and epoch.
type TreeListener = dyn Fn(&str, u64, &BuiltTree) + Send + Sync;

/// Failure to load or look up a snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// No dataset registered under this name.
    UnknownDataset(String),
    /// The dataset is memory-resident (no source path to reload from).
    NotReloadable(String),
    /// Reading or parsing the edge-list file failed.
    Load(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownDataset(n) => write!(f, "unknown dataset '{n}'"),
            StoreError::NotReloadable(n) => {
                write!(f, "dataset '{n}' is memory-resident and cannot be reloaded")
            }
            StoreError::Load(m) => write!(f, "load failed: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A concurrent map of named [`Snapshot`]s.
#[derive(Default)]
pub struct GraphStore {
    snapshots: RwLock<HashMap<String, Arc<Snapshot>>>,
    on_tree_ready: RwLock<Option<Arc<TreeListener>>>,
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphStore")
            .field("snapshots", &self.snapshots)
            .finish_non_exhaustive()
    }
}

impl GraphStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Calls `listener` with the dataset name and epoch whenever a cut
    /// tree that builds after this call is ready (the daemon prints a
    /// line).
    pub fn on_tree_ready(&self, listener: impl Fn(&str, u64, &BuiltTree) + Send + Sync + 'static) {
        *self.on_tree_ready.write() = Some(Arc::new(listener));
    }

    /// Registers an in-memory network (tests, generated graphs). Returns
    /// the new epoch.
    pub fn insert_network(&self, name: &str, network: FlowNetwork) -> u64 {
        self.swap_in(name, network, None)
    }

    /// Loads (or replaces) a dataset from an edge-list file. The parse
    /// happens outside the lock; concurrent queries are never blocked on
    /// disk I/O. Returns the new epoch.
    ///
    /// # Errors
    /// [`StoreError::Load`] when the file cannot be read or parsed.
    pub fn load_from_path(&self, name: &str, path: &str) -> Result<u64, StoreError> {
        let network = read_network(path)?;
        Ok(self.swap_in(name, network, Some(path.to_string())))
    }

    /// Re-reads a file-backed dataset from its recorded path.
    ///
    /// # Errors
    /// [`StoreError::UnknownDataset`] or [`StoreError::NotReloadable`]
    /// for bad targets, [`StoreError::Load`] on I/O failure.
    pub fn reload(&self, name: &str) -> Result<u64, StoreError> {
        let path = {
            let snapshots = self.snapshots.read();
            let snap = snapshots
                .get(name)
                .ok_or_else(|| StoreError::UnknownDataset(name.to_string()))?;
            snap.source_path
                .clone()
                .ok_or_else(|| StoreError::NotReloadable(name.to_string()))?
        };
        let network = read_network(&path)?;
        Ok(self.swap_in(name, network, Some(path)))
    }

    /// The current snapshot for `name`, if any. Cheap: clones an `Arc`
    /// under a read lock.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.snapshots.read().get(name).map(Arc::clone)
    }

    /// Snapshot summaries `(name, epoch, vertices, edge pairs)`, sorted
    /// by name.
    #[must_use]
    pub fn list(&self) -> Vec<(String, u64, usize, usize)> {
        let mut rows: Vec<_> = self
            .snapshots
            .read()
            .values()
            .map(|s| {
                (
                    s.name.clone(),
                    s.epoch,
                    s.network.num_vertices(),
                    s.network.num_edge_pairs(),
                )
            })
            .collect();
        rows.sort();
        rows
    }

    fn swap_in(&self, name: &str, network: FlowNetwork, source_path: Option<String>) -> u64 {
        let network = Arc::new(network);
        let cut_tree = Arc::new(OnceLock::new());
        let retired = Arc::new(AtomicBool::new(false));
        let epoch = {
            let mut snapshots = self.snapshots.write();
            let epoch = snapshots.get(name).map_or(1, |old| old.epoch + 1);
            snapshots.insert(
                name.to_string(),
                Arc::new(Snapshot {
                    name: name.to_string(),
                    epoch,
                    network: Arc::clone(&network),
                    source_path,
                    loaded_at: Instant::now(),
                    cut_tree: Arc::clone(&cut_tree),
                    retired: Arc::clone(&retired),
                }),
            );
            epoch
        };
        let listener = self.on_tree_ready.read().clone();
        let name = name.to_string();
        // Detached on purpose: `shutdown` must never wait for a build,
        // and a dropped snapshot stops its build at the next step. A
        // build that panicked leaves the slot empty, so its snapshot
        // keeps taking the solver path.
        std::thread::Builder::new()
            .name("ffmrd-cut-tree".into())
            .spawn(move || {
                let started = Instant::now();
                let cancel = Cancel::never().with_flag(retired);
                // Cancelled: the snapshot is gone, and nobody can ask.
                let Ok(tree) = CutTree::build(&network, &cancel) else {
                    return;
                };
                let built = tree.map(|tree| BuiltTree {
                    tree,
                    build_time: started.elapsed(),
                });
                let built = cut_tree.get_or_init(|| built).as_ref();
                if let Some(built) = built {
                    record_build(&name, built);
                    if let Some(listener) = listener {
                        listener(&name, epoch, built);
                    }
                }
            })
            .expect("spawn cut-tree build");
        epoch
    }
}

/// Publishes a finished build to the metrics registry.
fn record_build(dataset: &str, built: &BuiltTree) {
    let m = ffmr_obs::global();
    m.gauge("ffmr_cut_tree_build_ms", &[("dataset", dataset)])
        .set(i64::try_from(built.build_time.as_millis()).unwrap_or(i64::MAX));
    let steps = built.tree.steps();
    for (outcome, n) in [
        ("trivial-cut", steps.trivial_cut),
        ("exhausted", steps.exhausted),
        ("budget", steps.budget),
    ] {
        m.counter("ffmr_cut_tree_steps_total", &[("outcome", outcome)])
            .add(n);
    }
}

fn read_network(path: &str) -> Result<FlowNetwork, StoreError> {
    let file = File::open(path).map_err(|e| StoreError::Load(format!("{path}: {e}")))?;
    swgraph::io::read_edge_list(BufReader::new(file))
        .map(swgraph::FlowNetworkBuilder::build)
        .map_err(|e| StoreError::Load(format!("{path}: {e}")))
}

/// `net` with one more unit of capacity one way on its first edge pair
/// (from its head back to its tail). Such a snapshot never gets a cut
/// tree, so its plain queries take the solver path.
#[cfg(test)]
pub(crate) fn one_way(net: &FlowNetwork) -> FlowNetwork {
    let mut b = swgraph::FlowNetworkBuilder::new(net.num_vertices() as u64);
    for e in net.capacitated_edges() {
        b.add_edge(net.tail(e).raw(), net.head(e).raw(), net.capacity(e));
    }
    let first = swgraph::EdgeId::new(0);
    b.add_edge(net.head(first).raw(), net.tail(first).raw(), 1);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgraph::VertexId;

    const PATIENCE: Duration = Duration::from_secs(120);

    fn tiny() -> FlowNetwork {
        FlowNetwork::from_undirected_unit(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn insert_get_and_epoch_bump() {
        let store = GraphStore::new();
        assert!(store.get("g").is_none());
        assert_eq!(store.insert_network("g", tiny()), 1);
        let first = store.get("g").unwrap();
        assert_eq!(first.epoch, 1);
        assert_eq!(store.insert_network("g", tiny()), 2);
        assert_eq!(store.get("g").unwrap().epoch, 2);
        // The old Arc is still alive and still readable.
        assert_eq!(first.network.num_vertices(), 3);
    }

    #[test]
    fn reload_cancels_the_running_build_and_never_serves_a_stale_tree() {
        let store = GraphStore::new();
        // 20 000 searches: far longer than the swap below takes.
        let n = 20_000;
        let big = FlowNetwork::from_undirected_unit(n, &swgraph::gen::barabasi_albert(n, 2, 3));
        store.insert_network("g", big);
        let first = store.get("g").unwrap();
        let slot = Arc::clone(&first.cut_tree);
        let retired = Arc::clone(&first.retired);
        drop(first);
        assert!(!retired.load(Ordering::Relaxed), "the store still holds it");
        // Two triangles joined by one edge: every pair across has flow 1.
        let bridged = FlowNetwork::from_undirected_unit(
            6,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
        );
        assert_eq!(store.insert_network("g", bridged), 2);
        assert!(
            retired.load(Ordering::Relaxed),
            "dropping the snapshot cancels"
        );
        // The build thread lets go of its slot when it stops: at the
        // next step, without finishing the tree.
        let deadline = Instant::now() + PATIENCE;
        while Arc::strong_count(&slot) > 1 {
            assert!(Instant::now() < deadline, "the old build never stopped");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(slot.get().is_none(), "the old build ran to the end");
        // The new epoch's tree is the new graph's.
        let snap = store.get("g").unwrap();
        let CutTreeStatus::Ready(built) = snap.await_cut_tree(PATIENCE) else {
            panic!("{:?}", snap.cut_tree_status());
        };
        assert_eq!(built.tree.num_vertices(), 6);
        assert_eq!(built.tree.max_flow(VertexId::new(0), VertexId::new(5)), 1);
        assert_eq!(built.tree.max_flow(VertexId::new(0), VertexId::new(1)), 2);
    }

    #[test]
    fn the_listener_hears_each_finished_tree_once() {
        let store = GraphStore::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = std::sync::Mutex::new(tx);
        store.on_tree_ready(move |name, epoch, built| {
            let _ = tx
                .lock()
                .unwrap()
                .send((name.to_string(), epoch, built.tree.depth()));
        });
        store.insert_network("g", tiny());
        store.insert_network("h", one_way(&tiny()));
        let heard = rx.recv_timeout(PATIENCE).expect("a ready tree");
        assert_eq!(heard, ("g".to_string(), 1, 2));
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "no tree for h"
        );
    }

    #[test]
    fn reload_requires_a_file_backed_dataset() {
        let store = GraphStore::new();
        store.insert_network("mem", tiny());
        assert!(matches!(
            store.reload("mem"),
            Err(StoreError::NotReloadable(_))
        ));
        assert!(matches!(
            store.reload("nope"),
            Err(StoreError::UnknownDataset(_))
        ));
    }

    #[test]
    fn file_round_trip_and_reload() {
        let dir = std::env::temp_dir().join(format!("ffmrd-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        {
            let f = File::create(&path).unwrap();
            swgraph::io::write_edge_list(&tiny(), std::io::BufWriter::new(f)).unwrap();
        }
        let store = GraphStore::new();
        let p = path.to_str().unwrap();
        assert_eq!(store.load_from_path("g", p).unwrap(), 1);
        assert_eq!(store.get("g").unwrap().network.num_vertices(), 3);
        assert_eq!(store.reload("g").unwrap(), 2);
        let rows = store.list();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "g");
        assert_eq!(rows[0].1, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_load_error() {
        let store = GraphStore::new();
        assert!(matches!(
            store.load_from_path("g", "/nonexistent/graph.txt"),
            Err(StoreError::Load(_))
        ));
        assert!(store.get("g").is_none(), "failed load must not register");
    }
}
