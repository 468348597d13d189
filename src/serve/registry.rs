//! The engine registry: named datasets, each with one warm engine.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use kor_core::{KorEngine, MutationReport};
use kor_data::Snapshot;
use kor_graph::{EdgeMutation, Graph, MutationError};

/// A loaded dataset: the graph plus one warm [`KorEngine`] (inverted
/// index and shared forward-tree cache) reused by every request that
/// names this dataset.
///
/// The engine holds the graph behind an `Arc`, so a `Dataset` owns its
/// data outright and an `Arc<Dataset>` handed to a worker keeps serving
/// even if the registry entry is replaced mid-request.
pub struct Dataset {
    name: String,
    engine: KorEngine<Arc<Graph>>,
    queries_served: AtomicU64,
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("name", &self.name)
            .field("nodes", &self.engine.graph().node_count())
            .field("queries_served", &self.queries_served())
            .finish_non_exhaustive()
    }
}

impl Dataset {
    /// Loads a graph file — text `.korg` or binary `.korbin` snapshot,
    /// sniffed by content — and builds the engine.
    pub fn load(name: &str, path: &Path) -> Result<Dataset, String> {
        let snapshot =
            kor_data::read_world_auto(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Dataset::from_snapshot(name, snapshot))
    }

    /// Wraps an in-memory snapshot's graph (its canned queries are not
    /// served).
    pub fn from_snapshot(name: &str, snapshot: Snapshot) -> Dataset {
        Dataset::from_graph(name, snapshot.graph)
    }

    /// The default registry name for a graph file: its file stem
    /// (`/data/city.korg` → `city`). Shared by the CLI `--dataset` flag
    /// and the `load_dataset` method so naming can never drift.
    pub fn name_from_path(path: &Path) -> Option<String> {
        path.file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
    }

    /// Wraps an already-built graph: a recovered one, or one built in
    /// memory (tests, embedded use).
    pub fn from_graph(name: &str, graph: Graph) -> Dataset {
        Dataset {
            name: name.to_string(),
            engine: KorEngine::new(Arc::new(graph)),
            queries_served: AtomicU64::new(0),
        }
    }

    /// The dataset's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The warm engine for this dataset.
    pub fn engine(&self) -> &KorEngine<Arc<Graph>> {
        &self.engine
    }

    /// Records one answered query (any outcome).
    pub fn note_query(&self) {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries answered against this dataset since it was loaded.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Applies a mutation batch, producing the replacement `Dataset`
    /// (same name, carried query counter) plus the invalidation report.
    /// `self` is untouched — in-flight queries drain on the old value
    /// while the caller swaps the new one into the registry, so no
    /// request ever observes a torn graph.
    ///
    /// The warm engine carries every cache entry across, repairing the
    /// trees the batch changed (on the calling thread).
    pub fn with_mutations(
        &self,
        mutations: &[EdgeMutation],
    ) -> Result<(Dataset, MutationReport), MutationError> {
        let (engine, report) = self.engine.apply_edge_mutations(mutations)?;
        Ok((
            Dataset {
                name: self.name.clone(),
                engine,
                queries_served: AtomicU64::new(self.queries_served()),
            },
            report,
        ))
    }
}

/// Why [`Registry::resolve`] could not produce a dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    /// No dataset with the requested name is loaded.
    Unknown(String),
    /// The request named no dataset and the registry holds zero or
    /// several, so there is no unambiguous default.
    NoDefault(usize),
}

/// Named warm engines behind an `RwLock`: reads (every query) never
/// block each other; writes happen only on `load_dataset`.
#[derive(Default)]
pub struct Registry {
    datasets: RwLock<HashMap<String, Arc<Dataset>>>,
    /// Serializes `update_edges` batches. Mutation builds the new
    /// dataset *outside* the `datasets` lock (queries keep flowing),
    /// but two concurrent batches reading the same base would each
    /// rebuild from it and the last insert would silently drop the
    /// other's changes — holding this for resolve→rebuild→insert makes
    /// batches apply strictly in sequence instead.
    mutation: Mutex<()>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Number of loaded datasets.
    pub fn len(&self) -> usize {
        self.datasets.read().unwrap().len()
    }

    /// Whether no dataset is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts (or replaces) a dataset under its name; returns whether
    /// an earlier dataset was replaced. In-flight queries against a
    /// replaced dataset finish on the engine they already hold.
    pub fn insert(&self, dataset: Dataset) -> bool {
        self.datasets
            .write()
            .unwrap()
            .insert(dataset.name.clone(), Arc::new(dataset))
            .is_some()
    }

    /// The dataset registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets.read().unwrap().get(name).cloned()
    }

    /// Resolves an optional request name: `Some(name)` looks the name
    /// up; `None` succeeds only when exactly one dataset is loaded (the
    /// unambiguous default).
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<Dataset>, ResolveError> {
        let guard = self.datasets.read().unwrap();
        match name {
            Some(n) => guard
                .get(n)
                .cloned()
                .ok_or_else(|| ResolveError::Unknown(n.to_string())),
            None if guard.len() == 1 => Ok(guard.values().next().cloned().expect("len 1")),
            None => Err(ResolveError::NoDefault(guard.len())),
        }
    }

    /// Takes the registry-wide mutation lock; hold the guard across
    /// resolve → [`Dataset::with_mutations`] → [`Registry::insert`] so
    /// concurrent mutation batches serialize instead of losing updates.
    pub fn mutation_guard(&self) -> MutexGuard<'_, ()> {
        self.mutation.lock().unwrap()
    }

    /// All loaded datasets, sorted by name (stable stats output).
    pub fn all(&self) -> Vec<Arc<Dataset>> {
        let mut v: Vec<Arc<Dataset>> = self.datasets.read().unwrap().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::figure1;

    #[test]
    fn resolve_default_needs_exactly_one() {
        let r = Registry::new();
        assert!(matches!(r.resolve(None), Err(ResolveError::NoDefault(0))));
        r.insert(Dataset::from_graph("a", figure1()));
        assert_eq!(r.resolve(None).unwrap().name(), "a");
        r.insert(Dataset::from_graph("b", figure1()));
        assert!(matches!(r.resolve(None), Err(ResolveError::NoDefault(2))));
        assert_eq!(r.resolve(Some("b")).unwrap().name(), "b");
        assert!(matches!(r.resolve(Some("zzz")), Err(ResolveError::Unknown(ref n)) if n == "zzz"));
    }

    #[test]
    fn insert_reports_replacement_and_keeps_old_arcs_alive() {
        let r = Registry::new();
        assert!(!r.insert(Dataset::from_graph("a", figure1())));
        let old = r.get("a").unwrap();
        old.note_query();
        assert!(r.insert(Dataset::from_graph("a", figure1())));
        // The replaced dataset is still usable through its Arc…
        assert_eq!(old.queries_served(), 1);
        // …while lookups see the fresh one.
        assert_eq!(r.get("a").unwrap().queries_served(), 0);
    }

    #[test]
    fn load_accepts_binary_snapshots() {
        let dir = std::env::temp_dir().join(format!("kor-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.korbin");
        kor_data::write_snapshot(&path, &kor_data::Snapshot::graph_only(figure1())).unwrap();
        let d = Dataset::load("fig1", &path).unwrap();
        assert_eq!(d.engine().graph().node_count(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reports_missing_file() {
        let err = Dataset::load("x", Path::new("/nonexistent/graph.korg")).unwrap_err();
        assert!(err.contains("graph.korg"));
    }

    #[test]
    fn with_mutations_replaces_dataset_without_touching_the_old() {
        let r = Registry::new();
        r.insert(Dataset::from_graph("a", figure1()));
        let old = r.get("a").unwrap();
        old.note_query();
        let batch = [EdgeMutation::scale(
            kor_graph::NodeId(4),
            kor_graph::NodeId(7),
            1.0,
            2.0,
        )];
        let _guard = r.mutation_guard();
        let (updated, report) = old.with_mutations(&batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(updated.name(), "a");
        assert_eq!(updated.queries_served(), 1, "query counter is carried");
        r.insert(updated);
        assert_eq!(r.get("a").unwrap().engine().graph().epoch(), 1);
        // The old Arc still answers on the unmutated graph.
        assert_eq!(old.engine().graph().epoch(), 0);
    }

    #[test]
    fn all_is_sorted() {
        let r = Registry::new();
        for name in ["zeta", "alpha", "mid"] {
            r.insert(Dataset::from_graph(name, figure1()));
        }
        let names: Vec<String> = r.all().iter().map(|d| d.name().to_string()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
