//! The ranking service: request routing, deterministic rank computation,
//! response caching, and the `TcpListener` + thread-pool runtime.
//!
//! ## Determinism contract
//!
//! For a fixed request body, the `/rank` response **body** is byte-identical
//! across runs, worker counts and rayon thread counts: the estimate itself
//! is bit-identical for a given seed (PR 1's counter-based chunk RNG
//! streams), JSON objects serialize in fixed field order, and `f64`
//! formatting is Rust's shortest round-trip `Display`. Cache hits replay
//! the stored body verbatim, so they cannot break the contract; whether a
//! response was served from cache is reported out-of-band in the
//! `X-Saphyra-Cache` header (`hit` / `miss` / `shared` / `batched`).
//!
//! Cross-request batching preserves the contract: every computation runs
//! one ranking call per measure over the batch's target sets, which is
//! bit-identical *per set* to ranking that set alone with the same seed —
//! so the bytes of a response are the same whether its batch had one
//! member or eight. Batching changes only scheduling, never content.
//!
//! ## Concurrency model
//!
//! Graph entries (graph + decomposition) are immutable `Arc`s from the
//! [`Registry`]; every `/rank` request builds its own sampler scratch
//! (`BcApproxProblem` / `HrSampler`), so concurrent requests share only
//! read-only state. All other shared `/rank` state lives in two tables,
//! each a mutex held only for lookups and updates — never during
//! sampling:
//!
//! - the **cache**, an LRU of finished bodies, each entry flagged `warm`
//!   when it was restored from a snapshot's warm section;
//! - the **class table**. Cold requests that differ only in their target
//!   set — same graph, measure, ε, δ, seed and k, one *class* — share
//!   sample passes by group commit, one pass per class at a time. The
//!   table holds, per class, the members of the running pass and the
//!   members queued behind it, each a target set plus the slot its body
//!   is answered on.
//!
//! A cold request takes the class lock, re-checks the cache, and looks its
//! target set up among its class's members. If a twin is there, it parks
//! on the twin's slot and replays the same bytes (`X-Saphyra-Cache:
//! shared`): single-flight is a lookup in the class table. Otherwise it
//! enrolls. A request whose class is idle computes at once as a pass of
//! one; requests arriving while a pass runs queue behind it, and the first
//! of them waits that pass out and runs **one** shared sample pass that
//! scores every queued target set (`X-Saphyra-Cache: batched`, counted in
//! `/healthz` as `batched` / `sample_passes`). No timer is involved:
//! batches are exactly what arrived while the class was busy.
//!
//! A pass inserts all its bodies into the cache under one cache-lock hold,
//! then leaves the class table — handing the class to the batch queued
//! behind, or removing it — and only then answers its members' slots. A
//! request that no longer finds its twin in the table therefore finds the
//! twin's body in the cache. A pass that unwinds leaves the table the same
//! way and answers its members with 500.
//!
//! ## Connection model
//!
//! Connections are persistent (HTTP/1.1 keep-alive) and are **owned by a
//! single reactor thread**, not by workers: the reactor drives every
//! socket nonblocking through an `epoll`/`poll` readiness loop
//! ([`crate::reactor`]), runs the per-connection state machine (read
//! buffer → incremental [`crate::http::RequestParser`] → dispatch → write
//! buffer), and hands **complete requests** to a pure compute pool over a
//! channel. Workers therefore bound concurrent *requests*: ten thousand
//! parked idle connections cost the pool nothing, and
//! [`ServiceConfig::workers`] sizes to CPU, not to client count.
//!
//! Requests are **pipelined**: the parser keeps consuming buffered
//! requests (up to [`ServiceConfig::pipeline_depth`] in flight per
//! connection) while earlier responses drain, and responses are written
//! strictly in request arrival order per connection, whatever order the
//! workers finish in. Idle timeouts ride a timer wheel and shutdown wakes
//! the reactor through a self-pipe — there is no timed polling loop
//! anywhere in the connection path.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use rand::rngs::StdRng;
use rand::SeedableRng;
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra::closeness::rank_harmonic;
use saphyra::framework::SaphyraEstimate;
use saphyra::kpath::rank_kpath;
use saphyra::params;
use saphyra_gen::datasets::{SimNetwork, SizeClass};
use saphyra_graph::{io as graph_io, AppliedDelta, EdgeDelta, NodeId};

use crate::cache::LruCache;
use crate::http::{ParseStatus, Request, RequestParser, Response};
use crate::json::Json;
use crate::persist::{self, valid_graph_name};
use crate::reactor::{new_poller, Event, Poller, TimerWheel, WakePipe};
use crate::registry::{GraphEntry, Registry};
use crate::shard::ShardPool;
use crate::sync::{CondvarExt, LockExt};

/// What a node does with graph-scoped requests.
///
/// - `Standalone` (the default): owns graphs and computes every ranking
///   in-process. A shard behind a router is a plain standalone node.
/// - `Router`: owns no graphs. It forwards `POST /graphs`,
///   `PATCH /graphs/<name>` and `POST /rank` to shard
///   `crc32(name) % shards` and merges `GET /graphs` from every shard
///   ([`crate::shard::ShardPool::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Compute everything locally (default).
    #[default]
    Standalone,
    /// Forward graph-scoped requests to the shard each graph hashes to.
    Router,
}

impl Role {
    /// Lowercase wire/CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Role::Standalone => "standalone",
            Role::Router => "router",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "standalone" => Some(Role::Standalone),
            "router" => Some(Role::Router),
            _ => None,
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads computing responses (0 = available parallelism).
    /// Workers bound concurrent *requests*, not connections — idle
    /// connections are parked in the reactor and cost no worker.
    pub workers: usize,
    /// Completed-ranking cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// How long a persistent connection may sit idle (no request bytes
    /// arriving, nothing owed to the client) before the reactor closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it with
    /// `Connection: close` (0 = unlimited).
    pub max_requests_per_conn: usize,
    /// Open-connection cap: connections accepted beyond it are closed
    /// immediately (0 = unlimited). Purely a memory/fd bound — parked
    /// connections no longer hold workers.
    pub max_connections: usize,
    /// Requests that may be parsed-and-in-flight per connection before
    /// the reactor stops reading from it (HTTP/1.1 pipelining depth;
    /// clamped to ≥ 1). Responses always return in request order.
    pub pipeline_depth: usize,
    /// Journal rotation bound: when appending a line would push
    /// `journal.log` past this many bytes, it is first rotated to
    /// `journal.log.1` (atomically, replacing any previous rotation).
    /// `None` keeps the pre-rotation append-forever behavior.
    pub journal_max_bytes: Option<u64>,
    /// State directory for registry persistence. When set, graph loads
    /// write crash-safe snapshots there ([`crate::persist`]), every
    /// `/rank` request appends a journal line, and construction restores
    /// all `*.snap` files into the registry — skipping re-decomposition
    /// entirely for intact snapshots. `None` disables persistence (the
    /// pre-PR-4 behavior). Persistence failures degrade with a warning on
    /// stderr; they never fail a request or a boot.
    pub state_dir: Option<PathBuf>,
    /// What this node does with the registry and `/rank` (see [`Role`]).
    pub role: Role,
    /// Shard backend addresses (`host:port`), router role only. A list
    /// that fails [`saphyra::params::check_shard_addrs`] answers 400 on
    /// every routed request; the CLI rejects it before serving.
    pub shards: Vec<String>,
    /// Re-snapshot cadence for `PATCH /graphs/<name>`: every this-many
    /// applied deltas (per graph), the patched graph is written out as a
    /// fresh snapshot, so a restart replays at most this many journaled
    /// patch records per graph instead of the whole history. Clamped to
    /// ≥ 1; 1 snapshots on every patch.
    pub resnapshot_deltas: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: 128,
            idle_timeout: Duration::from_secs(10),
            max_requests_per_conn: 1024,
            max_connections: 4096,
            pipeline_depth: 32,
            journal_max_bytes: None,
            state_dir: None,
            role: Role::Standalone,
            shards: Vec::new(),
            resnapshot_deltas: 16,
        }
    }
}

/// Maximum warm-cache entries persisted per graph on re-snapshot. Bounds
/// the warm section (each entry is one JSON body plus its key) so
/// snapshots stay dominated by the graph section, while still covering a
/// restarted node's whole hot set for realistic request skews.
const WARM_CAP: usize = 32;

/// Centrality measures the service can rank by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Measure {
    Betweenness,
    KPath,
    Harmonic,
}

impl Measure {
    fn parse(s: &str) -> Option<Measure> {
        match s {
            "bc" | "betweenness" => Some(Measure::Betweenness),
            "kpath" => Some(Measure::KPath),
            "harmonic" | "closeness" => Some(Measure::Harmonic),
            _ => None,
        }
    }

    fn as_str(&self) -> &'static str {
        match self {
            Measure::Betweenness => "bc",
            Measure::KPath => "kpath",
            Measure::Harmonic => "harmonic",
        }
    }

    /// Stable wire code used by the snapshot warm section
    /// ([`persist::WarmEntry::measure`]). The service owns this mapping;
    /// persist treats the byte as opaque.
    fn code(&self) -> u8 {
        match self {
            Measure::Betweenness => 0,
            Measure::KPath => 1,
            Measure::Harmonic => 2,
        }
    }

    /// Inverse of [`Measure::code`]. `None` for codes this build does not
    /// know — a warm entry written by a newer build is dropped, never
    /// misfiled under the wrong measure.
    fn from_code(code: u8) -> Option<Measure> {
        match code {
            0 => Some(Measure::Betweenness),
            1 => Some(Measure::KPath),
            2 => Some(Measure::Harmonic),
            _ => None,
        }
    }
}

/// Everything that makes a `/rank` response unique: its class and its
/// target set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RankKey {
    class: BatchKey,
    targets: Vec<NodeId>,
}

/// A cache entry: a finished `/rank` body, and whether it was restored
/// from a snapshot's warm section (hits on it count in `warm_hits`). Only
/// [`Service::restore_warm`] sets `warm`; a `PATCH` re-key moves the entry
/// whole, and eviction, purge and poison repair drop the flag with the
/// body.
#[derive(Debug)]
struct Cached {
    body: Arc<String>,
    warm: bool,
}

/// A validated `/rank` request.
struct RankParams {
    graph: String,
    measure: Measure,
    targets: Vec<NodeId>,
    eps: f64,
    delta: f64,
    seed: u64,
    khops: usize,
}

impl RankParams {
    /// The request's coalescing class against graph load `epoch`.
    fn batch_key(&self, epoch: u64) -> BatchKey {
        BatchKey {
            graph: self.graph.clone(),
            epoch,
            measure: self.measure,
            eps_bits: self.eps.to_bits(),
            delta_bits: self.delta.to_bits(),
            seed: self.seed,
            khops: self.khops,
        }
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub(crate) fn error_response(status: u16, message: impl Into<String>) -> Response {
    Response::json(
        status,
        obj(vec![("error", Json::from(message.into()))]).to_string(),
    )
}

/// A `/rank` body with its `X-Saphyra-Cache` disposition.
fn reply(body: &str, disposition: &str) -> Response {
    Response::json(200, body).with_header("X-Saphyra-Cache", disposition)
}

/// The slot one member's body is answered on: its pass fills it once, and
/// the member and its twins wake on the condvar. The inner `Option` is
/// `None` when the pass died without a body (it panicked), in which case
/// they answer 500 rather than hanging or recomputing.
#[derive(Debug, Default)]
struct Slot {
    done: Mutex<Option<Option<Arc<String>>>>,
    cv: Condvar,
}

impl Slot {
    /// Blocks until the slot is filled; `None` means its pass died.
    fn wait(&self) -> Option<Arc<String>> {
        let mut done = self.done.lock_ok();
        loop {
            match done.as_ref() {
                Some(r) => return r.clone(),
                None => done = self.cv.wait_ok(done),
            }
        }
    }

    /// Answers the slot and wakes everyone parked on it.
    fn fill(&self, body: Option<Arc<String>>) {
        *self.done.lock_ok() = Some(body);
        self.cv.notify_all();
    }
}

/// The coalescing class of a `/rank` request: [`RankKey`] minus the target
/// set. Cold requests that agree on everything *except* targets can share
/// one sample stream — one ranking call scores every target set from the
/// same master seed, bit-identical per member to ranking it alone.
/// `eps`/`delta` enter by bit pattern: distinct floats that print
/// identically are still distinct requests. `epoch` pins the class to one
/// *load* of the graph: a request that raced a same-name reload or a
/// `PATCH` and computed against the old entry caches under the old epoch,
/// never to be served to requests resolving the new entry — and an
/// old-epoch class admits no new request, so its passes simply drain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BatchKey {
    graph: String,
    epoch: u64,
    measure: Measure,
    eps_bits: u64,
    delta_bits: u64,
    seed: u64,
    khops: usize,
}

/// One enrolled request of a class: its target set and the slot its body
/// is answered on. Twins — later requests for the same target set while
/// it is running or queued — park on the same slot.
#[derive(Debug, Clone)]
struct Member {
    targets: Vec<NodeId>,
    slot: Arc<Slot>,
}

/// The class table's entry for a [`BatchKey`] with a pass running: that
/// pass's members, and the members queued behind it. The running pass's
/// [`Pass`] guard hands the entry to `queued` when the pass ends, or
/// removes it when nothing queued.
#[derive(Debug)]
struct Class {
    running: Vec<Member>,
    queued: Vec<Member>,
}

/// Where a cold request lands in the class table.
enum Seat {
    /// A twin with the same target set is running or queued: replay its
    /// body.
    Twin(Arc<Slot>),
    /// The class was idle: run a pass of this member alone, at once.
    Lead(Member),
    /// First in the queue: wait out the running pass (these are its
    /// members' slots), then run the queued batch.
    Seal(Vec<Arc<Slot>>),
    /// Queued behind a first member that runs the batch: wait for our own
    /// slot.
    Joined,
}

/// One sample pass of a class, from its start to its answers. Dropping it
/// — after the pass, or while it unwinds — hands the class entry to the
/// batch queued behind (or removes it when nothing queued), then answers
/// every member's slot: with its body once `bodies` is set, with `None`
/// (500) otherwise.
struct Pass<'a> {
    service: &'a Service,
    class: BatchKey,
    members: Vec<Member>,
    bodies: Vec<Arc<String>>,
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        {
            let mut batches = self.service.batches.lock_ok();
            if let Some(class) = batches.get_mut(&self.class) {
                if class.queued.is_empty() {
                    batches.remove(&self.class);
                } else {
                    class.running = std::mem::take(&mut class.queued);
                }
            }
        }
        let mut bodies = std::mem::take(&mut self.bodies).into_iter();
        for m in &self.members {
            m.slot.fill(bodies.next());
        }
    }
}

/// Shared service state: registry, the two `/rank` tables, counters.
/// Routing lives in [`Service::handle`], which is pure with respect to the
/// network layer and therefore directly testable.
#[derive(Debug)]
pub struct Service {
    registry: Registry,
    /// Finished `/rank` bodies (module docs).
    cache: Mutex<LruCache<RankKey, Cached>>,
    /// The class table: per class with a pass running, its members and
    /// the members queued behind it (module docs).
    batches: Mutex<HashMap<BatchKey, Class>>,
    requests: AtomicU64,
    connections: AtomicU64,
    open_connections: AtomicU64,
    pipelined: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_shared: AtomicU64,
    computations: AtomicU64,
    batched: AtomicU64,
    sample_passes: AtomicU64,
    decompositions: AtomicU64,
    snapshots_loaded: AtomicU64,
    warm_hits: AtomicU64,
    patches: AtomicU64,
    patches_replayed: AtomicU64,
    persist: Option<PersistState>,
    /// Serializes the snapshot-write + registry-insert pair of a graph
    /// load. Without it, two concurrent same-name loads can finish in
    /// opposite orders on disk and in memory — the running service would
    /// then rank one graph and a restart silently restore the other.
    load_publish: Mutex<()>,
    role: Role,
    /// Shard backends (router role only).
    shards: Option<ShardPool>,
    workers: usize,
    idle_timeout: Duration,
    max_requests_per_conn: usize,
    max_connections: usize,
    pipeline_depth: usize,
    resnapshot_deltas: usize,
}

/// Open persistence resources of a service with a state directory.
#[derive(Debug)]
struct PersistState {
    dir: PathBuf,
    journal: persist::Journal,
}

impl Service {
    /// Creates the state for a server with the given configuration. With
    /// [`ServiceConfig::state_dir`] set, the directory is created if
    /// missing, every snapshot in it is restored into the registry, and
    /// the request journal is opened for appending. Persistence problems
    /// (unwritable dir, damaged snapshots) warn on stderr and degrade —
    /// they never panic and never abort construction.
    pub fn new(cfg: ServiceConfig) -> Self {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let persist = cfg.state_dir.as_ref().and_then(|dir| {
            let open = std::fs::create_dir_all(dir)
                .and_then(|()| persist::Journal::open_with_limit(dir, cfg.journal_max_bytes))
                .map(|journal| PersistState {
                    dir: dir.clone(),
                    journal,
                });
            match open {
                Ok(state) => Some(state),
                Err(e) => {
                    eprintln!(
                        "warning: state dir {} unusable ({e}); persistence disabled",
                        dir.display()
                    );
                    None
                }
            }
        });
        let service = Service {
            registry: Registry::new(),
            cache: Mutex::new(LruCache::new(cfg.cache_capacity)),
            batches: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            pipelined: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_shared: AtomicU64::new(0),
            computations: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            sample_passes: AtomicU64::new(0),
            decompositions: AtomicU64::new(0),
            snapshots_loaded: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            patches_replayed: AtomicU64::new(0),
            persist,
            load_publish: Mutex::new(()),
            role: cfg.role,
            shards: (cfg.role == Role::Router).then(|| ShardPool::new(cfg.shards.clone())),
            workers,
            idle_timeout: cfg.idle_timeout,
            max_requests_per_conn: cfg.max_requests_per_conn,
            max_connections: cfg.max_connections,
            pipeline_depth: cfg.pipeline_depth.max(1),
            resnapshot_deltas: cfg.resnapshot_deltas.max(1),
        };
        // Restore straight from the configured dir, NOT via `persist`: a
        // readable-but-unwritable state dir (read-only remount, tightened
        // perms) must still restore every intact snapshot — only the
        // *write* side (snapshots + journal) degrades.
        if let Some(dir) = cfg.state_dir.as_ref() {
            service.restore_from_dir(dir);
            service.replay_patch_records(dir);
        }
        service
    }

    /// Restores every `*.snap` snapshot in `dir` into the registry
    /// (name-sorted). On unix each graph section serves zero-copy from a
    /// private read-only mapping of the file
    /// ([`persist::load_snapshot_mapped`]), validated by the same CSR
    /// checks as the owned decode that non-unix and big-endian hosts, or a
    /// failed `mmap`, fall back to. Intact snapshots skip decomposition
    /// entirely; a snapshot whose decomposition section is damaged or
    /// version-mismatched falls back to recomputing it from the restored
    /// graph with a warning (and rewrites the repaired snapshot, so the
    /// recompute cost is paid once, not on every subsequent boot); a
    /// snapshot whose graph section is damaged or fails CSR validation,
    /// whose container version is not [`persist::SNAPSHOT_VERSION`] (the
    /// warning names the version and how to re-save), or whose embedded
    /// name does not match its file stem, is skipped with a warning.
    /// Warm-section entries are re-inserted into the ranking cache under
    /// the fresh entry epoch, so the hottest pre-restart requests answer
    /// without recomputation. Returns `(restored, recomputed)` counts.
    ///
    /// `serve --state-dir` boots call this through [`Service::new`]; the
    /// offline `saphyra snapshot replay` path calls it directly on a
    /// journal-less service.
    pub fn restore_from_dir(&self, dir: &Path) -> (usize, usize) {
        let paths = match persist::scan_snapshots(dir) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("warning: cannot scan {}: {e}", dir.display());
                return (0, 0);
            }
        };
        let (mut restored, mut recomputed) = (0usize, 0usize);
        for path in paths {
            let snap = match persist::load_snapshot_mapped(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("warning: skipping snapshot {}: {e}", path.display());
                    continue;
                }
            };
            // The file stem is the registry's authority on which name a
            // snapshot serves (`<name>.snap` is what loads write). A file
            // whose embedded name disagrees — e.g. an offline
            // `snapshot save --name g other.snap` dropped into the dir —
            // must not shadow the genuine `g.snap` by scan order.
            let stem = path.file_stem().and_then(|s| s.to_str());
            if stem != Some(snap.name.as_str()) {
                eprintln!(
                    "warning: skipping snapshot {}: embedded graph name {:?} does not match \
                     the file stem",
                    path.display(),
                    snap.name
                );
                continue;
            }
            let persist::LoadedSnapshot {
                name: graph_name,
                graph,
                dec,
                delta_seq,
                warm,
            } = snap;
            let entry = match dec {
                Ok(dec) => {
                    self.snapshots_loaded.fetch_add(1, Ordering::Relaxed);
                    restored += 1;
                    GraphEntry::from_parts_seq(graph_name, graph, dec, delta_seq)
                }
                Err(reason) => {
                    eprintln!(
                        "warning: snapshot {}: decomposition unusable ({reason}); recomputing",
                        path.display()
                    );
                    self.decompositions.fetch_add(1, Ordering::Relaxed);
                    recomputed += 1;
                    let dec = saphyra::bc::BcDecomposition::compute(&graph);
                    let entry = GraphEntry::from_parts_seq(graph_name, graph, dec, delta_seq);
                    // Self-heal: rewrite the repaired snapshot (warm
                    // section included — the cached bodies are keyed by
                    // request parameters, not by the decomposition) so the
                    // next boot restores instead of recomputing again.
                    match persist::save_snapshot_with_warm(
                        &path,
                        &entry.name,
                        &entry.graph,
                        &entry.dec,
                        entry.delta_seq,
                        &warm,
                    ) {
                        Ok(()) => eprintln!("repaired snapshot {}", path.display()),
                        Err(e) => {
                            eprintln!("warning: cannot rewrite {}: {e}", path.display())
                        }
                    }
                    entry
                }
            };
            let (name, epoch) = (entry.name.clone(), entry.epoch);
            self.registry.insert(entry);
            self.restore_warm(&name, epoch, warm);
        }
        (restored, recomputed)
    }

    /// Re-inserts a snapshot's warm-section bodies into the ranking cache
    /// under `epoch` (the fresh epoch minted for the restored entry — the
    /// persisted requests were keyed under a dead pre-restart epoch).
    /// Entries naming a measure code this build does not know are dropped
    /// with a warning. The restored entries are flagged `warm`, so hits on
    /// them count in `warm_hits`.
    fn restore_warm(&self, name: &str, epoch: u64, entries: Vec<persist::WarmEntry>) {
        for e in entries {
            let Some(measure) = Measure::from_code(e.measure) else {
                eprintln!(
                    "warning: dropping warm entry for {name:?} with unknown measure code {}",
                    e.measure
                );
                continue;
            };
            let key = RankKey {
                class: BatchKey {
                    graph: name.to_string(),
                    epoch,
                    measure,
                    eps_bits: e.eps_bits,
                    delta_bits: e.delta_bits,
                    seed: e.seed,
                    khops: e.khops as usize,
                },
                targets: e.targets,
            };
            let cached = Cached {
                body: Arc::new(e.body),
                warm: true,
            };
            self.lock_cache().insert(key, cached);
        }
    }

    /// Collects the hottest cached bodies of `graph` (by LRU recency,
    /// newest first, capped at [`WARM_CAP`]) as snapshot warm entries.
    /// Walks [`LruCache::iter`], so collection never perturbs the ordering
    /// it ranks by.
    fn collect_warm(&self, graph: &str) -> Vec<persist::WarmEntry> {
        let hot: Vec<(RankKey, Arc<String>)> = self
            .lock_cache()
            .iter()
            .rev()
            .filter(|(k, _)| k.class.graph == graph)
            .take(WARM_CAP)
            .map(|(k, c)| (k.clone(), Arc::clone(&c.body)))
            .collect();
        hot.into_iter()
            .map(|(k, body)| persist::WarmEntry {
                measure: k.class.measure.code(),
                targets: k.targets,
                eps_bits: k.class.eps_bits,
                delta_bits: k.class.delta_bits,
                seed: k.class.seed,
                khops: k.class.khops as u64,
                body: body.as_str().to_string(),
            })
            .collect()
    }

    /// Rewrites every registered graph's snapshot with its current warm
    /// section — the `POST /shutdown` path, so the *next* boot serves this
    /// run's hottest requests from the page cache. No-op (returning 0)
    /// without persistence. Returns the number of snapshots written.
    fn write_warm_snapshots(&self) -> usize {
        let Some(p) = &self.persist else { return 0 };
        let publish = self.load_publish.lock_ok();
        let mut written = 0;
        for entry in self.registry.list() {
            let warm = self.collect_warm(&entry.name);
            let path = persist::snapshot_path(&p.dir, &entry.name);
            match persist::save_snapshot_with_warm(
                &path,
                &entry.name,
                &entry.graph,
                &entry.dec,
                entry.delta_seq,
                &warm,
            ) {
                Ok(()) => written += 1,
                Err(e) => eprintln!("warning: cannot snapshot {}: {e}", path.display()),
            }
        }
        drop(publish);
        written
    }

    /// Re-applies journaled `PATCH /graphs/<name>` deltas on top of the
    /// restored snapshots — the read side of delta journaling. A record is
    /// applied only when its sequence number is exactly one past the
    /// entry's `delta_seq`: records the snapshot already contains are
    /// skipped, and a gap (older records rotated away after the matching
    /// re-snapshot was lost) is reported instead of misapplied — the graph
    /// then serves at its snapshot state, never a wrong one. Returns the
    /// number of deltas applied.
    ///
    /// `serve --state-dir` boots call this through [`Service::new`] right
    /// after [`Service::restore_from_dir`]; the offline `snapshot replay`
    /// CLI does the same before replaying `/rank` records.
    pub fn replay_patch_records(&self, dir: &Path) -> usize {
        let records = match persist::read_patch_records(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "warning: cannot read patch records in {}: {e}",
                    dir.display()
                );
                return 0;
            }
        };
        let mut applied = 0;
        for rec in records {
            let Some(entry) = self.registry.get(&rec.graph) else {
                // The graph's snapshot is gone (or never existed); its
                // surviving patch records are orphans.
                continue;
            };
            if rec.seq <= entry.delta_seq {
                continue; // already folded into the snapshot
            }
            if rec.seq != entry.delta_seq + 1 {
                eprintln!(
                    "warning: patch journal gap for {:?}: have seq {}, next surviving record \
                     is {} — serving the snapshot state",
                    rec.graph, entry.delta_seq, rec.seq
                );
                continue;
            }
            let delta = EdgeDelta {
                insert: rec.insert.clone(),
                delete: rec.delete.clone(),
            };
            match saphyra_graph::delta::apply(&entry.graph, &delta) {
                Ok(out) => {
                    let dec = BcDecomposition::compute(&out.graph);
                    self.registry.insert(GraphEntry::from_parts_seq(
                        rec.graph.clone(),
                        out.graph,
                        dec,
                        rec.seq,
                    ));
                    self.patches.fetch_add(1, Ordering::Relaxed);
                    self.patches_replayed.fetch_add(1, Ordering::Relaxed);
                    applied += 1;
                }
                Err(e) => {
                    eprintln!(
                        "warning: journaled patch seq {} for {:?} no longer applies ({e}); \
                         serving the graph as of seq {}",
                        rec.seq, rec.graph, entry.delta_seq
                    );
                }
            }
        }
        applied
    }

    /// The graph registry (pre-loading graphs before `serve` is handy in
    /// tests and benches).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Lifetime cache-hit count.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache-miss count.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Lifetime count of requests that waited on another request's
    /// in-flight computation and replayed its bytes.
    pub fn cache_shared(&self) -> u64 {
        self.cache_shared.load(Ordering::Relaxed)
    }

    /// Lifetime count of ranking computations actually performed (misses
    /// minus single-flight collapsing).
    pub fn computations(&self) -> u64 {
        self.computations.load(Ordering::Relaxed)
    }

    /// Lifetime count of `/rank` requests whose computation was coalesced
    /// into a shared sample pass with at least one other request (batch
    /// members in batches of size ≥ 2, leaders included).
    pub fn batched(&self) -> u64 {
        self.batched.load(Ordering::Relaxed)
    }

    /// Lifetime count of sample passes run: one per sealed batch, whatever
    /// its size. `computations - sample_passes` is the work saved by
    /// cross-request batching.
    pub fn sample_passes(&self) -> u64 {
        self.sample_passes.load(Ordering::Relaxed)
    }

    /// Lifetime count of TCP connections accepted.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Currently open connections (gauge: accepted minus closed).
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Lifetime count of requests parsed off a connection while an
    /// earlier response on the same connection was still in flight
    /// (pipelining actually happening, not merely allowed).
    pub fn pipelined(&self) -> u64 {
        self.pipelined.load(Ordering::Relaxed)
    }

    /// Lifetime count of graph loads and snapshot-fallback recomputes,
    /// each one decomposition (a PATCH's rebuild counts under `patches`).
    /// A service booted purely from intact snapshots reports 0 — the whole
    /// point of persistence.
    pub fn decompositions(&self) -> u64 {
        self.decompositions.load(Ordering::Relaxed)
    }

    /// Lifetime count of registry entries restored from snapshots without
    /// recomputation.
    pub fn snapshots_loaded(&self) -> u64 {
        self.snapshots_loaded.load(Ordering::Relaxed)
    }

    /// Lifetime count of edge-delta patches applied (`PATCH
    /// /graphs/<name>`), boot replay included.
    pub fn patches(&self) -> u64 {
        self.patches.load(Ordering::Relaxed)
    }

    /// Lifetime count of journaled patch records re-applied at boot.
    pub fn patches_replayed(&self) -> u64 {
        self.patches_replayed.load(Ordering::Relaxed)
    }

    /// Lifetime count of cache hits answered by bodies restored from a
    /// snapshot's warm section — work a restart did *not* redo.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    /// Looks `key` up in the cache, counting a hit — and a warm hit when
    /// the body was restored from a snapshot's warm section, read from the
    /// entry under the cache lock the lookup already holds.
    fn cached(&self, key: &RankKey) -> Option<Arc<String>> {
        let mut cache = self.lock_cache();
        let hit = cache.get(key)?;
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        if hit.warm {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        }
        Some(Arc::clone(&hit.body))
    }

    /// Locks the ranking cache, recovering from poison by clearing it: a
    /// panic mid-update may have left the LRU's two maps out of step, and
    /// an empty cache is always consistent — losing it costs cold misses.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, LruCache<RankKey, Cached>> {
        self.cache.lock_repair(LruCache::clear)
    }

    /// Routes one request. The boolean asks the runtime to shut down. A
    /// router hands graph-scoped requests to its [`ShardPool`]; everything
    /// else, and every request on a standalone node, is served here.
    pub fn handle(&self, req: &Request) -> (Response, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(resp) = self.shards.as_ref().and_then(|pool| pool.route(req)) {
            return (resp, false);
        }
        let resp = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/graphs") => self.list_graphs(),
            ("POST", "/graphs") => match json_body(req) {
                Ok(json) => self.load_graph(&json),
                Err(e) => error_response(400, e),
            },
            ("POST", "/rank") => {
                // Parse the body exactly once; ranking and the journal
                // both consume the same parsed value.
                let body = json_body(req);
                let resp = match &body {
                    Ok(json) => self.rank(json),
                    Err(e) => error_response(400, e.clone()),
                };
                self.journal_rank(body.ok(), &resp);
                resp
            }
            ("POST", "/shutdown") => {
                // Flush warm-enriched snapshots first: the hottest cached
                // bodies ride the snapshot down so the next boot answers
                // them from the page cache instead of recomputing.
                let warm_snapshots = self.write_warm_snapshots();
                let body = obj(vec![
                    ("status", Json::from("shutting down")),
                    ("warm_snapshots", Json::from(warm_snapshots)),
                ])
                .to_string();
                return (Response::json(200, body), true);
            }
            ("PATCH", path) => match path.strip_prefix("/graphs/").filter(|n| !n.is_empty()) {
                None => error_response(404, format!("no such endpoint {}", req.path)),
                Some(name) => match json_body(req) {
                    Ok(json) => self.patch_graph(name, &json),
                    Err(e) => error_response(400, e),
                },
            },
            ("GET" | "POST", _) => error_response(404, format!("no such endpoint {}", req.path)),
            _ => error_response(405, format!("method {} not allowed", req.method)),
        };
        (resp, false)
    }

    fn healthz(&self) -> Response {
        // Memory gauges: bytes the registry's CSR arrays occupy, owned or
        // mapped, and how many graphs serve zero-copy from mapped snapshots.
        let (resident_graph_bytes, mmap_graphs) =
            self.registry
                .list()
                .iter()
                .fold((0usize, 0usize), |(bytes, mapped), e| {
                    (
                        bytes + e.graph.csr_bytes(),
                        mapped + usize::from(e.graph.is_mapped()),
                    )
                });
        let body = obj(vec![
            ("status", Json::from("ok")),
            ("role", Json::from(self.role.as_str())),
            (
                "shards",
                Json::from(self.shards.as_ref().map_or(0, ShardPool::len)),
            ),
            ("graphs", Json::from(self.registry.len())),
            ("workers", Json::from(self.workers)),
            (
                "requests",
                Json::from(self.requests.load(Ordering::Relaxed)),
            ),
            ("connections", Json::from(self.connections())),
            ("open_connections", Json::from(self.open_connections())),
            ("pipelined", Json::from(self.pipelined())),
            ("cache_hits", Json::from(self.cache_hits())),
            ("cache_misses", Json::from(self.cache_misses())),
            ("cache_shared", Json::from(self.cache_shared())),
            ("computations", Json::from(self.computations())),
            ("batched", Json::from(self.batched())),
            ("sample_passes", Json::from(self.sample_passes())),
            ("decompositions", Json::from(self.decompositions())),
            ("snapshots_loaded", Json::from(self.snapshots_loaded())),
            ("patches", Json::from(self.patches())),
            ("patches_replayed", Json::from(self.patches_replayed())),
            ("resident_graph_bytes", Json::from(resident_graph_bytes)),
            ("mmap_graphs", Json::from(mmap_graphs)),
            ("warm_hits", Json::from(self.warm_hits())),
        ])
        .to_string();
        Response::json(200, body)
    }

    /// Appends one journal line for a handled `/rank` request (no-op
    /// without a state dir). `request` is the already-parsed body (`None`
    /// when it was not valid JSON). Journal failures warn; the response
    /// already computed is served regardless.
    fn journal_rank(&self, request: Option<Json>, resp: &Response) {
        let Some(p) = &self.persist else { return };
        let ts = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let cache = resp
            .headers
            .iter()
            .find(|(k, _)| k == "X-Saphyra-Cache")
            .map(|(_, v)| v.as_str());
        let line = persist::journal_line(ts, resp.status, cache, request);
        if let Err(e) = p.journal.append(&line) {
            eprintln!("warning: journal append failed: {e}");
        }
    }

    fn list_graphs(&self) -> Response {
        let graphs: Vec<Json> = self.registry.list().iter().map(|e| graph_info(e)).collect();
        Response::json(200, obj(vec![("graphs", Json::Arr(graphs))]).to_string())
    }

    /// Loads a graph into this node's registry (`POST /graphs`).
    fn load_graph(&self, body: &Json) -> Response {
        let name = match body.get("name").and_then(Json::as_str) {
            Some(n) if valid_graph_name(n) => n.to_string(),
            Some(n) => {
                let why = "want 1-64 chars of [A-Za-z0-9._-], no leading dot";
                return error_response(400, format!("invalid graph name {n:?} ({why})"));
            }
            None => return error_response(400, "missing required string field \"name\""),
        };

        let graph = match (body.get("path"), body.get("network")) {
            (Some(path), None) => {
                let Some(path) = path.as_str() else {
                    return error_response(400, "\"path\" must be a string");
                };
                match graph_io::load_edge_list(path) {
                    Ok(g) => g,
                    Err(e) => return error_response(400, format!("cannot load {path}: {e}")),
                }
            }
            (None, Some(network)) => {
                let Some(network) = network.as_str() else {
                    return error_response(400, "\"network\" must be a string");
                };
                let Ok(net) = network.parse::<SimNetwork>() else {
                    return error_response(400, format!("unknown network {network:?}"));
                };
                let size = body.get("size").and_then(Json::as_str).unwrap_or("tiny");
                let Ok(size) = size.parse::<SizeClass>() else {
                    return error_response(400, format!("unknown size class {size:?}"));
                };
                let seed = match opt_u64(body, "seed", 2022) {
                    Ok(s) => s,
                    Err(e) => return error_response(400, e),
                };
                net.build(size, seed)
            }
            _ => {
                return error_response(
                    400,
                    "body must have exactly one of \"path\" (edge-list file) or \"network\" (generator)",
                )
            }
        };

        let entry = GraphEntry::build(name.clone(), graph);
        self.decompositions.fetch_add(1, Ordering::Relaxed);
        let info = graph_info(&entry);
        // Publish atomically with respect to other loads: snapshot write
        // and registry insert must land in the same order for every
        // loader, or disk and memory could end up holding different
        // graphs under one name. The expensive decomposition above stays
        // outside the critical section.
        let publish = self.load_publish.lock_ok();
        // Snapshot before publishing: a crash right after the write leaves
        // a snapshot for a load the client never saw confirmed — harmless
        // (the next boot restores it); the reverse order could confirm a
        // load that a restart then forgets.
        let persisted = match &self.persist {
            None => None,
            Some(p) => {
                let path = persist::snapshot_path(&p.dir, &name);
                match persist::save_snapshot(&path, &name, &entry.graph, &entry.dec, 0) {
                    Ok(()) => Some(true),
                    Err(e) => {
                        eprintln!("warning: cannot snapshot {}: {e}", path.display());
                        Some(false)
                    }
                }
            }
        };
        let replaced = self.registry.insert(entry);
        drop(publish);
        if replaced {
            // Correctness is already guaranteed by the epoch in RankKey
            // (old-entry results can never alias the new load); dropping
            // the dead entries here is memory hygiene, scoped to exactly
            // the reloaded graph's keys — other graphs' hot entries
            // survive untouched.
            self.lock_cache().retain(|k| k.class.graph != name);
        }
        let Json::Obj(mut fields) = info else {
            unreachable!()
        };
        fields.push(("replaced".to_string(), Json::Bool(replaced)));
        if let Some(persisted) = persisted {
            fields.push(("persisted".to_string(), Json::Bool(persisted)));
        }
        Response::json(200, Json::Obj(fields).to_string())
    }

    /// Applies an edge delta to a loaded graph: CSR splice and dirty mask
    /// ([`saphyra_graph::delta::apply`]), a from-scratch decomposition of
    /// the patched graph, registry swap under a fresh epoch, delta
    /// journaling, periodic re-snapshotting, and component-scoped cache
    /// invalidation. Rankings whose targets all lie in untouched connected
    /// components are byte-identical on the patched graph (pinned by
    /// `untouched_component_rankings_survive_patch` in
    /// `crates/core/tests/proptest_bc.rs`), so their cached bodies are
    /// re-keyed under the new epoch and keep serving hits; everything else
    /// for this graph is purged.
    fn patch_graph(&self, name: &str, body: &Json) -> Response {
        let (insert, delete) = match (opt_edges(body, "insert"), opt_edges(body, "delete")) {
            (Ok(i), Ok(d)) => (i, d),
            (Err(e), _) | (_, Err(e)) => return error_response(400, e),
        };
        // Validate against the current node count before taking the
        // publication lock, so garbage never serializes behind real work;
        // the delta layer re-validates authoritatively during apply.
        {
            let Some(entry) = self.registry.get(name) else {
                return error_response(404, format!("unknown graph {name:?} (POST /graphs first)"));
            };
            if let Err(e) = params::check_edge_delta(&insert, &delete, entry.graph.num_nodes()) {
                return error_response(400, e);
            }
        }
        let delta = EdgeDelta { insert, delete };

        // Publication critical section, shared with graph loads: apply,
        // journal append, optional re-snapshot and registry swap must land
        // in the same order for every writer, or disk and memory could
        // disagree about the graph a name serves.
        let publish = self.load_publish.lock_ok();
        // Re-fetch under the lock — a concurrent load or patch may have
        // swapped the entry after the validation peek above.
        let Some(entry) = self.registry.get(name) else {
            return error_response(404, format!("unknown graph {name:?} (POST /graphs first)"));
        };
        let out = match saphyra_graph::delta::apply(&entry.graph, &delta) {
            Ok(out) => out,
            Err(e) => return error_response(400, e.to_string()),
        };
        let AppliedDelta {
            graph,
            dirty_nodes,
            inserted,
            deleted,
        } = out;
        let dec = BcDecomposition::compute(&graph);
        let new_seq = entry.delta_seq + 1;
        let old_epoch = entry.epoch;

        // Journal before publishing (the same rationale as snapshotting
        // before a load's registry insert): a crash right after the append
        // leaves a record for a patch the client never saw confirmed —
        // harmless, the next boot replays it; the reverse order could
        // confirm a patch a restart then forgets.
        let journaled = self.persist.as_ref().map(|p| {
            let ts = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let rec = persist::PatchRecord {
                graph: name.to_string(),
                seq: new_seq,
                insert: delta.insert.clone(),
                delete: delta.delete.clone(),
            };
            match p.journal.append(&persist::patch_line(ts, &rec)) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("warning: journal append failed: {e}");
                    false
                }
            }
        });
        let new_entry = GraphEntry::from_parts_seq(name.to_string(), graph, dec, new_seq);
        let new_epoch = new_entry.epoch;
        let nodes = new_entry.graph.num_nodes();
        let edges = new_entry.graph.num_edges();
        self.registry.insert(new_entry);
        self.patches.fetch_add(1, Ordering::Relaxed);

        // Component-scoped invalidation, still under the publication lock
        // so two patches of one graph cannot interleave their re-keying.
        // One scan collects this graph's keys (oldest first, so re-keyed
        // entries keep their relative recency); each is either re-keyed
        // under the fresh epoch (every target clean) or dropped. The entry
        // moves whole, so a warm body stays creditable to the warm section
        // and a purged one takes its flag along. In-flight computations
        // against the old entry may insert old-epoch keys after this sweep
        // — those are correct under their own epoch and unreachable to new
        // requests, pure LRU fodder.
        let (kept, purged) = {
            let mut cache = self.lock_cache();
            let keys: Vec<RankKey> = cache
                .iter()
                .map(|(k, _)| k)
                .filter(|k| k.class.graph == name)
                .cloned()
                .collect();
            let (mut kept, mut purged) = (0usize, 0usize);
            for mut k in keys {
                let Some(cached) = cache.remove(&k) else {
                    continue;
                };
                let clean = k.class.epoch == old_epoch
                    && k.targets
                        .iter()
                        .all(|&t| !dirty_nodes.get(t as usize).copied().unwrap_or(true));
                if clean {
                    k.class.epoch = new_epoch;
                    cache.insert(k, cached);
                    kept += 1;
                } else {
                    purged += 1;
                }
            }
            (kept, purged)
        };
        // Re-snapshot every `resnapshot_deltas` applied deltas: the
        // sequence number is monotone and persisted, so the cadence
        // survives restarts, and a failed write simply retries at the
        // next multiple (boot replay covers the gap from the journal —
        // which is also why this can safely run *after* the cache sweep:
        // the surviving re-keyed bodies ride into the warm section, and a
        // crash in between is still replayed from the record appended
        // above).
        let persisted = self.persist.as_ref().and_then(|p| {
            if new_seq % self.resnapshot_deltas as u64 != 0 {
                return None;
            }
            // Still under the publication lock, so this is exactly the
            // entry inserted above.
            let entry = self.registry.get(name)?;
            let warm = self.collect_warm(name);
            let path = persist::snapshot_path(&p.dir, name);
            match persist::save_snapshot_with_warm(
                &path,
                name,
                &entry.graph,
                &entry.dec,
                new_seq,
                &warm,
            ) {
                Ok(()) => Some(true),
                Err(e) => {
                    eprintln!("warning: cannot snapshot {}: {e}", path.display());
                    Some(false)
                }
            }
        });
        drop(publish);

        let mut fields = vec![
            ("graph".to_string(), Json::from(name)),
            ("nodes".to_string(), Json::from(nodes)),
            ("edges".to_string(), Json::from(edges)),
            ("inserted".to_string(), Json::from(inserted)),
            ("deleted".to_string(), Json::from(deleted)),
            ("delta_seq".to_string(), Json::from(new_seq)),
            ("cache_kept".to_string(), Json::from(kept)),
            ("cache_purged".to_string(), Json::from(purged)),
        ];
        if let Some(journaled) = journaled {
            fields.push(("journaled".to_string(), Json::Bool(journaled)));
        }
        if let Some(persisted) = persisted {
            fields.push(("persisted".to_string(), Json::Bool(persisted)));
        }
        Response::json(200, Json::Obj(fields).to_string())
    }

    fn rank(&self, body: &Json) -> Response {
        let p = match self.parse_rank_request(body) {
            Ok(p) => p,
            Err(resp) => return *resp,
        };
        let Some(entry) = self.registry.get(&p.graph) else {
            return error_response(
                404,
                format!("unknown graph {:?} (POST /graphs first)", p.graph),
            );
        };
        if let Err(e) = params::check_targets(&p.targets, entry.graph.num_nodes()) {
            return error_response(400, e);
        }

        let key = RankKey {
            class: p.batch_key(entry.epoch),
            targets: p.targets.clone(),
        };
        if let Some(body) = self.cached(&key) {
            return reply(&body, "hit");
        }

        // Single-flight and group commit are one lookup in the class table
        // (module docs). The cache re-check under the class lock closes
        // the race with a twin's pass that cached its bodies and left the
        // table between the miss above and this lookup.
        let slot = Arc::new(Slot::default());
        let member = Member {
            targets: key.targets.clone(),
            slot: Arc::clone(&slot),
        };
        let seat = {
            let mut batches = self.batches.lock_ok();
            if let Some(body) = self.cached(&key) {
                return reply(&body, "hit");
            }
            match batches.get_mut(&key.class) {
                Some(class) => match class
                    .running
                    .iter()
                    .chain(&class.queued)
                    .find(|m| m.targets == key.targets)
                {
                    Some(twin) => Seat::Twin(Arc::clone(&twin.slot)),
                    None => {
                        let seat = if class.queued.is_empty() {
                            Seat::Seal(class.running.iter().map(|m| Arc::clone(&m.slot)).collect())
                        } else {
                            Seat::Joined
                        };
                        class.queued.push(member);
                        seat
                    }
                },
                None => {
                    let class = Class {
                        running: vec![member.clone()],
                        queued: Vec::new(),
                    };
                    batches.insert(key.class.clone(), class);
                    Seat::Lead(member)
                }
            }
        };
        if !matches!(seat, Seat::Twin(_)) {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            self.computations.fetch_add(1, Ordering::Relaxed);
        }
        let members = match seat {
            Seat::Twin(twin) => {
                return match twin.wait() {
                    Some(body) => {
                        self.cache_shared.fetch_add(1, Ordering::Relaxed);
                        reply(&body, "shared")
                    }
                    None => error_response(500, "ranking computation failed"),
                };
            }
            Seat::Joined => {
                // The batch's first member computes our body from the
                // shared stream and its pass answers our slot.
                return match slot.wait() {
                    Some(body) => reply(&body, "batched"),
                    None => error_response(500, "ranking computation failed"),
                };
            }
            Seat::Lead(member) => vec![member],
            Seat::Seal(running) => {
                // Wait out the running pass, whether it publishes or dies:
                // its guard hands the class to this batch before it
                // answers any slot, so the batch is sealed by now.
                for s in running {
                    s.wait();
                }
                self.batches
                    .lock_ok()
                    .get(&key.class)
                    .map(|c| c.running.clone())
                    .unwrap_or_default()
            }
        };
        let mut pass = Pass {
            service: self,
            class: key.class.clone(),
            members,
            bodies: Vec::new(),
        };
        self.sample_passes.fetch_add(1, Ordering::Relaxed);
        let shared_pass = pass.members.len() >= 2;
        if shared_pass {
            self.batched
                .fetch_add(pass.members.len() as u64, Ordering::Relaxed);
        }

        // Compute outside every lock; `pass` answers every member even if
        // this unwinds. Every body is cached in one hold before the pass
        // leaves the class table.
        let sets: Vec<Vec<NodeId>> = pass.members.iter().map(|m| m.targets.clone()).collect();
        let bodies: Vec<Arc<String>> = compute_rank_bodies(&entry, &p, &sets)
            .into_iter()
            .map(Arc::new)
            .collect();
        debug_assert_eq!(bodies.len(), sets.len());
        {
            let mut cache = self.lock_cache();
            for (targets, body) in sets.into_iter().zip(&bodies) {
                let cached = Cached {
                    body: Arc::clone(body),
                    warm: false,
                };
                cache.insert(
                    RankKey {
                        class: key.class.clone(),
                        targets,
                    },
                    cached,
                );
            }
        }
        let own = pass
            .members
            .iter()
            .zip(&bodies)
            .find(|(m, _)| m.targets == key.targets)
            .map(|(_, body)| Arc::clone(body));
        pass.bodies = bodies;
        drop(pass);
        // The leader always runs the pass it enrolled in, so its own body
        // is always among those published; 500 beats a panic if that
        // invariant ever breaks.
        let Some(body) = own else {
            return error_response(500, "batch leader lost its own enrollment");
        };
        reply(&body, if shared_pass { "batched" } else { "miss" })
    }

    /// Validates an already-parsed `/rank` body into [`RankParams`].
    fn parse_rank_request(&self, body: &Json) -> Result<RankParams, Box<Response>> {
        let bad = |msg: String| Box::new(error_response(400, msg));
        let graph = body
            .get("graph")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing required string field \"graph\"".into()))?
            .to_string();
        let measure_name = body.get("measure").and_then(Json::as_str).unwrap_or("bc");
        let measure = Measure::parse(measure_name).ok_or_else(|| {
            bad(format!(
                "unknown measure {measure_name:?} (want bc|kpath|harmonic)"
            ))
        })?;

        let targets_json = body
            .get("targets")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing required array field \"targets\"".into()))?;
        let mut targets = Vec::with_capacity(targets_json.len());
        for t in targets_json {
            let id = t
                .as_u64()
                .filter(|&v| v <= u32::MAX as u64)
                .ok_or_else(|| bad(format!("target {t} is not a node id")))?;
            targets.push(id as NodeId);
        }

        let eps = opt_f64(body, "eps", 0.01).map_err(&bad)?;
        let delta = opt_f64(body, "delta", 0.01).map_err(&bad)?;
        let seed = opt_u64(body, "seed", 2022).map_err(&bad)?;
        let khops = opt_u64(body, "khops", 5).map_err(&bad)? as usize;

        params::check_eps(eps).map_err(&bad)?;
        params::check_delta(delta).map_err(&bad)?;
        if measure == Measure::KPath {
            params::check_khops(khops).map_err(&bad)?;
        }

        Ok(RankParams {
            graph,
            measure,
            targets,
            eps,
            delta,
            seed,
            khops,
        })
    }
}

fn opt_f64(body: &Json, key: &str, default: f64) -> Result<f64, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("field {key:?} must be a number")),
    }
}

fn opt_u64(body: &Json, key: &str, default: u64) -> Result<u64, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer <= 2^53")),
    }
}

/// Parses an optional `[[u, v], ...]` edge-pair array field of a `PATCH`
/// body. A missing field is an empty list; anything else malformed names
/// the field in the error.
fn opt_edges(body: &Json, key: &str) -> Result<Vec<(NodeId, NodeId)>, String> {
    let Some(v) = body.get(key) else {
        return Ok(Vec::new());
    };
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array of [u, v] pairs"))?;
    let mut out = Vec::with_capacity(arr.len());
    for pair in arr {
        let bad = || format!("field {key:?} entries must be [u, v] node-id pairs, got {pair}");
        let [u, v] = pair.as_arr().ok_or_else(bad)? else {
            return Err(bad());
        };
        let u = u
            .as_u64()
            .filter(|&x| x <= u32::MAX as u64)
            .ok_or_else(bad)?;
        let v = v
            .as_u64()
            .filter(|&x| x <= u32::MAX as u64)
            .ok_or_else(bad)?;
        out.push((u as NodeId, v as NodeId));
    }
    Ok(out)
}

/// The request body parsed as JSON; the error is the 400 message.
pub(crate) fn json_body(req: &Request) -> Result<Json, String> {
    let text = req.body_str()?;
    Json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))
}

fn graph_info(entry: &GraphEntry) -> Json {
    obj(vec![
        ("name", Json::from(entry.name.as_str())),
        ("nodes", Json::from(entry.graph.num_nodes())),
        ("edges", Json::from(entry.graph.num_edges())),
        ("bicomps", Json::from(entry.dec.bic.num_bicomps)),
        ("gamma", Json::Num(entry.dec.gamma)),
        ("csr_bytes", Json::from(entry.graph.csr_bytes())),
        ("mapped", Json::Bool(entry.graph.is_mapped())),
    ])
}

/// Computes the deterministic `/rank` response bodies for one batch: one
/// master seed, one ranking call over every target set, one body per set.
/// A batch of one *is* the quiet-server path — each set's estimate is
/// bit-identical to ranking that set alone with the same seed (pinned by
/// `crates/core/tests/batched_determinism.rs`), so a response never
/// depends on who else was in flight. `p` carries the
/// fields every member shares (everything but the targets).
fn compute_rank_bodies(entry: &GraphEntry, p: &RankParams, sets: &[Vec<NodeId>]) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let per_set: Vec<(Vec<f64>, Json)> = match p.measure {
        Measure::Betweenness => {
            let cfg = SaphyraBcConfig::new(p.eps, p.delta);
            let ests = entry.dec.rank(&entry.graph, sets, &cfg, &mut rng);
            ests.into_iter()
                .map(|est| {
                    let stats = obj(vec![
                        ("samples", Json::from(est.stats.samples)),
                        ("nmax", Json::from(est.stats.nmax)),
                        ("converged_early", Json::from(est.stats.converged_early)),
                        ("vc_subset", Json::from(est.stats.vc.vc_subset)),
                        ("lambda_hat", Json::Num(est.stats.lambda_hat)),
                    ]);
                    (est.bc, stats)
                })
                .collect()
        }
        Measure::KPath => {
            let ests = rank_kpath(&entry.graph, sets, p.khops, p.eps, p.delta, &mut rng);
            ests.into_iter()
                .map(|est| (est.kpc, inner_stats(&est.inner)))
                .collect()
        }
        Measure::Harmonic => {
            let ests = rank_harmonic(&entry.graph, sets, p.eps, p.delta, &mut rng);
            ests.into_iter()
                .map(|est| (est.hc, inner_stats(&est.inner)))
                .collect()
        }
    };

    per_set
        .into_iter()
        .zip(sets)
        .map(|((scores, stats), targets)| {
            let ranks = saphyra_stats::ranks_by_value(&scores);
            obj(vec![
                ("graph", Json::from(p.graph.as_str())),
                ("measure", Json::from(p.measure.as_str())),
                ("eps", Json::Num(p.eps)),
                ("delta", Json::Num(p.delta)),
                ("seed", Json::from(p.seed)),
                ("khops", Json::from(p.khops)),
                (
                    "targets",
                    Json::Arr(targets.iter().map(|&t| Json::from(t)).collect()),
                ),
                (
                    "scores",
                    Json::Arr(scores.iter().map(|&x| Json::Num(x)).collect()),
                ),
                (
                    "ranks",
                    Json::Arr(ranks.iter().map(|&r| Json::from(r)).collect()),
                ),
                ("stats", stats),
            ])
            .to_string()
        })
        .collect()
}

/// The `stats` object of a k-path or harmonic body.
fn inner_stats(inner: &SaphyraEstimate) -> Json {
    obj(vec![
        ("samples", Json::from(inner.outcome.samples_used)),
        ("nmax", Json::from(inner.outcome.nmax)),
        ("converged_early", Json::from(inner.outcome.converged_early)),
        ("lambda", Json::Num(inner.lambda)),
    ])
}

/// Shutdown latch shared by the reactor, the workers and the handle:
/// setting the flag and writing the self-pipe wakes the reactor out of
/// its blocking wait immediately — no self-connect, no poll interval.
#[derive(Debug)]
struct ShutdownSignal {
    flag: AtomicBool,
    wake: Arc<WakePipe>,
}

impl ShutdownSignal {
    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            self.wake.wake();
        }
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A running server: bound address plus the runtime threads.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<ShutdownSignal>,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Requests shutdown without waiting.
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Blocks until the server shuts down (via [`ServerHandle::shutdown`]
    /// or `POST /shutdown`), then joins every thread.
    pub fn join(self) {
        let _ = self.reactor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Triggers shutdown and joins.
    pub fn shutdown_and_join(self) {
        self.shutdown.trigger();
        self.join();
    }
}

/// Binds `addr` and starts the reactor + worker threads. Returns
/// immediately; use [`ServerHandle::join`] to block.
pub fn serve(addr: &str, cfg: ServiceConfig) -> io::Result<ServerHandle> {
    serve_with(addr, Arc::new(Service::new(cfg)))
}

/// Poller token of the self-pipe read end.
const TOKEN_WAKE: u64 = 0;
/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 1;
/// Poller tokens `TOKEN_BASE + slot` address connection slots.
const TOKEN_BASE: u64 = 2;

/// A complete request on its way to the compute pool.
struct Job {
    conn: usize,
    gen: u64,
    seq: u64,
    req: Request,
}

/// A computed response on its way back to the reactor.
struct Completion {
    conn: usize,
    gen: u64,
    seq: u64,
    resp: Response,
    shut: bool,
}

/// [`serve`] with externally constructed state (lets tests and benches
/// pre-load graphs into the registry before the first request).
///
/// The runtime this starts is one **reactor thread** owning every socket
/// (nonblocking, readiness-driven) plus [`ServiceConfig::workers`] compute
/// threads that only ever see complete requests — see the module docs'
/// connection model.
pub fn serve_with(addr: &str, service: Arc<Service>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let wake = Arc::new(WakePipe::new()?);
    let shutdown = Arc::new(ShutdownSignal {
        flag: AtomicBool::new(false),
        wake: Arc::clone(&wake),
    });

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let worker_count = service.workers;
    let mut workers = Vec::with_capacity(worker_count);
    for i in 0..worker_count {
        let job_rx = Arc::clone(&job_rx);
        let done_tx = done_tx.clone();
        let wake = Arc::clone(&wake);
        let service = Arc::clone(&service);
        workers.push(
            std::thread::Builder::new()
                .name(format!("saphyra-worker-{i}"))
                .spawn(move || loop {
                    // Workers are a pure compute pool: complete request
                    // in, finished response out, reactor woken. They hold
                    // no sockets and never block on I/O.
                    let job = match job_rx.lock_ok().recv() {
                        Ok(j) => j,
                        Err(_) => break, // reactor gone and queue drained
                    };
                    let (resp, shut) = service.handle(&job.req);
                    let sent = done_tx.send(Completion {
                        conn: job.conn,
                        gen: job.gen,
                        seq: job.seq,
                        resp,
                        shut,
                    });
                    if sent.is_err() {
                        break;
                    }
                    wake.wake();
                })?,
        );
    }
    drop(done_tx);

    let mut poller = new_poller();
    poller.register(wake.read_fd(), TOKEN_WAKE, true, false)?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    // Tick fine enough that an idle timeout is detected within ~1/16 of
    // itself; 256 slots cover 16 timeouts per rotation before wrapping.
    let tick =
        (service.idle_timeout / 16).clamp(Duration::from_millis(1), Duration::from_millis(250));
    let wheel = TimerWheel::new(tick, 256);

    let reactor = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let wake = Arc::clone(&wake);
        std::thread::Builder::new()
            .name("saphyra-reactor".to_string())
            .spawn(move || {
                Reactor {
                    poller,
                    listener: Some(listener),
                    wake,
                    service,
                    shutdown,
                    job_tx,
                    done_rx,
                    conns: Vec::new(),
                    free: Vec::new(),
                    free_pending: Vec::new(),
                    wheel,
                    next_gen: 1,
                    open: 0,
                    shutting_down: false,
                }
                .run();
            })?
    };

    Ok(ServerHandle {
        addr: local,
        service,
        shutdown,
        reactor,
        workers,
    })
}

/// Per-connection state machine, owned exclusively by the reactor.
struct Conn {
    stream: TcpStream,
    /// Liveness token: completions and timers carry it, so events for a
    /// dead connection (or a reused slot) are discarded, never misrouted.
    gen: u64,
    parser: RequestParser,
    /// Bytes read off the socket; `read_pos..` is the unconsumed tail.
    /// Consumption advances the cursor and compacts once per event round
    /// — per-request `drain(..)` front-shifts would make a large
    /// pipelined burst quadratic in memmove cost.
    read_buf: Vec<u8>,
    read_pos: usize,
    /// Serialized responses being drained into the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Out-of-order completions parked until their turn; the bool forces
    /// `Connection: close` (reactor-synthesized error responses).
    pending: BTreeMap<u64, (Response, bool)>,
    /// Next request sequence number to assign (dispatch order).
    next_seq: u64,
    /// Next response sequence number to write (== arrival order).
    next_write: u64,
    /// Requests dispatched to workers and not yet completed.
    inflight: usize,
    /// Requests dispatched over the connection's lifetime (cap bookkeeping).
    served: usize,
    /// Sequence number of the connection's final request, once known
    /// (client sent `Connection: close`, or the request cap was hit).
    close_after: Option<u64>,
    /// No more reading/parsing; flush what is owed, then close.
    draining: bool,
    /// A `Connection: close` response has been staged; later responses
    /// are dropped (the client was told the connection is done).
    sent_close: bool,
    /// The peer closed its write side (read returned 0). Buffered and
    /// in-flight requests are still served — a write-then-half-close
    /// client keeps its read side open for the responses — and the
    /// connection closes once nothing more is owed.
    peer_eof: bool,
    want_read: bool,
    want_write: bool,
    /// Last byte-level progress in either direction (idle-timeout base).
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64, now: Instant) -> Conn {
        Conn {
            stream,
            gen,
            parser: RequestParser::new(),
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            pending: BTreeMap::new(),
            next_seq: 0,
            next_write: 0,
            inflight: 0,
            served: 0,
            close_after: None,
            draining: false,
            sent_close: false,
            peer_eof: false,
            want_read: true,
            want_write: false,
            last_activity: now,
        }
    }

    /// Whether any read bytes are still unconsumed by the parser.
    fn has_input(&self) -> bool {
        self.read_pos < self.read_buf.len()
    }

    /// Discards all unconsumed input.
    fn clear_input(&mut self) {
        self.read_buf.clear();
        self.read_pos = 0;
    }

    /// Response bytes staged but not yet accepted by the socket.
    fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Whether another request may be dispatched right now: not past the
    /// final request, pipelining depth free, and the peer draining its
    /// responses (an undrained write backlog means the client stopped
    /// reading — parsing on regardless would buffer responses without
    /// bound).
    fn can_dispatch(&self, depth: usize) -> bool {
        !self.draining
            && self.close_after.is_none()
            && self.inflight + self.pending.len() < depth
            && self.write_backlog() < WRITE_BACKPRESSURE
    }
}

/// Per-connection cap on staged-but-unwritten response bytes before the
/// reactor stops parsing further requests from that connection. Bounds
/// the memory a pipelining client that never reads its responses can pin
/// (the kernel socket buffer absorbs the rest of the pushback).
const WRITE_BACKPRESSURE: usize = 256 * 1024;

/// The event loop: readiness events in, jobs out, completions back,
/// responses written in request order per connection.
struct Reactor {
    poller: Box<dyn Poller>,
    /// `None` once shutdown began (the socket is closed to new connects).
    listener: Option<TcpListener>,
    wake: Arc<WakePipe>,
    service: Arc<Service>,
    shutdown: Arc<ShutdownSignal>,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Completion>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots freed during the current event batch. Reused only *after*
    /// the batch: a stale event for a just-closed slot must hit `None`,
    /// not a brand-new connection that claimed the slot mid-batch.
    free_pending: Vec<usize>,
    wheel: TimerWheel,
    next_gen: u64,
    open: usize,
    shutting_down: bool,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<(u64, u64)> = Vec::new();
        loop {
            self.drain_completions();
            if self.shutdown.is_set() {
                self.begin_shutdown();
                if self.open == 0 {
                    break;
                }
            }
            let timeout = self.wheel.next_wakeup(Instant::now());
            if let Err(e) = self.poller.wait(timeout, &mut events) {
                eprintln!("warning: reactor wait failed ({e}); shutting down");
                self.shutdown.trigger();
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    t => {
                        let idx = (t - TOKEN_BASE) as usize;
                        if ev.readable || ev.hangup {
                            self.read_ready(idx);
                        }
                        if ev.writable {
                            // advance flushes first; its parse step then
                            // sees the drained backlog and may unblock
                            // buffered requests.
                            self.advance(idx);
                        }
                        if ev.hangup {
                            // Peer fully gone: anything unread was drained
                            // above, anything unwritten is undeliverable.
                            self.close_conn(idx);
                        }
                    }
                }
            }
            fired.clear();
            self.wheel.expire(Instant::now(), &mut fired);
            for &(token, gen) in &fired {
                self.timer_fired((token - TOKEN_BASE) as usize, gen);
            }
            self.free.append(&mut self.free_pending);
        }
        // Dropping self drops `job_tx`: workers finish what is queued,
        // then exit on the disconnected channel.
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let max = self.service.max_connections;
                    if max != 0 && self.open >= max {
                        // Over the cap: close immediately. The client sees
                        // a clean EOF and can retry or back off.
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are queued whole; Nagle would only add
                    // delayed-ACK latency on persistent connections.
                    let _ = stream.set_nodelay(true);
                    let idx = match self.free.pop() {
                        Some(i) => i,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    let token = TOKEN_BASE + idx as u64;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    let gen = self.next_gen;
                    self.next_gen += 1;
                    let now = Instant::now();
                    self.wheel
                        .schedule(token, gen, now + self.service.idle_timeout);
                    self.conns[idx] = Some(Conn::new(stream, gen, now));
                    self.open += 1;
                    self.service.connections.fetch_add(1, Ordering::Relaxed);
                    self.service
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn read_ready(&mut self, idx: usize) {
        {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.draining || conn.close_after.is_some() || conn.peer_eof {
                return; // past the final request; hangup handling closes us
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        // Half-close: the peer is done *sending*. Its read
                        // side may well be open (write-then-shutdown(WR)
                        // one-shot clients) — serve what is buffered and
                        // in flight, then close.
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = Instant::now();
                        if n < chunk.len() {
                            break; // socket very likely drained; LT re-arms
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Hard error (reset): nothing is deliverable.
                        self.close_conn(idx);
                        return;
                    }
                }
            }
        }
        self.advance(idx);
    }

    /// Parse whatever is buffered, discard bytes that can never complete
    /// (torn trailing prefix after a peer half-close), and flush. The one
    /// entry point after any event that may have changed a connection's
    /// parse/dispatch/write state.
    fn advance(&mut self, idx: usize) {
        // Flush first: dispatch capacity (can_dispatch) counts the write
        // backlog, so requests blocked on it must see the post-drain
        // state — responses only ever enter the backlog via completions,
        // never via the parse below, so one leading flush is exact.
        self.flush(idx);
        self.parse_buffered(idx);
        let depth = self.service.pipeline_depth;
        if let Some(conn) = self.conns[idx].as_mut() {
            // parse_buffered stopped with input left over. If the peer
            // can never send another byte and the stop reason was the
            // parser wanting more (not depth/backpressure, not a final
            // request), the leftover is a torn prefix that will never
            // complete — drop it so the owed-nothing close can happen.
            if conn.peer_eof && conn.can_dispatch(depth) {
                conn.clear_input();
            }
            // Compact the consumed prefix away — once per event round,
            // not once per request.
            if conn.read_pos > 0 {
                if conn.has_input() {
                    conn.read_buf.drain(..conn.read_pos);
                } else {
                    conn.read_buf.clear();
                }
                conn.read_pos = 0;
            }
        }
        self.flush(idx);
    }

    /// Parses every complete buffered request up to the pipelining depth
    /// (and write-backlog bound) and hands them to the compute pool.
    fn parse_buffered(&mut self, idx: usize) {
        loop {
            let depth = self.service.pipeline_depth;
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if !conn.has_input() || !conn.can_dispatch(depth) {
                return;
            }
            match conn.parser.parse(&conn.read_buf[conn.read_pos..]) {
                Ok(ParseStatus::NeedMore) => return,
                Ok(ParseStatus::Complete { request, consumed }) => {
                    conn.read_pos += consumed;
                    conn.served += 1;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let prior_in_flight = conn.inflight > 0
                        || !conn.pending.is_empty()
                        || conn.write_pos < conn.write_buf.len();
                    if prior_in_flight {
                        self.service.pipelined.fetch_add(1, Ordering::Relaxed);
                    }
                    let cap = self.service.max_requests_per_conn;
                    if request.wants_close() || (cap != 0 && conn.served >= cap) {
                        conn.close_after = Some(seq);
                    }
                    conn.inflight += 1;
                    let job = Job {
                        conn: idx,
                        gen: conn.gen,
                        seq,
                        req: request,
                    };
                    if self.job_tx.send(job).is_err() {
                        // Compute pool gone (worker panic storm): fail the
                        // request rather than hanging the connection.
                        conn.inflight -= 1;
                        conn.pending
                            .insert(seq, (error_response(500, "worker pool unavailable"), true));
                        return;
                    }
                }
                Err(e) => {
                    // Malformed request: answer 400 after everything owed,
                    // then close. Nothing further is read — the stream
                    // position is unreliable past a framing error.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.insert(
                        seq,
                        (error_response(400, format!("malformed request: {e}")), true),
                    );
                    conn.close_after = Some(seq);
                    conn.clear_input();
                    return;
                }
            }
        }
    }

    /// Stages due responses (in request order) into the write buffer and
    /// drains it into the socket; closes the connection when it is
    /// draining and nothing more is owed.
    fn flush(&mut self, idx: usize) {
        let shutting = self.shutting_down || self.shutdown.is_set();
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        loop {
            if conn.sent_close {
                // The client has been told the connection is done;
                // anything still parked is undeliverable.
                conn.pending.clear();
                break;
            }
            let seq = conn.next_write;
            let Some((resp, force_close)) = conn.pending.remove(&seq) else {
                break;
            };
            conn.next_write += 1;
            let last_owed = conn.pending.is_empty() && conn.inflight == 0;
            // A half-closed peer only counts as "done" once its buffered
            // bytes are consumed too — with the pipeline depth saturated,
            // read_buf may still hold complete requests this connection
            // owes answers to.
            let done_serving = conn.draining || (conn.peer_eof && !conn.has_input());
            let keep_alive = !(force_close
                || conn.close_after == Some(seq)
                || ((shutting || done_serving) && last_owed));
            if conn.write_pos > 0 && conn.write_pos == conn.write_buf.len() {
                conn.write_buf.clear();
                conn.write_pos = 0;
            }
            conn.write_buf.extend_from_slice(&resp.to_bytes(keep_alive));
            if !keep_alive {
                conn.sent_close = true;
                conn.draining = true;
                conn.clear_input();
            }
        }
        let mut dead = false;
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let drained = conn.write_pos == conn.write_buf.len();
        if drained && !conn.write_buf.is_empty() {
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        // Close when nothing more can be owed: the connection is
        // draining, or the peer half-closed and every byte it ever sent
        // has been parsed, answered and written.
        let done_serving = conn.draining || (conn.peer_eof && !conn.has_input());
        let close_now =
            dead || (done_serving && drained && conn.inflight == 0 && conn.pending.is_empty());
        if close_now {
            self.close_conn(idx);
        } else {
            self.sync_interest(idx);
        }
    }

    /// Mirrors the connection's desired readiness interest to the poller.
    /// Reads pause while the pipelining depth or the write backlog is
    /// saturated (backpressure: the kernel buffer, then the client,
    /// absorb the excess) and after the final request; writes arm only
    /// while bytes are queued.
    fn sync_interest(&mut self, idx: usize) {
        let depth = self.service.pipeline_depth;
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let want_read = !conn.peer_eof && conn.can_dispatch(depth);
        let want_write = conn.write_pos < conn.write_buf.len();
        if want_read != conn.want_read || want_write != conn.want_write {
            conn.want_read = want_read;
            conn.want_write = want_write;
            let fd = conn.stream.as_raw_fd();
            let _ = self
                .poller
                .modify(fd, TOKEN_BASE + idx as u64, want_read, want_write);
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            if done.shut {
                // Trigger even when the requesting connection died: the
                // request WAS handled, and a /shutdown whose client went
                // away must still stop the server.
                self.shutdown.trigger();
            }
            {
                let Some(conn) = self.conns[done.conn].as_mut() else {
                    continue;
                };
                if conn.gen != done.gen {
                    continue;
                }
                conn.inflight -= 1;
                conn.last_activity = Instant::now();
                conn.pending.insert(done.seq, (done.resp, false));
            }
            // advance's leading flush writes this response (freeing its
            // depth slot), its parse dispatches any buffered follow-ups,
            // and its trailing flush stages whatever that parse produced
            // (a 400 on a malformed follow-up, a half-closed peer's last
            // response) — without the trailing flush such a response
            // would strand in `pending` with no further event arriving.
            self.advance(done.conn);
        }
    }

    fn timer_fired(&mut self, idx: usize, gen: u64) {
        let idle = self.service.idle_timeout;
        let now = Instant::now();
        let token = TOKEN_BASE + idx as u64;
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.gen != gen {
            return;
        }
        if conn.inflight > 0 {
            // A slow computation is not an idle connection; check back in
            // one timeout.
            self.wheel.schedule(token, gen, now + idle);
            return;
        }
        let due = conn.last_activity + idle;
        if now >= due {
            // Idle past the budget (between requests, or stalled
            // mid-request/mid-response): close quietly.
            self.close_conn(idx);
        } else {
            self.wheel.schedule(token, gen, due);
        }
    }

    /// Stops accepting and puts every connection into draining: flush
    /// what is owed, then close. Parked idle connections close right
    /// here — this is what makes shutdown prompt with any number of
    /// keep-alive clients attached.
    fn begin_shutdown(&mut self) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
            drop(listener);
        }
        for idx in 0..self.conns.len() {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.draining = true;
                conn.clear_input();
            } else {
                continue;
            }
            self.flush(idx);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            drop(conn);
            self.open -= 1;
            self.service
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
            self.free_pending.push(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn patch_req(name: &str, body: &str) -> Request {
        Request {
            method: "PATCH".to_string(),
            path: format!("/graphs/{name}"),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Two connected components on 12 nodes: A = {0..5}, B = {6..11}.
    fn two_component_graph() -> saphyra_graph::Graph {
        saphyra_graph::GraphBuilder::new(12)
            .edges(vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (0, 3),
                (6, 7),
                (7, 8),
                (8, 9),
                (9, 10),
                (10, 11),
                (6, 9),
            ])
            .build()
            .unwrap()
    }

    fn cache_header(resp: &Response) -> Option<&str> {
        resp.headers
            .iter()
            .find(|(k, _)| k == "X-Saphyra-Cache")
            .map(|(_, v)| v.as_str())
    }

    fn service_with_grid() -> Service {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            ..ServiceConfig::default()
        });
        svc.registry().insert(GraphEntry::build(
            "grid",
            saphyra_graph::fixtures::grid_graph(5, 5),
        ));
        svc
    }

    /// A worker that panics while holding the class table (or the cache)
    /// poisons the lock; the request path must recover instead of
    /// cascading the panic through every other worker.
    #[test]
    fn poisoned_locks_do_not_kill_request_handling() {
        let svc = Arc::new(service_with_grid());
        let s = Arc::clone(&svc);
        let _ = std::thread::spawn(move || {
            let _g = s.batches.lock().unwrap();
            panic!("simulated worker crash holding the class table");
        })
        .join();
        let s = Arc::clone(&svc);
        let _ = std::thread::spawn(move || {
            let _g = s.cache.lock().unwrap();
            panic!("simulated worker crash holding cache");
        })
        .join();

        let body = r#"{"graph":"grid","targets":[3,7],"eps":0.2,"delta":0.2,"seed":5}"#;
        let (r1, _) = svc.handle(&post("/rank", body));
        assert_eq!(r1.status, 200, "{}", r1.body_str());
        // The repaired (cleared) cache fills back up and serves hits.
        let (r2, _) = svc.handle(&post("/rank", body));
        assert_eq!(r2.body, r1.body);
        assert!(r2
            .headers
            .iter()
            .any(|(k, v)| k == "X-Saphyra-Cache" && v == "hit"));
    }

    #[test]
    fn healthz_and_listing() {
        let svc = service_with_grid();
        let (resp, shut) = svc.handle(&get("/healthz"));
        assert_eq!(resp.status, 200);
        assert!(!shut);
        let v = Json::parse(resp.body_str()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("graphs").unwrap().as_u64(), Some(1));

        let (resp, _) = svc.handle(&get("/graphs"));
        let v = Json::parse(resp.body_str()).unwrap();
        let graphs = v.get("graphs").unwrap().as_arr().unwrap();
        assert_eq!(graphs.len(), 1);
        assert_eq!(graphs[0].get("name").unwrap().as_str(), Some("grid"));
        assert_eq!(graphs[0].get("nodes").unwrap().as_u64(), Some(25));
    }

    #[test]
    fn rank_is_deterministic_and_cached() {
        let svc = service_with_grid();
        let body = r#"{"graph":"grid","targets":[6,12,18],"eps":0.1,"delta":0.1,"seed":7}"#;
        let (r1, _) = svc.handle(&post("/rank", body));
        assert_eq!(r1.status, 200, "{}", r1.body_str());
        assert!(r1
            .headers
            .iter()
            .any(|(k, v)| k == "X-Saphyra-Cache" && v == "miss"));
        let (r2, _) = svc.handle(&post("/rank", body));
        assert_eq!(r2.body, r1.body, "cache hit must replay identical bytes");
        assert!(r2
            .headers
            .iter()
            .any(|(k, v)| k == "X-Saphyra-Cache" && v == "hit"));
        assert_eq!(svc.cache_hits(), 1);
        assert_eq!(svc.cache_misses(), 1);

        let v = Json::parse(r1.body_str()).unwrap();
        assert_eq!(v.get("measure").unwrap().as_str(), Some("bc"));
        assert_eq!(v.get("scores").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("ranks").unwrap().as_arr().unwrap().len(), 3);
        // Grid center 12 dominates the off-center targets.
        let ranks = v.get("ranks").unwrap().as_arr().unwrap();
        assert_eq!(ranks[1].as_u64(), Some(1));
    }

    #[test]
    fn single_flight_collapses_identical_concurrent_cold_requests() {
        let svc = service_with_grid();
        let body = r#"{"graph":"grid","targets":[6,12,18],"eps":0.1,"delta":0.1,"seed":11}"#;
        let n = 8;
        let responses: Vec<Response> = std::thread::scope(|scope| {
            let svc = &svc;
            let handles: Vec<_> = (0..n)
                .map(|_| scope.spawn(move || svc.handle(&post("/rank", body)).0))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Exactly one ranking computation ran, whatever the interleaving.
        assert_eq!(svc.computations(), 1, "single-flight failed to collapse");
        let cache_state = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "X-Saphyra-Cache")
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let misses = responses
            .iter()
            .filter(|r| cache_state(r) == "miss")
            .count();
        assert_eq!(misses, 1, "exactly one request must be the leader");
        for r in &responses {
            assert_eq!(r.status, 200, "{}", r.body_str());
            assert_eq!(r.body, responses[0].body, "shared bytes diverged");
            // Non-leaders either waited on the in-flight computation
            // ("shared") or arrived after it landed in the cache ("hit").
            assert!(matches!(cache_state(r).as_str(), "miss" | "shared" | "hit"));
        }
        // Counters are consistent: every request is accounted exactly once.
        assert_eq!(
            svc.cache_misses() + svc.cache_shared() + svc.cache_hits(),
            n as u64
        );
    }

    #[test]
    fn single_flight_does_not_collapse_distinct_requests() {
        let svc = service_with_grid();
        let bodies: Vec<String> = (0..4)
            .map(|s| {
                format!(r#"{{"graph":"grid","targets":[6,12],"eps":0.1,"delta":0.1,"seed":{s}}}"#)
            })
            .collect();
        std::thread::scope(|scope| {
            for body in &bodies {
                let svc = &svc;
                scope.spawn(move || {
                    let (r, _) = svc.handle(&post("/rank", body));
                    assert_eq!(r.status, 200, "{}", r.body_str());
                });
            }
        });
        assert_eq!(svc.computations(), 4, "distinct keys must all compute");
    }

    /// The coalescing class of `/rank` body `body` on `svc`.
    fn class_of(svc: &Service, body: &str) -> BatchKey {
        let p = svc
            .parse_rank_request(&Json::parse(body).unwrap())
            .expect("valid rank request");
        let epoch = svc.registry().get(&p.graph).unwrap().epoch;
        p.batch_key(epoch)
    }

    /// Forges a sample pass running in class `key`, as a leader leaves the
    /// class table while it samples: one member, with a target set no
    /// request can name. Ending the returned pass hands the class on
    /// exactly as a real pass does.
    fn forge_running_pass(svc: &Service, key: BatchKey) -> Pass<'_> {
        let member = Member {
            targets: Vec::new(),
            slot: Arc::default(),
        };
        let class = Class {
            running: vec![member.clone()],
            queued: Vec::new(),
        };
        svc.batches.lock_ok().insert(key.clone(), class);
        Pass {
            service: svc,
            class: key,
            members: vec![member],
            bodies: Vec::new(),
        }
    }

    /// Spins (no sleep) until class `key` is `ready`, or a minute has
    /// passed; returns whether it got there. Callers end the pass before
    /// asserting, so a failure cannot leave the queued requests parked
    /// forever.
    fn wait_class(svc: &Service, key: &BatchKey, ready: impl Fn(&Class) -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if svc.batches.lock_ok().get(key).is_some_and(&ready) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// [`wait_class`] until `n` requests have queued behind the running
    /// pass of class `key`; returns how many did.
    fn wait_queued(svc: &Service, key: &BatchKey, n: usize) -> usize {
        wait_class(svc, key, |c| c.queued.len() == n);
        svc.batches.lock_ok().get(key).map_or(0, |c| c.queued.len())
    }

    /// Ends a forged pass: `Some` as a leader that published a body,
    /// `None` as one that died.
    fn end_pass(mut pass: Pass<'_>, outcome: Option<Arc<String>>) {
        pass.bodies.extend(outcome);
        drop(pass);
    }

    /// Cached keys of graph `name`.
    fn cached_keys(svc: &Service, name: &str) -> usize {
        svc.lock_cache()
            .iter()
            .filter(|(k, _)| k.class.graph == name)
            .count()
    }

    /// A snapshot warm entry for `/rank` body `req`, carrying the bytes
    /// the `quiet` server answers it with.
    fn warm_entry(quiet: &Service, req: &str) -> persist::WarmEntry {
        let p = quiet
            .parse_rank_request(&Json::parse(req).unwrap())
            .expect("valid rank request");
        let (r, _) = quiet.handle(&post("/rank", req));
        assert_eq!(r.status, 200, "{}", r.body_str());
        persist::WarmEntry {
            measure: p.measure.code(),
            targets: p.targets,
            eps_bits: p.eps.to_bits(),
            delta_bits: p.delta.to_bits(),
            seed: p.seed,
            khops: p.khops as u64,
            body: r.body_str().to_string(),
        }
    }

    /// Answers `bodies` concurrently on `svc`, in order, while the calling
    /// thread runs `meanwhile`.
    fn answer_concurrently(
        svc: &Service,
        bodies: &[String],
        meanwhile: impl FnOnce(),
    ) -> Vec<Response> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .iter()
                .map(|b| scope.spawn(move || svc.handle(&post("/rank", b)).0))
                .collect();
            meanwhile();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// The tentpole property, per measure: distinct-target requests that
    /// arrive while their class has a pass running queue behind it and
    /// seal into ONE shared sample pass when it ends; every response
    /// reports `batched`, and every body is byte-identical to what a quiet
    /// server returns for that request alone.
    #[test]
    fn batching_coalesces_distinct_targets_into_one_pass() {
        let sets = ["[0,1]", "[5,6]", "[12,17]", "[20,24]"];
        for measure in ["bc", "kpath", "harmonic"] {
            let svc = service_with_grid();
            let bodies: Vec<String> = sets
                .iter()
                .map(|t| {
                    format!(
                        r#"{{"graph":"grid","targets":{t},"measure":"{measure}","eps":0.1,"delta":0.1,"seed":9}}"#
                    )
                })
                .collect();
            let class = class_of(&svc, &bodies[0]);
            let running = forge_running_pass(&svc, class.clone());
            let responses = answer_concurrently(&svc, &bodies, || {
                let queued = wait_queued(&svc, &class, sets.len());
                end_pass(running, Some(Arc::new(String::new())));
                assert_eq!(queued, sets.len(), "{measure}");
            });
            assert_eq!(
                svc.sample_passes(),
                1,
                "{measure}: expected one shared pass"
            );
            assert_eq!(svc.batched(), 4, "{measure}");
            assert_eq!(svc.computations(), 4, "{measure}");
            assert!(
                svc.batches.lock_ok().is_empty(),
                "{measure}: the class outlived its last pass"
            );
            for (r, req) in responses.iter().zip(&bodies) {
                assert_eq!(r.status, 200, "{}", r.body_str());
                assert_eq!(cache_header(r), Some("batched"), "{measure}");
                let quiet = service_with_grid();
                let (qr, _) = quiet.handle(&post("/rank", req));
                assert_eq!(cache_header(&qr), Some("miss"));
                assert_eq!(
                    r.body, qr.body,
                    "{measure}: batched bytes diverged from a quiet-server run"
                );
            }
        }
    }

    /// A running leader that dies (its slot filled with `None`) must not
    /// strand the batch queued behind it: the batch still seals, computes
    /// and answers 200.
    #[test]
    fn queued_batch_computes_after_the_running_leader_dies() {
        let svc = service_with_grid();
        let bodies: Vec<String> = ["[0,1]", "[5,6]", "[12,17]"]
            .iter()
            .map(|t| format!(r#"{{"graph":"grid","targets":{t},"eps":0.1,"delta":0.1,"seed":4}}"#))
            .collect();
        let class = class_of(&svc, &bodies[0]);
        let running = forge_running_pass(&svc, class.clone());
        let responses = answer_concurrently(&svc, &bodies, || {
            let queued = wait_queued(&svc, &class, bodies.len());
            end_pass(running, None);
            assert_eq!(queued, bodies.len());
        });
        for r in &responses {
            assert_eq!(r.status, 200, "{}", r.body_str());
            assert_eq!(cache_header(r), Some("batched"));
        }
        assert_eq!(svc.sample_passes(), 1);
        assert_eq!(svc.batched(), 3);
        assert!(svc.batches.lock_ok().is_empty());
    }

    /// A request whose class is idle computes at once as a pass of one:
    /// it answers `miss`, counts no batched member, and leaves no class
    /// entry behind.
    #[test]
    fn lone_request_is_a_pass_of_one_and_reports_miss() {
        let svc = service_with_grid();
        let body = r#"{"graph":"grid","targets":[6,12,18],"eps":0.1,"delta":0.1,"seed":7}"#;
        let (r, _) = svc.handle(&post("/rank", body));
        assert_eq!(r.status, 200, "{}", r.body_str());
        assert_eq!(cache_header(&r), Some("miss"));
        assert_eq!(svc.sample_passes(), 1);
        assert_eq!(svc.batched(), 0);
        assert_eq!(svc.computations(), 1);
        assert!(svc.batches.lock_ok().is_empty());
    }

    /// Requests in different accuracy classes (here: distinct ε) never
    /// share a stream: a request of an idle class computes at once even
    /// while another class has a pass running with a batch queued.
    #[test]
    fn batching_respects_accuracy_class() {
        let svc = service_with_grid();
        let body = |eps: &str, targets: &str| {
            format!(r#"{{"graph":"grid","targets":{targets},"eps":{eps},"delta":0.1,"seed":5}}"#)
        };
        let busy = class_of(&svc, &body("0.1", "[6,12]"));
        let running = forge_running_pass(&svc, busy.clone());
        let queued = [body("0.1", "[6,12]"), body("0.1", "[1,2]")];
        let responses = answer_concurrently(&svc, &queued, || {
            let n = wait_queued(&svc, &busy, queued.len());
            let (r, _) = svc.handle(&post("/rank", &body("0.2", "[6,12]")));
            let passes = svc.sample_passes();
            end_pass(running, Some(Arc::new(String::new())));
            assert_eq!(n, queued.len());
            assert_eq!(r.status, 200, "{}", r.body_str());
            assert_eq!(
                cache_header(&r),
                Some("miss"),
                "distinct eps must not queue"
            );
            assert_eq!(passes, 1);
        });
        for r in &responses {
            assert_eq!(r.status, 200, "{}", r.body_str());
            assert_eq!(cache_header(r), Some("batched"));
        }
        assert_eq!(svc.sample_passes(), 2);
        assert_eq!(svc.batched(), 2);
    }

    #[test]
    fn rank_measures_kpath_and_harmonic() {
        let svc = service_with_grid();
        for measure in ["kpath", "harmonic"] {
            let body = format!(
                r#"{{"graph":"grid","targets":[2,12,22],"measure":"{measure}","eps":0.2,"delta":0.1,"seed":3}}"#
            );
            let (r, _) = svc.handle(&post("/rank", &body));
            assert_eq!(r.status, 200, "{measure}: {}", r.body_str());
            let v = Json::parse(r.body_str()).unwrap();
            assert_eq!(v.get("measure").unwrap().as_str(), Some(measure));
        }
    }

    #[test]
    fn rank_rejects_bad_requests() {
        let svc = service_with_grid();
        for (body, want) in [
            (r#"{"#, 400),
            (r#"{"targets":[1]}"#, 400),                  // no graph
            (r#"{"graph":"grid"}"#, 400),                 // no targets
            (r#"{"graph":"nope","targets":[1]}"#, 404),   // unknown graph
            (r#"{"graph":"grid","targets":[]}"#, 400),    // empty targets
            (r#"{"graph":"grid","targets":[999]}"#, 400), // out of range
            (r#"{"graph":"grid","targets":[1,1]}"#, 400), // duplicate
            (r#"{"graph":"grid","targets":[1],"eps":0}"#, 400), // eps = 0
            (r#"{"graph":"grid","targets":[1],"eps":1.5}"#, 400), // eps > 1
            (r#"{"graph":"grid","targets":[1],"delta":1}"#, 400), // delta = 1
            (r#"{"graph":"grid","targets":[1],"eps":"x"}"#, 400), // non-numeric
            (r#"{"graph":"grid","targets":[1],"seed":-1}"#, 400), // negative seed
            (r#"{"graph":"grid","targets":[1],"measure":"pr"}"#, 400), // unknown measure
            (
                r#"{"graph":"grid","targets":[1],"measure":"kpath","khops":1}"#,
                400,
            ),
            (r#"{"graph":"grid","targets":[1.5]}"#, 400), // fractional id
        ] {
            let (r, _) = svc.handle(&post("/rank", body));
            assert_eq!(
                r.status,
                want,
                "body {body}: got {} ({})",
                r.status,
                r.body_str()
            );
        }
        // khops is ignored (not validated) for non-kpath measures.
        let (r, _) = svc.handle(&post(
            "/rank",
            r#"{"graph":"grid","targets":[1],"khops":1,"eps":0.3,"delta":0.1}"#,
        ));
        assert_eq!(r.status, 200, "{}", r.body_str());
    }

    #[test]
    fn load_graph_via_generator_and_replacement_purges_cache() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            ..ServiceConfig::default()
        });
        let (r, _) = svc.handle(&post(
            "/graphs",
            r#"{"name":"fl","network":"flickr","size":"tiny","seed":5}"#,
        ));
        assert_eq!(r.status, 200, "{}", r.body_str());
        let v = Json::parse(r.body_str()).unwrap();
        assert_eq!(v.get("replaced").unwrap().as_bool(), Some(false));
        let nodes = v.get("nodes").unwrap().as_u64().unwrap();
        assert!(nodes > 10);

        let rank = r#"{"graph":"fl","targets":[1,2,3],"eps":0.2,"delta":0.1,"seed":1}"#;
        let (r1, _) = svc.handle(&post("/rank", rank));
        assert_eq!(r1.status, 200, "{}", r1.body_str());

        // Reload under the same name with a different seed: stale rankings
        // must not survive.
        let (r, _) = svc.handle(&post(
            "/graphs",
            r#"{"name":"fl","network":"flickr","size":"tiny","seed":6}"#,
        ));
        assert_eq!(
            Json::parse(r.body_str())
                .unwrap()
                .get("replaced")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        let (r2, _) = svc.handle(&post("/rank", rank));
        assert!(r2
            .headers
            .iter()
            .any(|(k, v)| k == "X-Saphyra-Cache" && v == "miss"));
        assert_ne!(
            r1.body, r2.body,
            "stale cache entry served for reloaded graph"
        );
    }

    #[test]
    fn load_graph_rejects_garbage() {
        let svc = Service::new(ServiceConfig::default());
        for body in [
            r#"{}"#,
            r#"{"name":"x"}"#,
            r#"{"name":"../etc","path":"/etc/passwd"}"#,
            r#"{"name":".g","network":"flickr"}"#, // leading dot: the boot scan would skip its snapshot
            r#"{"name":"x","network":"nope"}"#,
            r#"{"name":"x","network":"flickr","size":"huge"}"#,
            r#"{"name":"x","path":"/nonexistent/file.txt"}"#,
            r#"{"name":"x","path":"p","network":"flickr"}"#,
        ] {
            let (r, _) = svc.handle(&post("/graphs", body));
            assert_eq!(r.status, 400, "body {body}: {}", r.body_str());
        }
    }

    #[test]
    fn unknown_routes() {
        let svc = Service::new(ServiceConfig::default());
        let (r, _) = svc.handle(&get("/nope"));
        assert_eq!(r.status, 404);
        let (r, _) = svc.handle(&Request {
            method: "DELETE".to_string(),
            path: "/rank".to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        });
        assert_eq!(r.status, 405);
    }

    #[test]
    fn shutdown_route_requests_shutdown() {
        let svc = Service::new(ServiceConfig::default());
        let (r, shut) = svc.handle(&post("/shutdown", ""));
        assert_eq!(r.status, 200);
        assert!(shut);
    }

    #[test]
    fn graphs_listing_reports_counts() {
        let svc = Service::new(ServiceConfig::default());
        let entry = GraphEntry::build("grid", saphyra_graph::fixtures::grid_graph(4, 4));
        let (nodes, edges, bicomps) = (
            entry.graph.num_nodes() as u64,
            entry.graph.num_edges() as u64,
            entry.dec.bic.num_bicomps as u64,
        );
        svc.registry().insert(entry);

        let (r, _) = svc.handle(&get("/graphs"));
        assert_eq!(r.status, 200);
        let json = Json::parse(r.body_str()).unwrap();
        let graphs = json.get("graphs").unwrap().as_arr().unwrap();
        assert_eq!(graphs.len(), 1);
        let info = &graphs[0];
        assert_eq!(info.get("name").unwrap().as_str(), Some("grid"));
        assert_eq!(info.get("nodes").unwrap().as_u64(), Some(nodes));
        assert_eq!(info.get("edges").unwrap().as_u64(), Some(edges));
        assert_eq!(info.get("bicomps").unwrap().as_u64(), Some(bicomps));
        assert!(info.get("gamma").unwrap().as_f64().is_some());
    }

    #[test]
    fn patch_rejects_garbage() {
        let svc = service_with_grid();
        // Route-level misses first.
        let (r, _) = svc.handle(&patch_req("nope", r#"{"insert":[[0,1]]}"#));
        assert_eq!(r.status, 404, "{}", r.body_str());
        let (r, _) = svc.handle(&Request {
            method: "PATCH".to_string(),
            path: "/graphs/".to_string(),
            headers: Vec::new(),
            body: b"{}".to_vec(),
        });
        assert_eq!(r.status, 404);
        let (r, _) = svc.handle(&Request {
            method: "PATCH".to_string(),
            path: "/rank".to_string(),
            headers: Vec::new(),
            body: b"{}".to_vec(),
        });
        assert_eq!(r.status, 404);

        for body in [
            r#"{"#,                                   // malformed JSON
            r#"{}"#,                                  // empty delta
            r#"{"insert":[],"delete":[]}"#,           // still empty
            r#"{"insert":"x"}"#,                      // not an array
            r#"{"insert":[[1]]}"#,                    // pair of one
            r#"{"insert":[[1,2,3]]}"#,                // pair of three
            r#"{"insert":[["a","b"]]}"#,              // non-numeric endpoints
            r#"{"insert":[[1.5,2]]}"#,                // fractional id
            r#"{"insert":[[3,3]]}"#,                  // self-loop
            r#"{"insert":[[0,999]]}"#,                // out of range
            r#"{"delete":[[999,0]]}"#,                // out of range (delete side)
            r#"{"insert":[[0,1]],"delete":[[1,0]]}"#, // conflict
        ] {
            let (r, _) = svc.handle(&patch_req("grid", body));
            assert_eq!(r.status, 400, "body {body}: {} {}", r.status, r.body_str());
        }
        // Nothing above touched the entry.
        let entry = svc.registry().get("grid").unwrap();
        assert_eq!(entry.delta_seq, 0);
        assert_eq!(svc.patches(), 0);
    }

    /// The tentpole, end to end in one process: a PATCH swaps the entry
    /// under a fresh epoch, bumps `delta_seq`, and invalidates exactly the
    /// cached rankings whose targets live in a dirtied component — clean
    /// ones are re-keyed and keep serving hits with identical bytes, and
    /// other graphs' entries are untouched.
    #[test]
    fn patch_applies_delta_and_scopes_cache_invalidation() {
        let svc = service_with_grid();
        svc.registry()
            .insert(GraphEntry::build("two", two_component_graph()));

        // Warm three cache entries: component A of "two", component B of
        // "two", and one on the unrelated "grid" graph.
        let body_a = r#"{"graph":"two","targets":[1,2],"eps":0.2,"delta":0.2,"seed":3}"#;
        let body_b = r#"{"graph":"two","targets":[6,7,8],"eps":0.2,"delta":0.2,"seed":3}"#;
        let body_g = r#"{"graph":"grid","targets":[6,12],"eps":0.2,"delta":0.2,"seed":3}"#;
        let (ra, _) = svc.handle(&post("/rank", body_a));
        let (rb, _) = svc.handle(&post("/rank", body_b));
        let (rg, _) = svc.handle(&post("/rank", body_g));
        for r in [&ra, &rb, &rg] {
            assert_eq!(r.status, 200, "{}", r.body_str());
            assert_eq!(cache_header(r), Some("miss"));
        }
        let old_epoch = svc.registry().get("two").unwrap().epoch;

        // Patch component A only: +2 edges, -1 edge.
        let (p, _) = svc.handle(&patch_req(
            "two",
            r#"{"insert":[[0,5],[1,4]],"delete":[[0,3]]}"#,
        ));
        assert_eq!(p.status, 200, "{}", p.body_str());
        let v = Json::parse(p.body_str()).unwrap();
        assert_eq!(v.get("graph").unwrap().as_str(), Some("two"));
        assert_eq!(v.get("nodes").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("edges").unwrap().as_u64(), Some(13));
        assert_eq!(v.get("inserted").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("deleted").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("delta_seq").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("cache_kept").unwrap().as_u64(), Some(1), "B survives");
        assert_eq!(v.get("cache_purged").unwrap().as_u64(), Some(1), "A purged");

        let entry = svc.registry().get("two").unwrap();
        assert_ne!(entry.epoch, old_epoch, "patch must mint a fresh epoch");
        assert_eq!(entry.delta_seq, 1);
        assert_eq!(entry.graph.num_edges(), 13);
        assert_eq!(svc.patches(), 1);
        assert_eq!(svc.patches_replayed(), 0);

        // Untouched component B: still a hit, byte-identical. Dirtied
        // component A: recomputed. Unrelated graph: untouched.
        let (rb2, _) = svc.handle(&post("/rank", body_b));
        assert_eq!(cache_header(&rb2), Some("hit"), "{}", rb2.body_str());
        assert_eq!(rb2.body, rb.body, "untouched-component bytes changed");
        let (ra2, _) = svc.handle(&post("/rank", body_a));
        assert_eq!(cache_header(&ra2), Some("miss"), "{}", ra2.body_str());
        let (rg2, _) = svc.handle(&post("/rank", body_g));
        assert_eq!(cache_header(&rg2), Some("hit"));
        assert_eq!(rg2.body, rg.body);

        // A second patch of component A re-keys B's entry again and purges
        // the ranking just computed against component A.
        let (p2, _) = svc.handle(&patch_req(
            "two",
            r#"{"insert":[[0,3]],"delete":[[0,5],[1,4]]}"#,
        ));
        assert_eq!(p2.status, 200, "{}", p2.body_str());
        let v = Json::parse(p2.body_str()).unwrap();
        assert_eq!(v.get("delta_seq").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("edges").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("cache_kept").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("cache_purged").unwrap().as_u64(), Some(1));
        let (rb3, _) = svc.handle(&post("/rank", body_b));
        assert_eq!(cache_header(&rb3), Some("hit"));
        assert_eq!(rb3.body, rb.body);

        // "two" holds the re-keyed B entry plus nothing stale (A's purged
        // keys are gone).
        assert_eq!(cached_keys(&svc, "two"), 1);
        assert_eq!(cached_keys(&svc, "grid"), 1);
    }

    /// Served bytes depend on the graph, not on how it was reached: after
    /// a PATCH, every measure's body for a set in the patched component
    /// (recomputed) and in the untouched one (re-keyed from the cache)
    /// equals the body a fresh service returns for the patched graph loaded
    /// directly under the same name.
    #[test]
    fn patched_graph_serves_the_bytes_of_a_fresh_load() {
        let bodies: Vec<String> = ["bc", "kpath", "harmonic"]
            .iter()
            .flat_map(|m| {
                ["[1,2,4]", "[6,7,9]"].map(|t| {
                    format!(
                        r#"{{"graph":"two","targets":{t},"measure":"{m}","eps":0.2,"delta":0.1,"seed":5}}"#
                    )
                })
            })
            .collect();
        let patched = service_with_grid();
        patched
            .registry()
            .insert(GraphEntry::build("two", two_component_graph()));
        for b in &bodies {
            let (r, _) = patched.handle(&post("/rank", b));
            assert_eq!(r.status, 200, "{}", r.body_str());
        }
        let (p, _) = patched.handle(&patch_req(
            "two",
            r#"{"insert":[[0,5],[1,4]],"delete":[[0,3]]}"#,
        ));
        assert_eq!(p.status, 200, "{}", p.body_str());

        let fresh = service_with_grid();
        let mut edges: Vec<(NodeId, NodeId)> = two_component_graph()
            .edges()
            .map(|(u, v, _)| (u, v))
            .filter(|&e| e != (0, 3))
            .collect();
        edges.extend([(0, 5), (1, 4)]);
        let g = saphyra_graph::GraphBuilder::new(12)
            .edges(edges)
            .build()
            .unwrap();
        fresh.registry().insert(GraphEntry::build("two", g));
        for b in &bodies {
            let (r, _) = patched.handle(&post("/rank", b));
            let (want, _) = fresh.handle(&post("/rank", b));
            assert_eq!(want.status, 200, "{}", want.body_str());
            assert_eq!(r.body_str(), want.body_str(), "{b}");
        }
    }

    /// A patch leaves the class table alone: the epoch is part of the
    /// class key, so an old-epoch class admits no new request. A new-epoch
    /// request computes at once while the old class's pass runs, the
    /// member queued behind that pass still answers, and the table ends
    /// empty.
    #[test]
    fn old_epoch_class_drains_after_a_patch() {
        let svc = service_with_grid();
        svc.registry()
            .insert(GraphEntry::build("two", two_component_graph()));
        let body = r#"{"graph":"two","targets":[1,2],"eps":0.2,"delta":0.2,"seed":3}"#;
        let old = class_of(&svc, body);
        let running = forge_running_pass(&svc, old.clone());
        let queued = [body.to_string()];
        let responses = answer_concurrently(&svc, &queued, || {
            let n = wait_queued(&svc, &old, 1);
            let (p, _) = svc.handle(&patch_req("two", r#"{"insert":[[2,5]]}"#));
            let (r, _) = svc.handle(&post("/rank", body));
            end_pass(running, None);
            assert_eq!(n, 1);
            assert_eq!(p.status, 200, "{}", p.body_str());
            assert_eq!(r.status, 200, "{}", r.body_str());
            assert_eq!(
                cache_header(&r),
                Some("miss"),
                "a new-epoch request queued behind an old-epoch pass"
            );
        });
        assert_eq!(responses[0].status, 200, "{}", responses[0].body_str());
        assert_eq!(cache_header(&responses[0]), Some("miss"));
        assert!(svc.batches.lock_ok().is_empty());
    }

    /// Single-flight reaches queued members too: a twin of a request
    /// queued behind a running pass parks on that member's slot instead of
    /// enrolling again, and replays the batch's bytes as `shared`.
    #[test]
    fn twin_of_a_queued_member_shares_its_slot() {
        let svc = service_with_grid();
        let bodies: Vec<String> = ["[0,1]", "[5,6]", "[0,1]"]
            .iter()
            .map(|t| format!(r#"{{"graph":"grid","targets":{t},"eps":0.1,"delta":0.1,"seed":4}}"#))
            .collect();
        let class = class_of(&svc, &bodies[0]);
        let running = forge_running_pass(&svc, class.clone());
        let responses = answer_concurrently(&svc, &bodies, || {
            // Two members queued, and one of them holds a third slot
            // reference besides its own request's and the table's: the
            // twin parked on it.
            let parked = wait_class(&svc, &class, |c| {
                c.queued.len() == 2 && c.queued.iter().any(|m| Arc::strong_count(&m.slot) == 3)
            });
            end_pass(running, Some(Arc::new(String::new())));
            assert!(parked, "the twin never parked on the queued member");
        });
        assert_eq!(svc.sample_passes(), 1);
        assert_eq!(svc.computations(), 2);
        assert_eq!(svc.cache_shared(), 1);
        let mut states: Vec<&str> = responses.iter().filter_map(cache_header).collect();
        states.sort_unstable();
        assert_eq!(states, ["batched", "batched", "shared"]);
        let quiet = service_with_grid();
        for (r, req) in responses.iter().zip(&bodies) {
            assert_eq!(r.status, 200, "{}", r.body_str());
            let (qr, _) = quiet.handle(&post("/rank", req));
            assert_eq!(r.body, qr.body, "bytes diverged from a quiet-server run");
        }
        assert!(svc.batches.lock_ok().is_empty());
    }

    /// Regression: a hit counts in `warm_hits` only while the body it
    /// replays is the one restored from the warm section. Evicted and
    /// recomputed, the same request is an ordinary entry.
    #[test]
    fn evicted_warm_body_stops_counting_warm_hits() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 1,
            ..ServiceConfig::default()
        });
        svc.registry().insert(GraphEntry::build(
            "grid",
            saphyra_graph::fixtures::grid_graph(5, 5),
        ));
        let body = r#"{"graph":"grid","targets":[6,12],"eps":0.2,"delta":0.2,"seed":3}"#;
        let other = r#"{"graph":"grid","targets":[1,2],"eps":0.2,"delta":0.2,"seed":3}"#;
        let epoch = svc.registry().get("grid").unwrap().epoch;
        svc.restore_warm("grid", epoch, vec![warm_entry(&service_with_grid(), body)]);

        let (r, _) = svc.handle(&post("/rank", body));
        assert_eq!(cache_header(&r), Some("hit"), "{}", r.body_str());
        assert_eq!(svc.warm_hits(), 1);
        let (r, _) = svc.handle(&post("/rank", other));
        assert_eq!(cache_header(&r), Some("miss"), "{}", r.body_str());
        let (r, _) = svc.handle(&post("/rank", body));
        assert_eq!(
            cache_header(&r),
            Some("miss"),
            "the warm body was not evicted"
        );
        let (r, _) = svc.handle(&post("/rank", body));
        assert_eq!(cache_header(&r), Some("hit"), "{}", r.body_str());
        assert_eq!(svc.warm_hits(), 1, "a recomputed body counted as warm");
        assert_eq!(svc.cache_hits(), 2);
    }

    /// Warm membership follows a `PATCH` re-key: the clean component's
    /// warm body keeps answering `hit` and counting in `warm_hits`; the
    /// dirty component's is purged, and a hit on its recomputed body does
    /// not count.
    #[test]
    fn warm_flag_follows_a_patch_rekey() {
        let with_two = || {
            let svc = service_with_grid();
            svc.registry()
                .insert(GraphEntry::build("two", two_component_graph()));
            svc
        };
        let (svc, quiet) = (with_two(), with_two());
        let body_a = r#"{"graph":"two","targets":[1,2],"eps":0.2,"delta":0.2,"seed":3}"#;
        let body_b = r#"{"graph":"two","targets":[6,7,8],"eps":0.2,"delta":0.2,"seed":3}"#;
        let warm = vec![warm_entry(&quiet, body_a), warm_entry(&quiet, body_b)];
        let warm_b = warm[1].body.clone();
        let epoch = svc.registry().get("two").unwrap().epoch;
        svc.restore_warm("two", epoch, warm);

        // Patch component A only.
        let (p, _) = svc.handle(&patch_req("two", r#"{"insert":[[0,5]]}"#));
        assert_eq!(p.status, 200, "{}", p.body_str());
        let v = Json::parse(p.body_str()).unwrap();
        assert_eq!(v.get("cache_kept").unwrap().as_u64(), Some(1), "B survives");
        assert_eq!(v.get("cache_purged").unwrap().as_u64(), Some(1), "A purged");

        let (rb, _) = svc.handle(&post("/rank", body_b));
        assert_eq!(cache_header(&rb), Some("hit"), "{}", rb.body_str());
        assert_eq!(rb.body_str(), warm_b);
        assert_eq!(svc.warm_hits(), 1, "the re-keyed warm body lost its flag");
        let (ra, _) = svc.handle(&post("/rank", body_a));
        assert_eq!(cache_header(&ra), Some("miss"), "{}", ra.body_str());
        let (ra, _) = svc.handle(&post("/rank", body_a));
        assert_eq!(cache_header(&ra), Some("hit"), "{}", ra.body_str());
        assert_eq!(svc.warm_hits(), 1, "a recomputed body counted as warm");
    }

    /// Regression for the reload path: replacing ONE graph must purge only
    /// that graph's cached rankings, not the whole cache.
    #[test]
    fn reload_purges_only_the_reloaded_graph() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 8,
            ..ServiceConfig::default()
        });
        for (name, seed) in [("a", 5), ("b", 6)] {
            let body =
                format!(r#"{{"name":"{name}","network":"flickr","size":"tiny","seed":{seed}}}"#);
            let (r, _) = svc.handle(&post("/graphs", &body));
            assert_eq!(r.status, 200, "{}", r.body_str());
        }
        let rank_a = r#"{"graph":"a","targets":[1,2,3],"eps":0.2,"delta":0.2,"seed":1}"#;
        let rank_b = r#"{"graph":"b","targets":[1,2,3],"eps":0.2,"delta":0.2,"seed":1}"#;
        let (ra, _) = svc.handle(&post("/rank", rank_a));
        let (rb, _) = svc.handle(&post("/rank", rank_b));
        assert_eq!(ra.status, 200, "{}", ra.body_str());
        assert_eq!(rb.status, 200, "{}", rb.body_str());

        // Reload "a" under a different seed.
        let (r, _) = svc.handle(&post(
            "/graphs",
            r#"{"name":"a","network":"flickr","size":"tiny","seed":7}"#,
        ));
        assert_eq!(r.status, 200, "{}", r.body_str());

        // "b" still hits with identical bytes; "a" is gone from the cache.
        let (rb2, _) = svc.handle(&post("/rank", rank_b));
        assert_eq!(
            cache_header(&rb2),
            Some("hit"),
            "reload of \"a\" purged \"b\"'s cache entry"
        );
        assert_eq!(rb2.body, rb.body);
        let (ra2, _) = svc.handle(&post("/rank", rank_a));
        assert_eq!(cache_header(&ra2), Some("miss"));
        assert_ne!(ra2.body, ra.body, "stale ranking served after reload");
        assert_eq!(cached_keys(&svc, "a"), 1);
        assert_eq!(cached_keys(&svc, "b"), 1);
    }
}
