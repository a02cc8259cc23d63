//! The four traffic mixes and the closed-loop clients that drive them.
//!
//! Every client owns one keep-alive connection and sends its next request
//! only after the previous reply (a closed loop), so the offered load is
//! set by the client count. The service gets one worker per client, so no
//! request waits for a worker. The mixes are synthetic, not recorded
//! traffic; each isolates one path of `/rank`:
//!
//! | mix      | clients | requests |
//! |----------|---------|----------|
//! | hot      | 4 | uniform picks from 120 betweenness requests primed before timing; nothing else enters the 128-entry cache, so every reply is a hit |
//! | cold     | 2 | every request a fresh seed and target set, betweenness: all misses |
//! | measures | 2 | as cold, cycling betweenness, k-path and harmonic in equal shares: every estimator computes under load |
//! | burst    | 8 | barrier-released waves of betweenness requests sharing a seed, target sets disjoint but for the anchors; the last client repeats the first one's set |
//!
//! Client counts: two per core of a 2-core host where every reply is a
//! cache hit (hot), one per core where every request computes (cold,
//! measures), and in burst one more than the seven distinct sets of a
//! wave. Measures clients walk the fixed cycle of [`Plan`], each entered at
//! a different offset, so the shares are exact in every run. Burst waves
//! hold one measure, so a wave's replies all wait for one sample pass.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::rng::Rng;
use crate::server::GRAPH;

pub const DELTA: f64 = 0.1;
pub const KHOPS: usize = 5;
pub const TARGETS: usize = 16;
/// Catalog entries of `hot`: all fit in the service's default response
/// cache (128 entries).
const CATALOG: usize = 120;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Measure {
    Bc,
    KPath,
    Harmonic,
}

impl Measure {
    pub fn name(self) -> &'static str {
        match self {
            Measure::Bc => "bc",
            Measure::KPath => "kpath",
            Measure::Harmonic => "harmonic",
        }
    }

    /// The accuracy each measure is requested at: a lone cold request
    /// costs a few (kpath) to a few tens of (bc, harmonic) milliseconds on
    /// the benchmark graph.
    pub fn eps(self) -> f64 {
        match self {
            Measure::Bc => 0.05,
            Measure::KPath => 0.01,
            Measure::Harmonic => 0.25,
        }
    }
}

#[derive(Clone, Debug)]
pub struct RankReq {
    pub measure: Measure,
    pub targets: Vec<u32>,
    pub seed: u64,
}

impl RankReq {
    pub fn body(&self) -> String {
        let targets: Vec<String> = self.targets.iter().map(u32::to_string).collect();
        format!(
            r#"{{"graph":"{GRAPH}","targets":[{}],"measure":"{}","eps":{},"delta":{DELTA},"seed":{},"khops":{KHOPS}}}"#,
            targets.join(","),
            self.measure.name(),
            self.measure.eps(),
            self.seed
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
    Measures,
    Burst,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot" => Some(Workload::Hot),
            "cold" => Some(Workload::Cold),
            "measures" => Some(Workload::Measures),
            "burst" => Some(Workload::Burst),
            _ => None,
        }
    }

    pub fn clients(self) -> usize {
        match self {
            Workload::Hot => 4,
            Workload::Cold | Workload::Measures => 2,
            Workload::Burst => 8,
        }
    }
}

/// Random streams of a run (see [`Rng::stream`]).
pub const GRAPH_STREAM: u64 = 0;
const CATALOG_STREAM: u64 = 1;
pub const PROBE_STREAM: u64 = 2;
fn client_stream(phase: u64, client: usize) -> u64 {
    100 + 100 * phase + client as u64
}
fn wave_stream(phase: u64, wave: u64) -> u64 {
    1 << 40 | phase << 32 | wave
}

/// Everything a run sends, derived from the seed and the graph's target
/// nodes.
pub struct Plan {
    pub workload: Workload,
    seed: u64,
    /// Held by every target set (see [`crate::graph::ANCHORS`]).
    anchors: Vec<u32>,
    /// The rest of each target set is drawn from these.
    pool: Vec<u32>,
    pub catalog: Vec<RankReq>,
    /// The slot cycle of free-running clients: `None` repeats a uniform
    /// pick from the catalog, `Some(m)` sends a fresh request of measure
    /// `m`.
    cycle: Vec<Option<Measure>>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, anchors: Vec<u32>, pool: Vec<u32>) -> Plan {
        use Measure::{Bc, Harmonic, KPath};
        let (measures, cycle) = match workload {
            Workload::Hot => (vec![Bc; CATALOG], vec![None]),
            Workload::Cold => (Vec::new(), vec![Some(Bc)]),
            Workload::Measures => (Vec::new(), vec![Some(Bc), Some(KPath), Some(Harmonic)]),
            Workload::Burst => (Vec::new(), Vec::new()),
        };
        let mut plan = Plan {
            workload,
            seed,
            anchors,
            pool,
            catalog: Vec::new(),
            cycle,
        };
        let mut rng = Rng::stream(seed, CATALOG_STREAM);
        plan.catalog = measures.iter().map(|&m| plan.fresh(&mut rng, m)).collect();
        plan
    }

    /// A request with a fresh seed and target set.
    pub fn fresh(&self, rng: &mut Rng, measure: Measure) -> RankReq {
        let rest = rng.sample(&self.pool, TARGETS - self.anchors.len());
        RankReq {
            measure,
            targets: self.with_anchors(rng, &rest),
            seed: rng.json_seed(),
        }
    }

    /// The anchors and `rest`, in random order.
    fn with_anchors(&self, rng: &mut Rng, rest: &[u32]) -> Vec<u32> {
        let all: Vec<u32> = self.anchors.iter().chain(rest).copied().collect();
        rng.sample(&all, all.len())
    }

    /// Request `i` of free-running client `client`.
    fn next(&self, rng: &mut Rng, client: usize, i: u64) -> RankReq {
        let offset = client * self.cycle.len() / self.workload.clients();
        match self.cycle[(offset + i as usize) % self.cycle.len()] {
            None => self.catalog[rng.below(self.catalog.len())].clone(),
            Some(m) => self.fresh(rng, m),
        }
    }

    /// Client `client`'s request in burst wave `wave`.
    fn wave(&self, phase: u64, wave: u64, client: usize) -> RankReq {
        let mut rng = Rng::stream(self.seed, wave_stream(phase, wave));
        let seed = rng.json_seed();
        let sets = self.workload.clients() - 1;
        let rest = TARGETS - self.anchors.len();
        let all = rng.sample(&self.pool, rest * sets);
        let slot = client % sets;
        RankReq {
            measure: Measure::Bc,
            targets: self.with_anchors(&mut rng, &all[slot * rest..(slot + 1) * rest]),
            seed,
        }
    }
}

/// How the service says it answered (`X-Saphyra-Cache`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    Hit,
    Miss,
    Shared,
    Batched,
    Unknown,
}

impl Disposition {
    fn parse(header: &str) -> Disposition {
        match header {
            "hit" => Disposition::Hit,
            "miss" => Disposition::Miss,
            "shared" => Disposition::Shared,
            "batched" => Disposition::Batched,
            _ => Disposition::Unknown,
        }
    }
}

/// One `/rank` call as the client saw it.
pub struct Record {
    pub latency: Duration,
    /// HTTP status; 0 when the request failed in transport.
    pub status: u16,
    pub cache: Disposition,
    /// `stats.samples` of the body, when present.
    pub samples: Option<u64>,
}

/// Distinct requests seen and the first body returned for each; replays
/// must return the same bytes.
#[derive(Default)]
pub struct Bodies {
    pub map: HashMap<String, (RankReq, String)>,
    pub mismatches: usize,
}

impl Bodies {
    pub fn note(&mut self, key: String, req: &RankReq, body: String) {
        match self.map.entry(key) {
            Entry::Occupied(e) => self.mismatches += usize::from(e.get().1 != body),
            Entry::Vacant(e) => {
                e.insert((req.clone(), body));
            }
        }
    }

    pub fn merge(&mut self, other: Bodies) {
        self.mismatches += other.mismatches;
        for (key, (req, body)) in other.map {
            self.note(key, &req, body);
        }
    }
}

pub struct Phase {
    pub records: Vec<Record>,
    pub elapsed: Duration,
}

/// Sends `req`, records the call and notes a 200 body in `bodies`.
pub fn send(conn: &mut Conn, req: &RankReq, bodies: &mut Bodies) -> Record {
    let body = req.body();
    let start = Instant::now();
    let result = conn.request("POST", "/rank", &body);
    let latency = start.elapsed();
    let mut rec = Record {
        latency,
        status: 0,
        cache: Disposition::Unknown,
        samples: None,
    };
    if let Ok(reply) = result {
        rec.status = reply.status;
        rec.cache = Disposition::parse(&reply.cache);
        if reply.status == 200 {
            rec.samples = samples_of(&reply.body);
            bodies.note(body, req, reply.body);
        }
    }
    rec
}

fn samples_of(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"samples\":")? + 10..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Runs the workload's clients for `dur` (`phase` selects fresh request
/// streams, so warm-up and measurement never overlap).
pub fn run(plan: &Plan, addr: &str, phase: u64, dur: Duration, bodies: &mut Bodies) -> Phase {
    let clients = plan.workload.clients();
    let burst = plan.workload == Workload::Burst;
    let t0 = Instant::now();
    let deadline = t0 + dur;
    let abort = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(clients);
    let logs: Vec<(Vec<Record>, Bodies)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (abort, stop, barrier) = (&abort, &stop, &barrier);
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut rng = Rng::stream(plan.seed, client_stream(phase, c));
                    let (mut records, mut seen) = (Vec::new(), Bodies::default());
                    for i in 0u64.. {
                        if burst {
                            // Every client must take the same decision, or
                            // the ones still running would wait forever.
                            if barrier.wait().is_leader() {
                                let done =
                                    Instant::now() >= deadline || abort.load(Ordering::SeqCst);
                                stop.store(done, Ordering::SeqCst);
                            }
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                        } else if Instant::now() >= deadline || abort.load(Ordering::SeqCst) {
                            break;
                        }
                        let req = if burst {
                            plan.wave(phase, i, c)
                        } else {
                            plan.next(&mut rng, c, i)
                        };
                        let rec = send(&mut conn, &req, &mut seen);
                        if rec.status == 0 {
                            abort.store(true, Ordering::SeqCst);
                        }
                        records.push(rec);
                    }
                    (records, seen)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut records = Vec::new();
    for (recs, seen) in logs {
        records.extend(recs);
        bodies.merge(seen);
    }
    Phase { records, elapsed }
}
