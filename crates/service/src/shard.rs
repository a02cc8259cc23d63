//! Cross-shard execution for split graphs: the binary wire protocol of
//! the internal `POST /shard/exec` endpoint, the router-side executor
//! ([`ShardedExec`]) that answers each estimation round's demands by
//! fanning chunk-keyed work units out to shard backends, and the
//! shard-side handler ([`handle_exec`]) that computes partial block
//! accumulators against its local registry.
//!
//! ## Determinism contract
//!
//! The executor never invents sample coordinates: every work unit is a
//! `(subscriber, Demand, chunk sub-range)` triple, and a shard draws it
//! with [`saphyra::framework::exec_unit`] — the *same* chunk-keyed RNG
//! streams the in-process pass uses. Hit counts (`u64`) merge exactly
//! under any partition, so the router splits each demand's chunks evenly
//! across shards. Fractional losses (`LossAcc`) are `f64` sums, where
//! association order matters: the router ships only *whole* units from
//! [`saphyra::framework::unit_ranges`] (a pure function of the demand, so
//! router and shard agree without coordination), each shard folds its
//! unit's chunks sequentially, and the router merges unit partials in
//! global unit order — the exact left-to-right association the local pass
//! uses. Local == sharded, bit for bit, by construction.
//!
//! ## Statelessness
//!
//! Every round's request carries the full context a shard needs — graph
//! name, a `(nodes, edges)` fingerprint, measure, and the target sets of
//! the subscribers demanding in that round — so shards keep no session
//! state and any round can be retried on a fresh connection. Epochs are process-local and never
//! cross the wire; the fingerprint is what catches a shard serving a
//! different graph under the same name (HTTP 409).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use saphyra::bc::{build_a_index, vc_bounds_from, BcApproxProblem};
use saphyra::closeness::HarmonicApproxProblem;
use saphyra::framework::{
    demand_chunks, exec_unit, unit_ranges, BlockExec, Demand, ExecError, LossAcc,
};
use saphyra::kpath::KPathApproxProblem;
use saphyra::params;
use saphyra_graph::wire::{self, Reader};
use saphyra_graph::NodeId;

use crate::http::{Client, ClientResponse, Response};
use crate::json::Json;
use crate::registry::Registry;
use crate::sync::LockExt;

/// Wire format version of `/shard/exec` requests and responses.
pub const WIRE_VERSION: u8 = 1;

/// Measure code: betweenness (hit accumulators).
pub const MEASURE_BC: u8 = 0;
/// Measure code: k-path (hit accumulators).
pub const MEASURE_KPATH: u8 = 1;
/// Measure code: harmonic (fractional-loss accumulators).
pub const MEASURE_HARMONIC: u8 = 2;

/// Accumulator kind: per-hypothesis `u64` hit counts.
const ACC_HITS: u8 = 0;
/// Accumulator kind: per-hypothesis [`LossAcc`] partial sums.
const ACC_LOSS: u8 = 1;

fn error_json(status: u16, msg: impl Into<String>) -> Response {
    Response::json(
        status,
        Json::Obj(vec![("error".to_string(), Json::from(msg.into()))]).to_string(),
    )
}

// ---------------------------------------------------------------------------
// Router side: the shard pool and the executor.
// ---------------------------------------------------------------------------

/// Lifetime counters of sharded execution, surfaced via `/healthz` so the
/// bench harness can report per-round merge overhead.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Estimation rounds fanned out across shards.
    pub rounds: AtomicU64,
    /// Nanoseconds the router spent merging shard partials.
    pub merge_nanos: AtomicU64,
}

/// The router's view of its shard backends: one pooled, pipelined
/// [`Client`] per shard (guarded by a mutex — concurrent rounds targeting
/// the same shard serialize on its connection), plus fan-out telemetry.
#[derive(Debug)]
pub struct ShardPool {
    addrs: Vec<String>,
    clients: Vec<Mutex<Client>>,
    stats: ShardStats,
}

impl ShardPool {
    /// A pool over `addrs` (no connections are opened until first use).
    pub fn new(addrs: Vec<String>) -> Self {
        let clients = addrs.iter().map(|a| Mutex::new(Client::new(a))).collect();
        ShardPool {
            addrs,
            clients,
            stats: ShardStats::default(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the pool has no shards.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Shard addresses, in fan-out order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Fan-out telemetry.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Proxies one JSON request to shard `i` over its pooled connection.
    pub fn request(
        &self,
        i: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        self.clients[i].lock_ok().request(method, path, body)
    }
}

/// One work unit in a round's fan-out plan: request index `ri` (position
/// in the `BlockExec::run` input, which is also the unit's subscriber on
/// the wire), unit index `uj` (fold position for loss merges), the demand
/// and its chunk sub-range.
#[derive(Debug, Clone)]
struct PlanUnit {
    ri: usize,
    uj: usize,
    d: Demand,
    chunks: Range<usize>,
}

/// Splits `0..chunks` into up to `parts` contiguous near-even ranges
/// (first `chunks % parts` ranges get one extra). Exact-merge
/// accumulators are partition-independent, so any split is correct; an
/// even one balances shard load.
fn split_chunks(chunks: usize, parts: usize) -> Vec<Range<usize>> {
    let base = chunks / parts;
    let rem = chunks % parts;
    let mut out = Vec::with_capacity(parts);
    let mut at = 0usize;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        out.push(at..at + len);
        at += len;
    }
    out
}

/// A [`BlockExec`] that answers each round by fanning work units out to
/// the shard backends of a [`ShardPool`] and merging their partial
/// accumulators (see the module docs for the determinism contract).
///
/// Implements `BlockExec<u64>` (betweenness, k-path) and
/// `BlockExec<LossAcc>` (harmonic); the measure code tells shards how to
/// rebuild the sampling problems.
pub struct ShardedExec<'a> {
    pool: &'a ShardPool,
    graph: &'a str,
    nodes: u64,
    edges: u64,
    measure: u8,
    khops: usize,
    reject_exact: bool,
    /// Every target set of the ranked batch, by original set index.
    sets: &'a [Vec<NodeId>],
}

impl<'a> ShardedExec<'a> {
    /// An executor for one ranked batch. `fingerprint` is the `(nodes,
    /// edges)` pair shards validate before computing; `sets` are the
    /// batch's target sets, indexed like the demands' subscribers. Each
    /// round ships only the sets demanding in it, so a set that never
    /// samples (e.g. harmonic `A = V`) never reaches a shard.
    pub fn new(
        pool: &'a ShardPool,
        graph: &'a str,
        fingerprint: (u64, u64),
        measure: u8,
        khops: usize,
        reject_exact: bool,
        sets: &'a [Vec<NodeId>],
    ) -> Self {
        ShardedExec {
            pool,
            graph,
            nodes: fingerprint.0,
            edges: fingerprint.1,
            measure,
            khops,
            reject_exact,
            sets,
        }
    }

    /// Encodes one shard's round request: header, the round's subscriber
    /// sets (one per request, in request order), units.
    fn encode_request(
        &self,
        acc: u8,
        master: u64,
        sets: &[&[NodeId]],
        units: &[PlanUnit],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_u8(&mut out, WIRE_VERSION);
        wire::put_str(&mut out, self.graph);
        wire::put_u64(&mut out, self.nodes);
        wire::put_u64(&mut out, self.edges);
        wire::put_u8(&mut out, self.measure);
        wire::put_usize(&mut out, self.khops);
        wire::put_u8(&mut out, self.reject_exact as u8);
        wire::put_u64(&mut out, master);
        wire::put_u8(&mut out, acc);
        wire::put_usize(&mut out, sets.len());
        for s in sets {
            wire::put_vec_u32(&mut out, s);
        }
        wire::put_usize(&mut out, units.len());
        for u in units {
            wire::put_usize(&mut out, u.ri);
            wire::put_u64(&mut out, u.d.stream);
            wire::put_u64(&mut out, u.d.first_chunk);
            wire::put_usize(&mut out, u.d.count);
            wire::put_usize(&mut out, u.chunks.start);
            wire::put_usize(&mut out, u.chunks.end);
        }
        out
    }

    /// Sends each shard its plan slice in parallel and decodes the
    /// per-unit partials (empty plan → no request). Any transport
    /// failure, non-200 status, or malformed payload aborts the round
    /// with an [`ExecError`] naming the shard.
    fn fan_out<T: Send>(
        &self,
        master: u64,
        sets: &[&[NodeId]],
        plan: &[Vec<PlanUnit>],
        acc: u8,
        decode: fn(&mut Reader<'_>, usize) -> Result<Vec<T>, String>,
    ) -> Result<Vec<Vec<Vec<T>>>, ExecError> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(i, units)| {
                    scope.spawn(move || -> Result<Vec<Vec<T>>, ExecError> {
                        if units.is_empty() {
                            return Ok(Vec::new());
                        }
                        let addr = &self.pool.addrs[i];
                        let body = self.encode_request(acc, master, sets, units);
                        let resp = self.pool.clients[i]
                            .lock_ok()
                            .request_bytes("POST", "/shard/exec", &body)
                            .map_err(|e| ExecError(format!("shard {addr}: {e}")))?;
                        if resp.status != 200 {
                            return Err(ExecError(format!(
                                "shard {addr}: HTTP {}: {}",
                                resp.status,
                                String::from_utf8_lossy(&resp.body)
                            )));
                        }
                        decode_response(&resp.body, acc, units, sets, decode)
                            .map_err(|e| ExecError(format!("shard {addr}: {e}")))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| ExecError("shard fan-out thread panicked".to_string()))?
                })
                .collect()
        })
    }

    /// The target sets of one round's demands, in request order — the
    /// round's subscriber list on the wire.
    fn round_sets(&self, reqs: &[(usize, Demand)]) -> Result<Vec<&'a [NodeId]>, ExecError> {
        reqs.iter()
            .map(|&(sub, _)| {
                self.sets
                    .get(sub)
                    .map(Vec::as_slice)
                    .ok_or_else(|| ExecError(format!("demand for unknown target set {sub}")))
            })
            .collect()
    }

    fn note_merge(&self, t0: Instant) {
        self.pool.stats.rounds.fetch_add(1, Ordering::Relaxed);
        self.pool
            .stats
            .merge_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Validates a shard's response frame and decodes one accumulator vector
/// per unit (each must have exactly the unit's hypothesis count).
fn decode_response<T>(
    bytes: &[u8],
    acc: u8,
    units: &[PlanUnit],
    sets: &[&[NodeId]],
    decode: fn(&mut Reader<'_>, usize) -> Result<Vec<T>, String>,
) -> Result<Vec<Vec<T>>, String> {
    let mut r = Reader::new(bytes);
    let err = |e: wire::WireError| e.to_string();
    let version = r.u8().map_err(err)?;
    if version != WIRE_VERSION {
        return Err(format!("unsupported response version {version}"));
    }
    let got_acc = r.u8().map_err(err)?;
    if got_acc != acc {
        return Err(format!(
            "accumulator kind mismatch: sent {acc}, got {got_acc}"
        ));
    }
    let n = r.usize_().map_err(err)?;
    if n != units.len() {
        return Err(format!("expected {} unit partials, got {n}", units.len()));
    }
    let mut out = Vec::with_capacity(n);
    for u in units {
        let k = r.usize_().map_err(err)?;
        if k != sets[u.ri].len() {
            return Err(format!(
                "unit for subscriber {} has {k} hypotheses, expected {}",
                u.ri,
                sets[u.ri].len()
            ));
        }
        out.push(decode(&mut r, k)?);
    }
    if !r.is_empty() {
        return Err(format!("{} trailing bytes in response", r.remaining()));
    }
    Ok(out)
}

fn decode_hits(r: &mut Reader<'_>, k: usize) -> Result<Vec<u64>, String> {
    (0..k).map(|_| r.u64().map_err(|e| e.to_string())).collect()
}

fn decode_losses(r: &mut Reader<'_>, k: usize) -> Result<Vec<LossAcc>, String> {
    (0..k)
        .map(|_| {
            let sum = r.f64().map_err(|e| e.to_string())?;
            let sumsq = r.f64().map_err(|e| e.to_string())?;
            Ok(LossAcc { sum, sumsq })
        })
        .collect()
}

impl BlockExec<u64> for ShardedExec<'_> {
    fn run(&mut self, master: u64, reqs: &[(usize, Demand)]) -> Result<Vec<Vec<u64>>, ExecError> {
        let ns = self.pool.len();
        let sets = self.round_sets(reqs)?;
        // Plan: split every demand's chunk range evenly across shards —
        // integer hit counts merge exactly under any partition.
        let mut plan: Vec<Vec<PlanUnit>> = vec![Vec::new(); ns];
        for (ri, &(_, d)) in reqs.iter().enumerate() {
            for (s, chunks) in split_chunks(demand_chunks(&d), ns).into_iter().enumerate() {
                if !chunks.is_empty() {
                    plan[s].push(PlanUnit {
                        ri,
                        uj: 0,
                        d,
                        chunks,
                    });
                }
            }
        }
        let partials = self.fan_out(master, &sets, &plan, ACC_HITS, decode_hits)?;

        let t0 = Instant::now();
        let mut out: Vec<Vec<u64>> = sets.iter().map(|s| vec![0u64; s.len()]).collect();
        for (units, shard_parts) in plan.iter().zip(&partials) {
            for (u, part) in units.iter().zip(shard_parts) {
                for (a, &p) in out[u.ri].iter_mut().zip(part) {
                    *a += p;
                }
            }
        }
        self.note_merge(t0);
        Ok(out)
    }
}

impl BlockExec<LossAcc> for ShardedExec<'_> {
    fn run(
        &mut self,
        master: u64,
        reqs: &[(usize, Demand)],
    ) -> Result<Vec<Vec<LossAcc>>, ExecError> {
        let ns = self.pool.len();
        let sets = self.round_sets(reqs)?;
        // Plan: f64 losses are association-sensitive, so ship only whole
        // local-pass fold units (round-robin across shards for balance)
        // and remember each unit's fold position `uj`.
        let mut plan: Vec<Vec<PlanUnit>> = vec![Vec::new(); ns];
        let mut unit_counts: Vec<usize> = Vec::with_capacity(reqs.len());
        let mut rr = 0usize;
        for (ri, (&(_, d), set)) in reqs.iter().zip(&sets).enumerate() {
            let ranges = unit_ranges::<LossAcc>(set.len(), &d);
            unit_counts.push(ranges.len());
            for (uj, chunks) in ranges.into_iter().enumerate() {
                plan[rr % ns].push(PlanUnit { ri, uj, d, chunks });
                rr += 1;
            }
        }
        let partials = self.fan_out(master, &sets, &plan, ACC_LOSS, decode_losses)?;

        // Merge unit partials in global unit order — the same
        // left-to-right association the local pass folds in.
        let t0 = Instant::now();
        let mut slots: Vec<Vec<Option<Vec<LossAcc>>>> =
            unit_counts.iter().map(|&c| vec![None; c]).collect();
        for (units, shard_parts) in plan.iter().zip(&partials) {
            for (u, part) in units.iter().zip(shard_parts) {
                slots[u.ri][u.uj] = Some(part.clone());
            }
        }
        let mut out = Vec::with_capacity(reqs.len());
        for (slot_row, set) in slots.into_iter().zip(&sets) {
            let mut accs = vec![LossAcc::default(); set.len()];
            for part in slot_row {
                let part = part.expect("every planned unit was assigned to a shard");
                for (a, p) in accs.iter_mut().zip(&part) {
                    a.sum += p.sum;
                    a.sumsq += p.sumsq;
                }
            }
            out.push(accs);
        }
        self.note_merge(t0);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Shard side: decode, validate, compute, encode.
// ---------------------------------------------------------------------------

/// A decoded `/shard/exec` request.
struct ExecRequest {
    graph: String,
    nodes: u64,
    edges: u64,
    measure: u8,
    khops: usize,
    reject_exact: bool,
    acc: u8,
    master: u64,
    sets: Vec<Vec<NodeId>>,
    units: Vec<(usize, Demand, Range<usize>)>,
}

fn decode_request(bytes: &[u8]) -> Result<ExecRequest, String> {
    let mut r = Reader::new(bytes);
    let err = |e: wire::WireError| e.to_string();
    let version = r.u8().map_err(err)?;
    if version != WIRE_VERSION {
        return Err(format!("unsupported request version {version}"));
    }
    let graph = r.str_().map_err(err)?;
    let nodes = r.u64().map_err(err)?;
    let edges = r.u64().map_err(err)?;
    let measure = r.u8().map_err(err)?;
    let khops = r.usize_().map_err(err)?;
    let reject_exact = match r.u8().map_err(err)? {
        0 => false,
        1 => true,
        b => return Err(format!("invalid reject_exact byte {b}")),
    };
    let master = r.u64().map_err(err)?;
    let acc = r.u8().map_err(err)?;
    let nsets = r.usize_().map_err(err)?;
    let mut sets = Vec::with_capacity(nsets.min(1 << 20));
    for _ in 0..nsets {
        sets.push(r.vec_u32().map_err(err)?);
    }
    let nunits = r.usize_().map_err(err)?;
    let mut units = Vec::with_capacity(nunits.min(1 << 20));
    for _ in 0..nunits {
        let sub = r.usize_().map_err(err)?;
        let stream = r.u64().map_err(err)?;
        let first_chunk = r.u64().map_err(err)?;
        let count = r.usize_().map_err(err)?;
        let start = r.usize_().map_err(err)?;
        let end = r.usize_().map_err(err)?;
        units.push((
            sub,
            Demand {
                stream,
                first_chunk,
                count,
            },
            start..end,
        ));
    }
    if !r.is_empty() {
        return Err(format!("{} trailing bytes in request", r.remaining()));
    }
    Ok(ExecRequest {
        graph,
        nodes,
        edges,
        measure,
        khops,
        reject_exact,
        acc,
        master,
        sets,
        units,
    })
}

/// Serves one `POST /shard/exec` round against this shard's registry:
/// decode (400 on garbage), resolve the graph (404 unknown, 409 on a
/// `(nodes, edges)` fingerprint mismatch — epochs are process-local and
/// never compared across nodes), rebuild the subscriber sampling problems
/// exactly as the rankers build them, run each work unit through
/// [`exec_unit`], and return the binary partial accumulators.
pub fn handle_exec(registry: &Registry, body: &[u8]) -> Response {
    let req = match decode_request(body) {
        Ok(r) => r,
        Err(e) => return error_json(400, format!("bad /shard/exec request: {e}")),
    };
    let Some(entry) = registry.get(&req.graph) else {
        return error_json(
            404,
            format!(
                "unknown graph {:?} on this shard (load it first)",
                req.graph
            ),
        );
    };
    let (n, m) = (
        entry.graph.num_nodes() as u64,
        entry.graph.num_edges() as u64,
    );
    if (n, m) != (req.nodes, req.edges) {
        return error_json(
            409,
            format!(
                "graph {:?} fingerprint mismatch: shard has {n} nodes / {m} edges, \
                 router expects {} / {}",
                req.graph, req.nodes, req.edges
            ),
        );
    }
    // Reject anything the problem constructors would assert on: this
    // endpoint must never panic a worker thread on a bad payload.
    for set in &req.sets {
        if let Err(e) = params::check_targets(set, entry.graph.num_nodes()) {
            return error_json(400, format!("bad subscriber target set: {e}"));
        }
    }
    for &(sub, ref d, ref chunks) in &req.units {
        if sub >= req.sets.len() {
            return error_json(400, format!("unit subscriber {sub} out of range"));
        }
        if chunks.start > chunks.end || chunks.end > demand_chunks(d) {
            return error_json(
                400,
                format!(
                    "unit chunk range {}..{} exceeds the demand's {} chunks",
                    chunks.start,
                    chunks.end,
                    demand_chunks(d)
                ),
            );
        }
    }

    let mut out = Vec::new();
    wire::put_u8(&mut out, WIRE_VERSION);
    wire::put_u8(&mut out, req.acc);
    wire::put_usize(&mut out, req.units.len());
    match (req.measure, req.acc) {
        (MEASURE_BC, ACC_HITS) => {
            let g = &entry.graph;
            let dec = &entry.dec;
            let a_indexes: Vec<Vec<u32>> = req
                .sets
                .iter()
                .map(|t| build_a_index(g.num_nodes(), t))
                .collect();
            let mut probs: Vec<BcApproxProblem> = req
                .sets
                .iter()
                .zip(&a_indexes)
                .map(|(t, ai)| {
                    let vc = vc_bounds_from(&dec.vc_precomp, g, &dec.bic, t);
                    BcApproxProblem::new(g, &dec.bic, &dec.outreach, t, ai, vc.vc_subset)
                })
                .collect();
            if !req.reject_exact {
                for p in &mut probs {
                    p.reject_exact = false;
                }
            }
            for (sub, d, chunks) in &req.units {
                let counts = exec_unit(&probs[*sub], req.master, d, chunks.clone());
                put_hits(&mut out, &counts);
            }
        }
        (MEASURE_KPATH, ACC_HITS) => {
            if req.khops < 2 {
                return error_json(400, format!("khops must be >= 2, got {}", req.khops));
            }
            let probs: Vec<KPathApproxProblem> = req
                .sets
                .iter()
                .map(|t| KPathApproxProblem::new(&entry.graph, t, req.khops))
                .collect();
            for (sub, d, chunks) in &req.units {
                let counts = exec_unit(&probs[*sub], req.master, d, chunks.clone());
                put_hits(&mut out, &counts);
            }
        }
        (MEASURE_HARMONIC, ACC_LOSS) => {
            for set in &req.sets {
                if set.len() == entry.graph.num_nodes() {
                    return error_json(400, "A = V leaves no approximate subspace");
                }
            }
            let probs: Vec<HarmonicApproxProblem> = req
                .sets
                .iter()
                .map(|t| HarmonicApproxProblem::new(&entry.graph, t))
                .collect();
            for (sub, d, chunks) in &req.units {
                let accs = exec_unit(&probs[*sub], req.master, d, chunks.clone());
                wire::put_usize(&mut out, accs.len());
                for a in &accs {
                    wire::put_f64(&mut out, a.sum);
                    wire::put_f64(&mut out, a.sumsq);
                }
            }
        }
        (measure, acc) => {
            return error_json(
                400,
                format!("unsupported measure/accumulator pair ({measure}, {acc})"),
            )
        }
    }
    Response::binary(200, out)
}

fn put_hits(out: &mut Vec<u8>, counts: &[u64]) {
    wire::put_usize(out, counts.len());
    for &c in counts {
        wire::put_u64(out, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::GraphEntry;
    use saphyra_graph::fixtures;

    fn registry_with(name: &str, g: saphyra_graph::Graph) -> Registry {
        let reg = Registry::new();
        reg.insert(GraphEntry::build(name, g));
        reg
    }

    fn header(graph: &str, nodes: u64, edges: u64, measure: u8, acc: u8) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_u8(&mut out, WIRE_VERSION);
        wire::put_str(&mut out, graph);
        wire::put_u64(&mut out, nodes);
        wire::put_u64(&mut out, edges);
        wire::put_u8(&mut out, measure);
        wire::put_usize(&mut out, 5); // khops
        wire::put_u8(&mut out, 1); // reject_exact
        wire::put_u64(&mut out, 42); // master
        wire::put_u8(&mut out, acc);
        out
    }

    fn one_unit_tail(out: &mut Vec<u8>, targets: &[u32], d: &Demand, chunks: Range<usize>) {
        wire::put_usize(out, 1);
        wire::put_vec_u32(out, targets);
        wire::put_usize(out, 1);
        wire::put_usize(out, 0);
        wire::put_u64(out, d.stream);
        wire::put_u64(out, d.first_chunk);
        wire::put_usize(out, d.count);
        wire::put_usize(out, chunks.start);
        wire::put_usize(out, chunks.end);
    }

    #[test]
    fn split_chunks_covers_exactly() {
        for chunks in [0usize, 1, 2, 7, 16, 100] {
            for parts in [1usize, 2, 3, 5] {
                let ranges = split_chunks(chunks, parts);
                assert_eq!(ranges.len(), parts);
                let mut at = 0;
                for r in &ranges {
                    assert_eq!(r.start, at);
                    at = r.end;
                }
                assert_eq!(at, chunks, "chunks {chunks} parts {parts}");
            }
        }
    }

    #[test]
    fn exec_rejects_unknown_graph_and_fingerprint_mismatch() {
        let g = fixtures::grid_graph(4, 4);
        let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);
        let reg = registry_with("g", g);
        let d = Demand {
            stream: 1,
            first_chunk: 0,
            count: 64,
        };

        // Unknown graph → 404.
        let mut body = header("missing", n, m, MEASURE_BC, ACC_HITS);
        one_unit_tail(&mut body, &[0, 1], &d, 0..1);
        assert_eq!(handle_exec(&reg, &body).status, 404);

        // Same name, different graph shape → 409.
        let mut body = header("g", n + 1, m, MEASURE_BC, ACC_HITS);
        one_unit_tail(&mut body, &[0, 1], &d, 0..1);
        let resp = handle_exec(&reg, &body);
        assert_eq!(resp.status, 409, "{}", resp.body_str());
        assert!(resp.body_str().contains("fingerprint"));
    }

    #[test]
    fn exec_rejects_garbage_without_panicking() {
        let g = fixtures::grid_graph(4, 4);
        let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);
        let reg = registry_with("g", g);
        let d = Demand {
            stream: 1,
            first_chunk: 0,
            count: 64,
        };

        // Truncated frame.
        assert_eq!(handle_exec(&reg, &[1, 2, 3]).status, 400);
        // Bad version.
        let mut body = header("g", n, m, MEASURE_BC, ACC_HITS);
        body[0] = 99;
        one_unit_tail(&mut body, &[0], &d, 0..1);
        assert_eq!(handle_exec(&reg, &body).status, 400);
        // Out-of-range target (would panic the problem constructor).
        let mut body = header("g", n, m, MEASURE_BC, ACC_HITS);
        one_unit_tail(&mut body, &[n as u32 + 7], &d, 0..1);
        assert_eq!(handle_exec(&reg, &body).status, 400);
        // Duplicate targets.
        let mut body = header("g", n, m, MEASURE_BC, ACC_HITS);
        one_unit_tail(&mut body, &[3, 3], &d, 0..1);
        assert_eq!(handle_exec(&reg, &body).status, 400);
        // Chunk range past the demand.
        let mut body = header("g", n, m, MEASURE_BC, ACC_HITS);
        one_unit_tail(&mut body, &[0, 1], &d, 0..1000);
        assert_eq!(handle_exec(&reg, &body).status, 400);
        // Mismatched measure/accumulator pair.
        let mut body = header("g", n, m, MEASURE_HARMONIC, ACC_HITS);
        one_unit_tail(&mut body, &[0, 1], &d, 0..1);
        assert_eq!(handle_exec(&reg, &body).status, 400);
    }

    #[test]
    fn exec_unit_round_trips_bc_hits() {
        // A unit computed over the wire equals the same unit computed
        // in-process: handle_exec is exec_unit behind a codec.
        let g = fixtures::grid_graph(5, 5);
        let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);
        let targets: Vec<u32> = vec![0, 7, 12];
        let d = Demand {
            stream: 1,
            first_chunk: 3,
            count: 2048,
        };
        let chunks = 1..demand_chunks(&d);

        let reg = registry_with("g", g.clone());
        let mut body = header("g", n, m, MEASURE_BC, ACC_HITS);
        one_unit_tail(&mut body, &targets, &d, chunks.clone());
        let resp = handle_exec(&reg, &body);
        assert_eq!(resp.status, 200, "{}", resp.body_str());

        let mut r = Reader::new(&resp.body);
        assert_eq!(r.u8().unwrap(), WIRE_VERSION);
        assert_eq!(r.u8().unwrap(), ACC_HITS);
        assert_eq!(r.usize_().unwrap(), 1);
        let k = r.usize_().unwrap();
        assert_eq!(k, targets.len());
        let got: Vec<u64> = (0..k).map(|_| r.u64().unwrap()).collect();
        assert!(r.is_empty());

        let dec = saphyra::bc::BcDecomposition::compute(&g);
        let ai = build_a_index(g.num_nodes(), &targets);
        let vc = vc_bounds_from(&dec.vc_precomp, &g, &dec.bic, &targets);
        let prob = BcApproxProblem::new(&g, &dec.bic, &dec.outreach, &targets, &ai, vc.vc_subset);
        let want: Vec<u64> = exec_unit(&prob, 42, &d, chunks);
        assert_eq!(got, want);
    }

    #[test]
    fn sets_that_never_sample_are_never_shipped() {
        // A harmonic A = V set is covered by its exact part, so it never
        // demands a block and never reaches a shard (whose handle_exec
        // answers 400 for it); the batch still ranks bit-identically to
        // in-process execution.
        use crate::server::{serve_with, Role, Service, ServiceConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use saphyra::closeness::rank_harmonic;
        use saphyra_gen::datasets::{SimNetwork, SizeClass};

        let shard = serve_with(
            "127.0.0.1:0",
            std::sync::Arc::new(Service::new(ServiceConfig {
                workers: 1,
                role: Role::Shard,
                ..ServiceConfig::default()
            })),
        )
        .expect("bind ephemeral port");
        let pool = ShardPool::new(vec![shard.addr().to_string()]);
        let load = r#"{"name":"g","network":"flickr","size":"tiny","seed":7}"#;
        let loaded = pool.request(0, "POST", "/graphs", Some(load)).unwrap();
        assert_eq!(loaded.status, 200, "{}", loaded.body);

        let g = SimNetwork::Flickr.build(SizeClass::Tiny, 7);
        let sets = vec![vec![0, 3, 9, 17], g.nodes().collect::<Vec<NodeId>>()];
        let fingerprint = (g.num_nodes() as u64, g.num_edges() as u64);
        let mut exec = ShardedExec::new(&pool, "g", fingerprint, MEASURE_HARMONIC, 4, true, &sets);
        let rank = |remote: Option<&mut dyn BlockExec<LossAcc>>| {
            let mut rng = StdRng::seed_from_u64(3);
            rank_harmonic(&g, &sets, 0.2, 0.1, &mut rng, remote).unwrap()
        };
        let sharded = rank(Some(&mut exec));
        let local = rank(None);
        for (a, b) in sharded.iter().zip(&local) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&a.hc), bits(&b.hc));
        }
        assert!(sharded[0].inner.outcome.samples_used > 0);
        assert_eq!(sharded[1].inner.outcome.samples_used, 0);
        assert!(pool.stats().rounds.load(Ordering::Relaxed) > 0);
        shard.shutdown_and_join();
    }
}
