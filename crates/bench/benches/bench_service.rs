//! Ranking-service concurrency/throughput bench: requests/sec against an
//! in-process `saphyra_service` server on the Flickr-tiny analogue,
//! comparing the **cold** path (unique seeds — every request samples), the
//! **hot** path (repeated request — served from the LRU response cache),
//! and the **shared** path (identical concurrent cold requests collapsed
//! by single-flight).
//!
//! Each hot round runs twice: once with one-shot clients (a fresh TCP
//! connection per request — the PR 2 connection-per-request baseline) and
//! once with persistent keep-alive clients (one pooled connection per
//! client thread), so the keep-alive win on the cache-hit fast path is an
//! explicit number in the bench output, alongside the observed cache
//! hit/miss/shared and computation counts.
//!
//! Two reactor-era scenarios ride along: **pipelined** rounds (each
//! client writes its whole batch before reading any response — the
//! event-driven runtime's request-bounded worker pool must keep up) and a
//! **slow-loris** round (64 parked idle connections while the hot
//! keep-alive round runs — under the old thread-per-connection runtime
//! this collapsed throughput to the idle-timeout rate). The keep-alive vs
//! pipelined before/after table is also recorded in `BENCH_service.json`
//! at the workspace root.
//!
//! The **distinct_cold_targets** round measures cross-request batching: 8
//! clients fire barrier-synced waves of cold k-path requests with
//! pairwise-disjoint target sets. In the batched arm a wave shares one
//! seed, so group commit runs its first arrival alone and the other 7 in
//! one shared pass behind it; in the unbatched arm every client has its
//! own seed, and distinct classes never batch. The batched arm must be
//! ≥ 2x, since shared walk streams replace 8 independent ones.
//!
//! The **routed_rank** round prices the sharded topology: the same cold
//! round served through a router that forwards each request to the shard
//! its graph name hashes to (one of two standalone backends) vs the
//! standalone server. Recorded in `BENCH_service.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use saphyra_service::http::{request, Client};
use saphyra_service::persist;
use saphyra_service::server::{serve_with, Role, Service, ServiceConfig};
use saphyra_service::GraphEntry;

const CLIENT_THREADS: usize = 8;
const REQUESTS_PER_ROUND: usize = 64;

// Short measurement windows on purpose: every one-shot request parks a
// server-side socket in TIME-WAIT for 60 s, and tens of thousands of those
// exhaust the loopback ephemeral-port space — new connections then collide
// with TIME-WAIT tuples and stall in retransmission backoff for minutes.
// Sub-second windows keep the one-shot churn under ~10k sockets (each
// loopback connection can park BOTH endpoints in TIME-WAIT), safely inside
// the ~28k default port range. (Keep-alive traffic has no such limit — the
// whole point of the tentpole — so the keep-alive benches run first, on an
// unpoisoned port space.)
fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(100))
}

fn start_server(workers: usize) -> (saphyra_service::ServerHandle, String) {
    let cfg = ServiceConfig {
        workers,
        cache_capacity: 256,
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(cfg));
    let graph =
        saphyra_gen::datasets::SimNetwork::Flickr.build(saphyra_gen::datasets::SizeClass::Tiny, 1);
    service.registry().insert(GraphEntry::build("bench", graph));
    let handle = serve_with("127.0.0.1:0", service).expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn rank_body(seed: u64) -> String {
    format!(r#"{{"graph":"bench","targets":[1,5,9,13,21,34],"eps":0.2,"delta":0.1,"seed":{seed}}}"#)
}

/// A cold k-path request for the `distinct_cold_targets` round: sampling
/// (not routing) dominates at this ε, and k-path is the measure whose
/// batched estimator genuinely shares draws — one walk stream scores every
/// subscriber's target set.
fn kpath_body(targets: &str, seed: u64) -> String {
    format!(
        r#"{{"graph":"bench","targets":{targets},"measure":"kpath","khops":8,"eps":0.005,"delta":0.1,"seed":{seed}}}"#
    )
}

/// Barrier-synced waves: all `CLIENT_THREADS` keep-alive clients release
/// together, each posting a COLD k-path request with its own disjoint
/// target set and seed `seed_of(client, wave)` (fresh per wave, so nothing
/// is ever cached). Returns elapsed seconds for all waves.
fn fire_distinct_target_waves(
    addr: &str,
    sets: &[String],
    waves: usize,
    seed_of: impl Fn(usize, usize) -> u64 + Sync,
) -> f64 {
    let barrier = std::sync::Barrier::new(CLIENT_THREADS);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (c, set) in sets.iter().take(CLIENT_THREADS).enumerate() {
            let (barrier, seed_of) = (&barrier, &seed_of);
            scope.spawn(move || {
                let mut client = Client::new(addr);
                for w in 0..waves {
                    barrier.wait();
                    let body = kpath_body(set, seed_of(c, w));
                    let resp = client
                        .request("POST", "/rank", Some(&body))
                        .expect("request");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Fires `REQUESTS_PER_ROUND` requests from `CLIENT_THREADS` concurrent
/// clients; returns elapsed seconds. `keep_alive` selects persistent
/// pooled connections (one per client thread) vs a fresh connection per
/// request (the PR 2 baseline).
fn fire_round(addr: &str, keep_alive: bool, seed_of: impl Fn(usize) -> u64 + Sync) -> f64 {
    let done = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..CLIENT_THREADS {
            let done = &done;
            let seed_of = &seed_of;
            scope.spawn(move || {
                let mut client = keep_alive.then(|| Client::new(addr));
                let per = REQUESTS_PER_ROUND / CLIENT_THREADS;
                for i in 0..per {
                    let body = rank_body(seed_of(t * per + i));
                    let resp = match client.as_mut() {
                        Some(c) => c.request("POST", "/rank", Some(&body)).expect("request"),
                        None => request(addr, "POST", "/rank", Some(&body)).expect("request"),
                    };
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed) as usize, REQUESTS_PER_ROUND);
    t0.elapsed().as_secs_f64()
}

/// Fires `REQUESTS_PER_ROUND` identical hot requests, each client thread
/// pipelining its whole share over one connection (all requests written
/// before any response is read); returns elapsed seconds.
fn fire_round_pipelined(addr: &str, seed: u64) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENT_THREADS {
            scope.spawn(move || {
                let mut client = Client::new(addr);
                let body = rank_body(seed);
                let batch: Vec<(&str, &str, Option<&str>)> = (0..REQUESTS_PER_ROUND
                    / CLIENT_THREADS)
                    .map(|_| ("POST", "/rank", Some(body.as_str())))
                    .collect();
                let responses = client.pipeline(&batch).expect("pipeline");
                for r in &responses {
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

fn bench_service(c: &mut Criterion) {
    let (handle, addr) = start_server(0);

    // Criterion timings: one hot request (fixed seed, served from cache
    // after the first) over a pooled keep-alive connection vs a fresh
    // connection per request, plus the cold path (fresh seed per
    // iteration). Keep-alive first — see the note on config() above.
    let seed = AtomicU64::new(1_000);
    c.bench_function("service_rank/hot_keepalive", |b| {
        let mut client = Client::new(addr.as_str());
        b.iter(|| {
            client
                .request("POST", "/rank", Some(&rank_body(7)))
                .unwrap()
        })
    });
    c.bench_function("service_rank/cold", |b| {
        b.iter(|| {
            let body = rank_body(seed.fetch_add(1, Ordering::Relaxed));
            request(&addr, "POST", "/rank", Some(&body)).unwrap()
        })
    });
    c.bench_function("service_rank/hot_oneshot", |b| {
        b.iter(|| request(&addr, "POST", "/rank", Some(&rank_body(7))).unwrap())
    });

    // Explicit throughput table: 8 concurrent clients. "hot" rounds replay
    // one cached request; "shared" fires 64 identical COLD requests that
    // single-flight must collapse into one computation. The keep-alive
    // sweep (ka rounds vs oneshot) is the tentpole number.
    let service = Arc::clone(handle.service());
    eprintln!("\nservice throughput (flickr tiny, {CLIENT_THREADS} concurrent clients, {REQUESTS_PER_ROUND} requests/round):");
    eprintln!(
        "{:>16} {:>12} {:>8} {:>8} {:>8} {:>9}",
        "round", "req/s", "hits", "misses", "shared", "computed"
    );
    let round_seed = AtomicU64::new(100_000);
    let rounds: &[(&str, bool)] = &[
        ("cold-oneshot", false),
        ("cold-ka", true),
        ("hot-oneshot", false),
        ("hot-oneshot2", false),
        ("hot-ka", true),
        ("hot-ka2", true),
        ("shared-ka", true),
    ];
    for &(round, keep_alive) in rounds {
        let (h0, m0) = (service.cache_hits(), service.cache_misses());
        let (s0, c0) = (service.cache_shared(), service.computations());
        let dt = if round.starts_with("cold") {
            let base = round_seed.fetch_add(REQUESTS_PER_ROUND as u64, Ordering::Relaxed);
            fire_round(&addr, keep_alive, |i| base + i as u64)
        } else if round.starts_with("shared") {
            // One fresh seed for the whole round: all 64 requests are cold
            // and identical, so single-flight collapses them.
            let seed = round_seed.fetch_add(1, Ordering::Relaxed);
            fire_round(&addr, keep_alive, move |_| seed)
        } else {
            fire_round(&addr, keep_alive, |_| 31) // one fixed request — cache path
        };
        let rate = REQUESTS_PER_ROUND as f64 / dt;
        eprintln!(
            "{round:>16} {rate:>12.0} {:>8} {:>8} {:>8} {:>9}",
            service.cache_hits() - h0,
            service.cache_misses() - m0,
            service.cache_shared() - s0,
            service.computations() - c0
        );
    }
    eprintln!();

    // Before/after table: plain keep-alive (request-response round trips)
    // vs pipelined (batch written up front) on the same hot request, best
    // of 3 rounds each to shave scheduler noise. Recorded in
    // BENCH_service.json so the numbers live in the repo, not a scrollback.
    let best = |f: &dyn Fn() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let ka_dt = best(&|| fire_round(&addr, true, |_| 31));
    let pipe_dt = best(&|| fire_round_pipelined(&addr, 31));
    let (ka_rps, pipe_rps) = (
        REQUESTS_PER_ROUND as f64 / ka_dt,
        REQUESTS_PER_ROUND as f64 / pipe_dt,
    );

    // Slow-loris: 64 idle connections parked while the hot keep-alive
    // round runs. Under the reactor runtime they are invisible to the
    // worker pool; under the old one-worker-per-connection runtime this
    // round collapsed to the idle-timeout rate.
    let idles: Vec<_> = (0..64)
        .map(|_| std::net::TcpStream::connect(&addr).expect("idle connect"))
        .collect();
    while service.open_connections() < 64 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let loris_dt = best(&|| fire_round(&addr, true, |_| 31));
    let loris_rps = REQUESTS_PER_ROUND as f64 / loris_dt;
    drop(idles);

    eprintln!("keep-alive vs pipelined (hot cache path, best of 3 rounds):");
    eprintln!("{:>24} {:>12}", "scenario", "req/s");
    eprintln!("{:>24} {ka_rps:>12.0}", "keep-alive");
    eprintln!(
        "{:>24} {pipe_rps:>12.0}  ({:.2}x)",
        "pipelined",
        pipe_rps / ka_rps
    );
    eprintln!(
        "{:>24} {loris_rps:>12.0}  ({:.2}x of quiet)",
        "keep-alive+64 idle",
        loris_rps / ka_rps
    );
    eprintln!();

    // `distinct_cold_targets`: 8 clients, pairwise-disjoint target sets,
    // one cold k-path request each per barrier-synced wave. Batched arm:
    // one seed per wave, so group commit seals the wave into 2 passes
    // (its first arrival, then the 7 that queued behind it). Unbatched
    // arm: one seed per client, so no two requests share a class. Fresh
    // server per arm so caches and counters are clean. Batching must at
    // least double throughput: shared walk streams score all 8 target
    // sets instead of 8 independent streams drawing 8x the walks.
    let sets: Vec<String> = (0..CLIENT_THREADS)
        .map(|i| format!("[{},{},{}]", 3 * i, 3 * i + 1, 3 * i + 2))
        .collect();
    let waves = 6;
    let (b_handle, b_addr) = start_server(CLIENT_THREADS);
    let batched_dt = fire_distinct_target_waves(&b_addr, &sets, waves, |_, w| 7_000_000 + w as u64);
    let batch_passes = b_handle.service().sample_passes();
    let batch_members = b_handle.service().batched();
    b_handle.shutdown_and_join();
    let (u_handle, u_addr) = start_server(CLIENT_THREADS);
    let unbatched_dt = fire_distinct_target_waves(&u_addr, &sets, waves, |c, w| {
        7_000_000 + (w * CLIENT_THREADS + c) as u64
    });
    u_handle.shutdown_and_join();
    let total = (CLIENT_THREADS * waves) as f64;
    let (batched_rps, unbatched_rps) = (total / batched_dt, total / unbatched_dt);
    let batch_speedup = batched_rps / unbatched_rps;
    eprintln!(
        "distinct_cold_targets ({CLIENT_THREADS} disjoint target sets, kpath, {waves} cold waves):"
    );
    eprintln!("{:>24} {:>12}", "scenario", "req/s");
    eprintln!("{:>24} {unbatched_rps:>12.1}", "unbatched (seed/client)");
    eprintln!(
        "{:>24} {batched_rps:>12.1}  ({batch_speedup:.2}x, {batch_passes} passes / {} batched)",
        "batched (seed/wave)", batch_members
    );
    eprintln!();

    // `routed_rank`: router + 2 shards, the graph whole on the shard its
    // name hashes to, against the standalone server above. Cold seeds on
    // both sides so every request actually samples; the router's extra
    // cost is one proxied round trip per request.
    let shard_servers: Vec<_> = (0..2)
        .map(|_| {
            let cfg = ServiceConfig {
                workers: 2,
                cache_capacity: 64,
                ..ServiceConfig::default()
            };
            serve_with("127.0.0.1:0", Arc::new(Service::new(cfg))).expect("bind shard")
        })
        .collect();
    let router_cfg = ServiceConfig {
        workers: 2,
        cache_capacity: 64,
        role: Role::Router,
        shards: shard_servers.iter().map(|s| s.addr().to_string()).collect(),
        ..ServiceConfig::default()
    };
    let router =
        serve_with("127.0.0.1:0", Arc::new(Service::new(router_cfg))).expect("bind router");
    let r_addr = router.addr().to_string();
    let mut rc = Client::new(r_addr.as_str());
    // The generator rebuilds the exact graph the standalone server holds.
    let loaded = rc
        .request(
            "POST",
            "/graphs",
            Some(r#"{"name":"bench","network":"flickr","size":"tiny","seed":1}"#),
        )
        .expect("routed load");
    assert_eq!(loaded.status, 200, "{}", loaded.body);
    let base = round_seed.fetch_add(2 * REQUESTS_PER_ROUND as u64, Ordering::Relaxed);
    let routed_dt = fire_round(&r_addr, true, |i| base + i as u64);
    let solo_dt = fire_round(&addr, true, |i| base + REQUESTS_PER_ROUND as u64 + i as u64);
    let (routed_rps, solo_rps) = (
        REQUESTS_PER_ROUND as f64 / routed_dt,
        REQUESTS_PER_ROUND as f64 / solo_dt,
    );
    drop(rc);
    router.shutdown_and_join();
    for s in shard_servers {
        s.shutdown_and_join();
    }
    eprintln!("routed_rank (cold bc round, router + 2 shards vs standalone):");
    eprintln!("{:>24} {:>12}", "scenario", "req/s");
    eprintln!("{:>24} {solo_rps:>12.1}", "standalone");
    eprintln!(
        "{:>24} {routed_rps:>12.1}  ({:.2}x)",
        "router-proxied",
        routed_rps / solo_rps
    );
    eprintln!();

    let json = format!(
        "{{\"clients\":{CLIENT_THREADS},\"requests_per_round\":{REQUESTS_PER_ROUND},\
         \"keepalive_rps\":{ka_rps:.0},\"pipelined_rps\":{pipe_rps:.0},\
         \"pipelined_speedup\":{:.3},\"slowloris_idle_conns\":64,\
         \"slowloris_rps\":{loris_rps:.0},\"slowloris_ratio\":{:.3},\
         \"distinct_cold_targets\":{{\"waves\":{waves},\
         \"unbatched_rps\":{unbatched_rps:.1},\"batched_rps\":{batched_rps:.1},\
         \"batch_speedup\":{batch_speedup:.3},\"sample_passes\":{batch_passes},\
         \"batched_members\":{batch_members}}},\
         \"routed_rank\":{{\"shards\":2,\"standalone_rps\":{solo_rps:.1},\
         \"router_rps\":{routed_rps:.1},\"router_ratio\":{:.3}}}}}\n",
        pipe_rps / ka_rps,
        loris_rps / ka_rps,
        routed_rps / solo_rps
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("warning: cannot write {}: {e}", out.display());
    }

    // The acceptance bar: pipelining must not lose to plain keep-alive,
    // and parked idle connections must not collapse active throughput.
    assert!(
        pipe_rps >= ka_rps * 0.95,
        "pipelined hot throughput regressed: {pipe_rps:.0} vs keep-alive {ka_rps:.0} req/s"
    );
    assert!(
        loris_rps >= ka_rps * 0.5,
        "64 idle connections halved hot throughput: {loris_rps:.0} vs {ka_rps:.0} req/s"
    );
    assert!(
        batch_speedup >= 2.0,
        "cross-request batching under 2x on distinct cold targets: \
         batched {batched_rps:.1} vs unbatched {unbatched_rps:.1} req/s ({batch_speedup:.2}x)"
    );

    handle.shutdown_and_join();
}

/// Cold-start comparison: what a `serve` restart costs with and without a
/// registry snapshot. "decompose" is the pre-persistence boot path (parse
/// the edge list, run the full decomposition); "snapshot_load" is the
/// `--state-dir` path (read + checksum + validate + decode the snapshot).
/// Both end in a ready-to-rank `GraphEntry`. The two timings are spliced
/// into `BENCH_service.json` as the `cold_start` object.
fn bench_cold_start(c: &mut Criterion) {
    // Full size on purpose: at tiny sizes parsing/validation noise hides
    // the decomposition cost this snapshot exists to amortize (measured
    // here: ~4x at flickr full, ~5.5x at orkut full, and growing with
    // graph size — decomposition BFSes scale worse than a linear read).
    let graph =
        saphyra_gen::datasets::SimNetwork::Flickr.build(saphyra_gen::datasets::SizeClass::Full, 1);
    let dir = std::env::temp_dir().join(format!("saphyra_bench_cold_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let edge_path = dir.join("bench.txt");
    saphyra_graph::io::save_edge_list(&graph, &edge_path).expect("write edge list");
    let dec = saphyra::bc::BcDecomposition::compute(&graph);
    let snap_path = persist::snapshot_path(&dir, "bench");
    persist::save_snapshot(&snap_path, "bench", &graph, &dec, 0).expect("write snapshot");

    let decompose = || {
        let g = saphyra_graph::io::load_edge_list(&edge_path).expect("load");
        GraphEntry::build("bench", g)
    };
    let snapshot_load = || {
        let snap = persist::load_snapshot(&snap_path).expect("snapshot");
        GraphEntry::from_parts(snap.name, snap.graph, snap.dec.expect("intact"))
    };
    c.bench_function("cold_start/decompose_from_edge_list", |b| b.iter(decompose));
    c.bench_function("cold_start/snapshot_load", |b| b.iter(snapshot_load));

    // Explicit summary so the win is one number in the bench output.
    // Best-of-reps (min), not mean: a single page-cache or scheduler
    // hiccup would otherwise swamp a millisecond-scale load.
    let time = |f: &dyn Fn() -> GraphEntry| {
        (0..10)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (t_dec, t_snap) = (time(&decompose), time(&snapshot_load));
    eprintln!(
        "\ncold start ({} nodes, {} edges): decompose {:.2} ms vs snapshot load {:.2} ms ({:.1}x)",
        graph.num_nodes(),
        graph.num_edges(),
        t_dec * 1e3,
        t_snap * 1e3,
        t_dec / t_snap,
    );

    // Splice the cold_start object into BENCH_service.json. bench_service
    // rewrites the whole file without it (criterion runs that target
    // first), so append here — replacing any cold_start a previous
    // standalone run of this target left behind.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    match std::fs::read_to_string(&out) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let base = match trimmed.find(",\"cold_start\"") {
                Some(i) => &trimmed[..i],
                None => trimmed.strip_suffix('}').unwrap_or(trimmed),
            };
            let json = format!(
                "{base},\"cold_start\":{{\"nodes\":{},\"edges\":{},\
                 \"decompose_ms\":{:.2},\"decode_ms\":{:.2}}}}}\n",
                graph.num_nodes(),
                graph.num_edges(),
                t_dec * 1e3,
                t_snap * 1e3,
            );
            if let Err(e) = std::fs::write(&out, json) {
                eprintln!("warning: cannot write {}: {e}", out.display());
            }
        }
        Err(e) => eprintln!("warning: cannot read {}: {e}", out.display()),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_service, bench_cold_start
}
criterion_main!(benches);
