//! End-to-end service tests over real TCP sockets: the wire-level
//! determinism contract, persistent-connection (keep-alive) semantics,
//! single-flight collapsing, cross-request batching (one shared sample
//! pass for concurrent distinct-target requests, byte-identical to quiet
//! runs), cache isolation between graphs under concurrency, and graceful
//! shutdown.

use std::sync::Arc;
use std::time::Duration;

use saphyra_service::http::{request, Client};
use saphyra_service::json::Json;
use saphyra_service::server::{serve, serve_with, Service, ServiceConfig};

fn start(workers: usize) -> (saphyra_service::ServerHandle, String) {
    let cfg = ServiceConfig {
        workers,
        cache_capacity: 64,
        ..ServiceConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn load_flickr(addr: &str, name: &str, seed: u64) {
    let body = format!(r#"{{"name":"{name}","network":"flickr","size":"tiny","seed":{seed}}}"#);
    let resp = request(addr, "POST", "/graphs", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
}

const RANK_BODY: &str =
    r#"{"graph":"g","targets":[1,5,9,13,40],"measure":"bc","eps":0.15,"delta":0.1,"seed":42}"#;

#[test]
fn rank_is_byte_identical_across_worker_counts() {
    let mut bodies = Vec::new();
    for workers in [1usize, 2, 4] {
        let (handle, addr) = start(workers);
        load_flickr(&addr, "g", 5);
        let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
        assert_eq!(resp.status, 200, "workers={workers}: {}", resp.body);
        assert_eq!(resp.header("x-saphyra-cache"), Some("miss"));
        bodies.push(resp.body);
        handle.shutdown_and_join();
    }
    assert_eq!(bodies[0], bodies[1], "1 vs 2 workers differ");
    assert_eq!(bodies[0], bodies[2], "1 vs 4 workers differ");
}

#[test]
fn concurrent_identical_requests_are_identical_and_hit_the_cache() {
    let (handle, addr) = start(4);
    load_flickr(&addr, "g", 5);

    // Warm the cache once so the concurrent wave can hit it.
    let warm = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);

    let mut threads = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap()
        }));
    }
    for t in threads {
        let resp = t.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, warm.body, "concurrent response diverged");
        assert_eq!(resp.header("x-saphyra-cache"), Some("hit"));
    }
    handle.shutdown_and_join();
}

#[test]
fn concurrent_mixed_graph_requests_do_not_cross_contaminate() {
    // Two different graphs under one server; 8 interleaved requests (2
    // graphs × 4 seeds) fired concurrently must each match the response
    // the same request gets on a quiet, freshly loaded server.
    let requests: Vec<(String, String)> = (0..8u64)
        .map(|i| {
            let graph = if i % 2 == 0 { "even" } else { "odd" };
            let body = format!(
                r#"{{"graph":"{graph}","targets":[2,3,5,8],"eps":0.15,"delta":0.1,"seed":{}}}"#,
                100 + i / 2
            );
            (graph.to_string(), body)
        })
        .collect();

    // Baselines: one server per request, zero concurrency.
    let mut baselines = Vec::new();
    {
        let (handle, addr) = start(1);
        load_flickr(&addr, "even", 5);
        load_flickr(&addr, "odd", 77);
        for (_, body) in &requests {
            let resp = request(&addr, "POST", "/rank", Some(body)).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            baselines.push(resp.body);
        }
        handle.shutdown_and_join();
    }
    // The two graphs genuinely differ, otherwise contamination is invisible.
    assert_ne!(baselines[0], baselines[1]);

    let (handle, addr) = start(4);
    load_flickr(&addr, "even", 5);
    load_flickr(&addr, "odd", 77);
    let mut threads = Vec::new();
    for (i, (_, body)) in requests.iter().enumerate() {
        let addr = addr.clone();
        let body = body.clone();
        threads.push(std::thread::spawn(move || {
            (i, request(&addr, "POST", "/rank", Some(&body)).unwrap())
        }));
    }
    for t in threads {
        let (i, resp) = t.join().unwrap();
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        assert_eq!(
            resp.body, baselines[i],
            "request {i} contaminated under concurrency"
        );
        let parsed = Json::parse(&resp.body).unwrap();
        assert_eq!(
            parsed.get("graph").unwrap().as_str(),
            Some(requests[i].0.as_str())
        );
    }
    handle.shutdown_and_join();
}

#[test]
fn keep_alive_replays_byte_identical_responses_over_one_connection() {
    let (handle, addr) = start(2);
    load_flickr(&addr, "g", 5);

    // One-shot baselines (fresh connection per request, the PR 2 model).
    let baseline_rank = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
    assert_eq!(baseline_rank.status, 200, "{}", baseline_rank.body);
    let baseline_graphs = request(&addr, "GET", "/graphs", None).unwrap();
    let before = handle.service().connections();

    // Many requests over ONE pooled persistent connection.
    let mut client = Client::new(addr.clone());
    for _ in 0..10 {
        let resp = client.request("POST", "/rank", Some(RANK_BODY)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body, baseline_rank.body,
            "keep-alive response diverged from one-shot bytes"
        );
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    // Mixed endpoints ride the same connection too.
    let resp = client.request("GET", "/graphs", None).unwrap();
    assert_eq!(resp.body, baseline_graphs.body);
    let resp = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);

    // All 12 requests used exactly one new TCP connection.
    assert_eq!(
        handle.service().connections() - before,
        1,
        "client failed to reuse its pooled connection"
    );
    drop(client);
    handle.shutdown_and_join();
}

#[test]
fn single_flight_collapses_identical_cold_requests_on_the_wire() {
    let (handle, addr) = start(8);
    load_flickr(&addr, "g", 5);

    // 8 identical COLD requests fired concurrently (no warm-up): exactly
    // one ranking computation may run; the rest replay its bytes.
    let mut threads = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap()
        }));
    }
    let responses: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(
        handle.service().computations(),
        1,
        "identical concurrent cold requests were not collapsed"
    );
    let misses = responses
        .iter()
        .filter(|r| r.header("x-saphyra-cache") == Some("miss"))
        .count();
    assert_eq!(misses, 1);
    for resp in &responses {
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.body, responses[0].body, "shared bytes diverged");
        assert!(matches!(
            resp.header("x-saphyra-cache"),
            Some("miss" | "shared" | "hit")
        ));
    }
    handle.shutdown_and_join();
}

/// The batching acceptance property on the wire: 8 cold requests with
/// pairwise-distinct target sets — same graph, measure, ε, δ, seed and k —
/// that arrive while a blocker request of their class is sampling queue
/// behind it and share ONE sample pass once it ends; every response is
/// marked `batched`, and every body (the blocker's too) is byte-identical
/// to what a quiet server returns for the same request alone.
#[test]
fn batched_distinct_targets_one_pass_and_quiet_server_bytes() {
    let n = 8usize;
    let rank = |targets: String| {
        format!(
            r#"{{"graph":"g","targets":{targets},"measure":"bc","eps":0.01,"delta":0.1,"seed":42}}"#
        )
    };
    // The blocker ranks the graph's five hubs, whose pass samples long
    // enough that the 8 requests below arrive while it runs; the members
    // rank pendant (degree-1) nodes, whose passes take a handful of
    // samples, so the test's own load stays light.
    let blocker = rank("[0,1,2,6,7]".to_string());
    let bodies: Vec<String> = (0..n)
        .map(|i| rank(format!("[{},{},{}]", 300 + 3 * i, 301 + 3 * i, 302 + 3 * i)))
        .collect();

    // Both servers and the 8 batching clients are set up before any
    // sampling, so the test's load does not stop and restart while
    // timing-sensitive tests run beside it. The batching server has one
    // worker per in-flight request, so every member can park while the
    // blocker samples; its clients connect first and wait at a barrier,
    // so releasing them costs no connect.
    let (quiet, quiet_addr) = start(1);
    load_flickr(&quiet_addr, "g", 5);
    let (handle, addr) = start(n + 1);
    load_flickr(&addr, "g", 5);
    let release = Arc::new(std::sync::Barrier::new(n + 1));
    let threads: Vec<_> = bodies
        .iter()
        .map(|body| {
            let mut client = Client::new(addr.clone());
            assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
            let (body, release) = (body.clone(), Arc::clone(&release));
            std::thread::spawn(move || {
                release.wait();
                client.request("POST", "/rank", Some(&body)).unwrap()
            })
        })
        .collect();

    // Quiet-server baselines: the same requests, zero concurrency.
    let mut baselines = Vec::new();
    for b in std::iter::once(&blocker).chain(&bodies) {
        let r = request(&quiet_addr, "POST", "/rank", Some(b)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.header("x-saphyra-cache"), Some("miss"));
        baselines.push(r.body);
    }

    let blocker_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || request(&addr, "POST", "/rank", Some(&blocker)).unwrap())
    };
    // The blocker's pass is sealed (and sampling) once the counter moves.
    while handle.service().sample_passes() == 0 {
        std::thread::yield_now();
    }
    release.wait();

    let resp = blocker_thread.join().unwrap();
    assert_eq!(resp.status, 200, "blocker: {}", resp.body);
    assert_eq!(resp.header("x-saphyra-cache"), Some("miss"));
    assert_eq!(resp.body, baselines[0], "blocker bytes diverged");
    for (i, t) in threads.into_iter().enumerate() {
        let resp = t.join().unwrap();
        assert_eq!(resp.status, 200, "request {i}: {}", resp.body);
        assert_eq!(
            resp.header("x-saphyra-cache"),
            Some("batched"),
            "request {i} missed the batch"
        );
        assert_eq!(
            resp.body,
            baselines[i + 1],
            "request {i}: batched bytes diverged from the quiet server"
        );
    }
    assert_eq!(
        handle.service().sample_passes(),
        2,
        "{n} distinct-target requests must share one pass behind the blocker"
    );
    assert_eq!(handle.service().computations(), n as u64 + 1);

    // /healthz reports the batching counters.
    let resp = request(&addr, "GET", "/healthz", None).unwrap();
    let v = Json::parse(&resp.body).unwrap();
    assert_eq!(v.get("batched").unwrap().as_u64(), Some(n as u64));
    assert_eq!(v.get("sample_passes").unwrap().as_u64(), Some(2));
    handle.shutdown_and_join();
    quiet.shutdown_and_join();
}

#[test]
fn idle_timeout_closes_the_connection_and_client_redials() {
    let cfg = ServiceConfig {
        workers: 2,
        cache_capacity: 8,
        idle_timeout: Duration::from_millis(150),
        ..ServiceConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr().to_string();

    let mut client = Client::new(addr.clone());
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    assert_eq!(handle.service().connections(), 1);

    // Sit idle past the timeout: the server closes the pooled connection.
    std::thread::sleep(Duration::from_millis(500));

    // The client transparently redials and the request still succeeds.
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    assert_eq!(
        handle.service().connections(),
        2,
        "expected a redial after the server's idle timeout"
    );
    drop(client);
    handle.shutdown_and_join();
}

#[test]
fn max_requests_per_connection_recycles_the_connection() {
    let cfg = ServiceConfig {
        workers: 1,
        cache_capacity: 8,
        max_requests_per_conn: 3,
        ..ServiceConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr().to_string();

    let mut client = Client::new(addr.clone());
    for i in 0..7 {
        let resp = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(resp.status, 200, "request {i}");
        // Every 3rd response on a connection announces the close.
        let expect_close = i % 3 == 2;
        assert_eq!(
            resp.header("connection"),
            Some(if expect_close { "close" } else { "keep-alive" }),
            "request {i}"
        );
    }
    // ceil(7 / 3) = 3 connections served the 7 requests.
    assert_eq!(handle.service().connections(), 3);
    drop(client);
    handle.shutdown_and_join();
}

#[test]
fn shutdown_is_prompt_even_with_idle_keep_alive_connections() {
    let (handle, addr) = start(2);
    let mut client = Client::new(addr.clone());
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    // The client parks its pooled connection idle (default idle timeout
    // 10 s). Workers poll the shutdown flag while idle, so join must
    // return promptly instead of waiting out the idle timeout.
    let t0 = std::time::Instant::now();
    handle.shutdown_and_join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown waited on an idle connection: {:?}",
        t0.elapsed()
    );
    drop(client);
}

#[test]
fn preloaded_registry_and_health_counters() {
    let cfg = ServiceConfig {
        workers: 2,
        cache_capacity: 8,
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(cfg));
    service
        .registry()
        .insert(saphyra_service::GraphEntry::build(
            "grid",
            saphyra_graph::fixtures::grid_graph(5, 5),
        ));
    let handle = serve_with("127.0.0.1:0", service).unwrap();
    let addr = handle.addr().to_string();

    let resp = request(&addr, "GET", "/graphs", None).unwrap();
    let v = Json::parse(&resp.body).unwrap();
    let graphs = v.get("graphs").unwrap().as_arr().unwrap();
    assert_eq!(graphs.len(), 1);
    assert_eq!(graphs[0].get("name").unwrap().as_str(), Some("grid"));

    let body = r#"{"graph":"grid","targets":[6,12],"eps":0.2,"delta":0.1,"seed":1}"#;
    request(&addr, "POST", "/rank", Some(body)).unwrap();
    request(&addr, "POST", "/rank", Some(body)).unwrap();
    let resp = request(&addr, "GET", "/healthz", None).unwrap();
    let v = Json::parse(&resp.body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("cache_hits").unwrap().as_u64(), Some(1));
    assert_eq!(v.get("cache_misses").unwrap().as_u64(), Some(1));
    handle.shutdown_and_join();
}

#[test]
fn wire_level_validation_errors() {
    let (handle, addr) = start(1);
    let resp = request(&addr, "POST", "/rank", Some("{not json")).unwrap();
    assert_eq!(resp.status, 400);
    assert!(Json::parse(&resp.body).unwrap().get("error").is_some());
    let resp = request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(resp.status, 404);
    handle.shutdown_and_join();
}

#[test]
fn pipelined_requests_return_in_order_with_identical_bytes() {
    let (handle, addr) = start(2);
    load_flickr(&addr, "g", 5);

    // One-shot baselines for four distinct requests.
    let bodies: Vec<String> = (0..4)
        .map(|s| format!(r#"{{"graph":"g","targets":[2,7,11],"eps":0.2,"delta":0.1,"seed":{s}}}"#))
        .collect();
    let baselines: Vec<String> = bodies
        .iter()
        .map(|b| {
            let r = request(&addr, "POST", "/rank", Some(b)).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            r.body
        })
        .collect();

    // The same four requests, plus repeats, pipelined over ONE connection:
    // all written before any response is read. Responses must come back in
    // request order with byte-identical bodies.
    let before = handle.service().connections();
    let mut client = Client::new(addr.clone());
    let batch: Vec<(&str, &str, Option<&str>)> = (0..12)
        .map(|i| ("POST", "/rank", Some(bodies[i % 4].as_str())))
        .collect();
    let responses = client.pipeline(&batch).unwrap();
    assert_eq!(responses.len(), 12);
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.status, 200, "pipelined {i}: {}", resp.body);
        assert_eq!(
            resp.body,
            baselines[i % 4],
            "pipelined response {i} diverged or came back out of order"
        );
    }
    assert_eq!(
        handle.service().connections() - before,
        1,
        "the whole batch must ride one connection"
    );
    // The server observed real pipelining: requests parsed while earlier
    // responses were still in flight.
    assert!(
        handle.service().pipelined() > 0,
        "no request was parsed while a prior response was in flight"
    );

    // /healthz reports both new fields (the gauge counts at least this
    // client's own live connection).
    let resp = client.request("GET", "/healthz", None).unwrap();
    let v = Json::parse(&resp.body).unwrap();
    assert!(v.get("open_connections").unwrap().as_u64().unwrap() >= 1);
    assert!(v.get("pipelined").unwrap().as_u64().unwrap() > 0);
    drop(client);
    handle.shutdown_and_join();
}

#[test]
fn pipelining_respects_connection_close_mid_batch() {
    let (handle, addr) = start(2);
    // A pipelined batch whose first request asks to close: the server
    // answers it with `Connection: close` and drops the rest.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    use std::io::{Read, Write};
    let two = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
    stream.write_all(two).unwrap();
    let mut all = Vec::new();
    stream.read_to_end(&mut all).unwrap(); // server closes after one response
    let text = String::from_utf8(all).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    assert_eq!(
        text.matches("HTTP/1.1").count(),
        1,
        "second request must be dropped after Connection: close: {text}"
    );
    handle.shutdown_and_join();
}

/// The tentpole acceptance number: with 2 workers, 64 parked idle
/// keep-alive connections must not starve active clients — their
/// cache-hit throughput stays within 2x of a quiet-server baseline
/// (under the old runtime the idle connections held every worker and the
/// active clients stalled until idle timeouts fired).
#[test]
fn idle_connections_do_not_starve_active_clients() {
    let cfg = ServiceConfig {
        workers: 2,
        cache_capacity: 64,
        ..ServiceConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr().to_string();
    load_flickr(&addr, "g", 5);

    // Warm the cache so the measured path is pure cache-hit traffic.
    let warm = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);

    let active_round = |addr: &str| {
        let t0 = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    for _ in 0..25 {
                        let r = client.request("POST", "/rank", Some(RANK_BODY)).unwrap();
                        assert_eq!(r.status, 200);
                    }
                });
            }
        });
        t0.elapsed()
    };

    // Baseline: no idle connections. One throwaway round first so thread
    // spin-up and allocator warm-up hit both measurements equally.
    active_round(&addr);
    let quiet = active_round(&addr);

    // Park 64 idle keep-alive connections (they never send a byte).
    let idles: Vec<_> = (0..64)
        .map(|_| std::net::TcpStream::connect(&addr).unwrap())
        .collect();
    // Let the reactor accept them all before measuring.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.service().open_connections() < 64 {
        assert!(
            std::time::Instant::now() < deadline,
            "reactor failed to accept parked connections: {}",
            handle.service().open_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let loris = active_round(&addr);
    drop(idles);

    assert!(
        loris < quiet * 2,
        "64 idle connections starved 8 active clients: quiet {quiet:?} vs slow-loris {loris:?}"
    );
    handle.shutdown_and_join();
}

/// Pipelined cache-hit throughput must not fall below plain keep-alive
/// request-response throughput: batching removes a full client-server
/// round trip per request, it can only help.
#[test]
fn pipelined_throughput_not_worse_than_keep_alive() {
    let (handle, addr) = start(2);
    let n = 384;
    let mut client = Client::new(addr.clone());
    // Warm up the connection and the cache path.
    client.request("GET", "/healthz", None).unwrap();

    let t0 = std::time::Instant::now();
    for _ in 0..n {
        let r = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(r.status, 200);
    }
    let keep_alive = t0.elapsed();

    let batch: Vec<(&str, &str, Option<&str>)> =
        (0..n).map(|_| ("GET", "/healthz", None)).collect();
    let t0 = std::time::Instant::now();
    let responses = client.pipeline(&batch).unwrap();
    let pipelined = t0.elapsed();
    assert_eq!(responses.len(), n);

    // Generous slack: the assertion is "pipelining is not a regression",
    // the bench reports the actual multiple (typically several x).
    assert!(
        pipelined <= keep_alive * 3 / 2,
        "pipelined {n} requests slower than request-response keep-alive: \
         {pipelined:?} vs {keep_alive:?}"
    );
    drop(client);
    handle.shutdown_and_join();
}

#[test]
fn write_then_half_close_client_still_gets_its_responses() {
    // Regression: a client that writes its request(s) and then shuts down
    // its write side before reading (`printf ... | nc`-style one-shots)
    // must still be answered — the blocking runtime served this, and an
    // early reactor draft closed on EOF with requests still buffered or
    // in flight.
    use std::io::{Read, Write};
    let (handle, addr) = start(2);

    // Single request, FIN racing right behind it.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("\"status\":\"ok\""), "{text}");

    // A pipelined burst then FIN: every request gets its response, in
    // order, and the connection closes afterwards without waiting out
    // the idle timeout.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        b"GET /healthz HTTP/1.1\r\n\r\nGET /graphs HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let t0 = std::time::Instant::now();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 3, "{text}");
    assert!(text.contains("\"graphs\""), "{text}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "half-closed connection waited out the idle timeout: {:?}",
        t0.elapsed()
    );

    // A torn trailing request after a served one is discarded quietly.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /torn HTT")
        .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert_eq!(text.matches("HTTP/1.1").count(), 1, "{text}");
    handle.shutdown_and_join();
}

#[test]
fn depth_limited_followup_parsed_on_completion_is_still_answered() {
    // Regression: with pipeline_depth=1, a follow-up request (or a
    // malformed one needing a 400) only gets parsed when the first
    // request's completion frees the depth slot — the response staged by
    // that parse must still be flushed, not stranded until the idle
    // timeout closes the socket under it.
    use std::io::{Read, Write};
    let cfg = ServiceConfig {
        workers: 1,
        pipeline_depth: 1,
        ..ServiceConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr().to_string();

    // Valid + valid burst.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let t0 = std::time::Instant::now();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());

    // Valid + malformed burst: the 400 must arrive after the 200.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\nGARBAGE\r\n\r\n")
        .unwrap();
    let t0 = std::time::Instant::now();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("HTTP/1.1 400 Bad Request"), "{text}");
    assert!(text.contains("malformed request"), "{text}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "400 stranded until idle timeout: {:?}",
        t0.elapsed()
    );
    handle.shutdown_and_join();
}

#[test]
fn max_connections_cap_sheds_excess_connections() {
    let cfg = ServiceConfig {
        workers: 1,
        max_connections: 2,
        ..ServiceConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr().to_string();

    let mut c1 = Client::new(addr.clone());
    let mut c2 = Client::new(addr.clone());
    assert_eq!(c1.request("GET", "/healthz", None).unwrap().status, 200);
    assert_eq!(c2.request("GET", "/healthz", None).unwrap().status, 200);

    // A third connection is accepted and immediately closed: the client
    // sees EOF before any response.
    let mut c3 = Client::new(addr.clone()).with_timeout(Duration::from_secs(5));
    let err = c3.request("GET", "/healthz", None);
    assert!(err.is_err(), "third connection must be shed at the cap");

    // Capped shedding is not counted as a served connection, and the
    // gauge stays at the cap.
    assert_eq!(handle.service().connections(), 2);
    assert_eq!(handle.service().open_connections(), 2);

    // Dropping one frees capacity for a newcomer.
    drop(c1);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.service().open_connections() >= 2 {
        assert!(std::time::Instant::now() < deadline, "close not observed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut c4 = Client::new(addr.clone());
    assert_eq!(c4.request("GET", "/healthz", None).unwrap().status, 200);
    drop((c2, c4));
    handle.shutdown_and_join();
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let (handle, addr) = start(2);
    let resp = request(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    // join() returns only once the acceptor and all workers exited.
    handle.join();
    // The port no longer accepts requests.
    assert!(request(&addr, "GET", "/healthz", None).is_err());
}
