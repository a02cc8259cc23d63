//! Sharded serving e2e (in-process servers on real sockets): a router
//! forwarding whole graphs to shard `crc32(name) % shards` must serve
//! `/rank` bodies byte-identical to a standalone server, keep no per-graph
//! state (a second router over the same shards reaches every graph),
//! survive idle-timeout disconnects, and degrade to clean 503s — never
//! hangs — when a shard dies.

use std::sync::Arc;
use std::time::Duration;

use saphyra_graph::wire::crc32;
use saphyra_service::http::{Client, Request};
use saphyra_service::json::Json;
use saphyra_service::server::{serve_with, Role, ServerHandle, Service, ServiceConfig};

fn start(role: Role, shards: Vec<String>, idle: Duration) -> ServerHandle {
    let cfg = ServiceConfig {
        workers: 2,
        cache_capacity: 32,
        idle_timeout: idle,
        role,
        shards,
        ..ServiceConfig::default()
    };
    serve_with("127.0.0.1:0", Arc::new(Service::new(cfg))).expect("bind ephemeral port")
}

const IDLE: Duration = Duration::from_secs(10);

/// Router + `n` standalone shards, all on ephemeral ports.
fn start_cluster(n: usize, idle: Duration) -> (ServerHandle, Vec<ServerHandle>) {
    let shards: Vec<ServerHandle> = (0..n)
        .map(|_| start(Role::Standalone, Vec::new(), idle))
        .collect();
    let router = start(Role::Router, addrs(&shards), idle);
    (router, shards)
}

fn addrs(shards: &[ServerHandle]) -> Vec<String> {
    shards.iter().map(|s| s.addr().to_string()).collect()
}

fn stop(router: ServerHandle, shards: Vec<ServerHandle>) {
    router.shutdown_and_join();
    for s in shards {
        s.shutdown_and_join();
    }
}

const LOAD: &str = r#"{"name":"g","network":"flickr","size":"tiny","seed":7}"#;

fn rank_body(measure: &str, seed: u64) -> String {
    format!(
        r#"{{"graph":"g","measure":"{measure}","targets":[0,3,9,17,40],"eps":0.2,"delta":0.1,"seed":{seed},"khops":4}}"#
    )
}

/// The `"shard"` address a router's load reply names.
fn shard_of_reply(body: &str) -> String {
    let json = Json::parse(body).unwrap();
    json.get("shard")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

/// The same requests served by a socket-less standalone service, in
/// order; the last response's body is returned.
fn standalone_reply(requests: &[(&str, &str, &str)]) -> String {
    let svc = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut last = String::new();
    for &(method, path, body) in requests {
        let resp = svc
            .handle(&Request {
                method: method.to_string(),
                path: path.to_string(),
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            })
            .0;
        assert_eq!(resp.status, 200, "{method} {path}: {}", resp.body_str());
        last = resp.body_str().to_string();
    }
    last
}

fn standalone_bytes(rank: &str) -> String {
    standalone_reply(&[("POST", "/graphs", LOAD), ("POST", "/rank", rank)])
}

fn standalone_patched_bytes(delta: &str, rank: &str) -> String {
    standalone_reply(&[
        ("POST", "/graphs", LOAD),
        ("PATCH", "/graphs/g", delta),
        ("POST", "/rank", rank),
    ])
}

/// A load or rank body retargeted from graph `"g"` to `name`.
fn with_graph(body: &str, name: &str) -> String {
    body.replace("\"g\"", &format!("\"{name}\""))
}

/// Index of the shard, out of two, that owns graph `name`.
fn owner_of(name: &str) -> usize {
    crc32(name.as_bytes()) as usize % 2
}

#[test]
fn whole_graph_placement_proxies_rank_and_merges_listing() {
    let (router, shards) = start_cluster(2, IDLE);
    let mut client = Client::new(router.addr().to_string());

    // The router places the whole graph on shard crc32("g") % 2.
    let loaded = client.request("POST", "/graphs", Some(LOAD)).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.body);
    let owner = &addrs(&shards)[owner_of("g")];
    assert_eq!(&shard_of_reply(&loaded.body), owner);

    for measure in ["bc", "kpath", "harmonic"] {
        let body = rank_body(measure, 13);
        let via_router = client.request("POST", "/rank", Some(&body)).unwrap();
        assert_eq!(via_router.status, 200, "{measure}: {}", via_router.body);
        // The shard's cache header is relayed through the proxy.
        assert_eq!(via_router.header("X-Saphyra-Cache"), Some("miss"));
        assert_eq!(
            via_router.body,
            standalone_bytes(&body),
            "{measure}: routed bytes diverge from standalone"
        );
        let again = client.request("POST", "/rank", Some(&body)).unwrap();
        assert_eq!(again.header("X-Saphyra-Cache"), Some("hit"));
        assert_eq!(again.body, via_router.body);
    }

    let health = client.request("GET", "/healthz", None).unwrap();
    assert!(
        health.body.contains("\"role\":\"router\""),
        "{}",
        health.body
    );

    // The merged view reports the owning shard and the graph counters.
    let graphs = client.request("GET", "/graphs", None).unwrap();
    assert_eq!(graphs.status, 200);
    assert!(
        graphs.body.contains(&format!("\"shard\":\"{owner}\"")),
        "{}",
        graphs.body
    );
    assert!(graphs.body.contains("\"nodes\":"), "{}", graphs.body);
    assert!(graphs.body.contains("\"bicomps\":"), "{}", graphs.body);

    drop(client);
    stop(router, shards);
}

/// Graphs split across the shards by name hash: with one graph on each
/// shard, every measure ranked through the router is byte-identical to a
/// standalone server, and each shard holds only the graph it owns.
#[test]
fn split_rank_is_byte_identical_to_standalone_for_every_measure() {
    let (router, shards) = start_cluster(2, IDLE);
    let shard_addrs = addrs(&shards);
    // "g" and the first "h<i>" that hashes to the other shard.
    let other = (0..)
        .map(|i| format!("h{i}"))
        .find(|n| owner_of(n) != owner_of("g"))
        .unwrap();
    let names = ["g", other.as_str()];
    let mut client = Client::new(router.addr().to_string());

    for name in names {
        let loaded = client
            .request("POST", "/graphs", Some(&with_graph(LOAD, name)))
            .unwrap();
        assert_eq!(loaded.status, 200, "{}", loaded.body);
        assert_eq!(shard_of_reply(&loaded.body), shard_addrs[owner_of(name)]);
    }

    for name in names {
        for measure in ["bc", "kpath", "harmonic"] {
            let body = with_graph(&rank_body(measure, 11), name);
            let via_router = client.request("POST", "/rank", Some(&body)).unwrap();
            assert_eq!(
                via_router.status, 200,
                "{name} {measure}: {}",
                via_router.body
            );
            let standalone = standalone_reply(&[
                ("POST", "/graphs", &with_graph(LOAD, name)),
                ("POST", "/rank", &body),
            ]);
            assert_eq!(
                via_router.body, standalone,
                "{name} {measure}: routed bytes diverge from standalone"
            );
        }
    }

    // Each shard, asked directly, lists exactly the graph it owns.
    for (i, addr) in shard_addrs.iter().enumerate() {
        let mut direct = Client::new(addr.clone());
        let graphs = direct.request("GET", "/graphs", None).unwrap();
        assert_eq!(graphs.status, 200, "{}", graphs.body);
        let json = Json::parse(&graphs.body).unwrap();
        let listed: Vec<&str> = json
            .get("graphs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|g| g.get("name").and_then(Json::as_str))
            .collect();
        let owned: Vec<&str> = names.into_iter().filter(|n| owner_of(n) == i).collect();
        assert_eq!(listed, owned, "shard {addr}: {}", graphs.body);
    }

    drop(client);
    stop(router, shards);
}

#[test]
fn router_patch_proxies_whole_graph_placement() {
    const DELTA: &str = r#"{"insert":[[1,30]]}"#;
    let (router, shards) = start_cluster(2, IDLE);
    let mut client = Client::new(router.addr().to_string());

    // Not loaded yet: the owning shard's 404 is relayed.
    let resp = client.request("PATCH", "/graphs/g", Some(DELTA)).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);

    let loaded = client.request("POST", "/graphs", Some(LOAD)).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.body);
    let patched = client.request("PATCH", "/graphs/g", Some(DELTA)).unwrap();
    assert_eq!(patched.status, 200, "{}", patched.body);
    // The shard's response body is relayed verbatim — no "shards" field.
    assert!(patched.body.contains("\"delta_seq\":1"), "{}", patched.body);
    assert!(!patched.body.contains("\"shards\""), "{}", patched.body);

    let body = rank_body("bc", 43);
    let via_router = client.request("POST", "/rank", Some(&body)).unwrap();
    assert_eq!(via_router.status, 200, "{}", via_router.body);
    assert_eq!(via_router.body, standalone_patched_bytes(DELTA, &body));

    // A bad delta is rejected by the shard, and the 400 is relayed.
    let resp = client
        .request("PATCH", "/graphs/g", Some(r#"{"insert":[[5,5]]}"#))
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    drop(client);
    stop(router, shards);
}

/// A router keeps no per-graph state: a graph loaded through one router is
/// ranked, patched and listed through a second router over the same
/// shards, exactly as a restarted router would see it.
#[test]
fn second_router_reaches_graphs_loaded_through_the_first() {
    const DELTA: &str = r#"{"insert":[[0,9],[3,17]],"delete":[[0,3]]}"#;
    let (router_a, shards) = start_cluster(2, IDLE);
    let router_b = start(Role::Router, addrs(&shards), IDLE);
    let mut a = Client::new(router_a.addr().to_string());
    let mut b = Client::new(router_b.addr().to_string());

    let loaded = a.request("POST", "/graphs", Some(LOAD)).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.body);
    let owner = shard_of_reply(&loaded.body);

    let body = rank_body("harmonic", 17);
    let ranked = b.request("POST", "/rank", Some(&body)).unwrap();
    assert_eq!(ranked.status, 200, "{}", ranked.body);
    assert_eq!(ranked.body, standalone_bytes(&body));

    let patched = b.request("PATCH", "/graphs/g", Some(DELTA)).unwrap();
    assert_eq!(patched.status, 200, "{}", patched.body);
    for measure in ["bc", "kpath"] {
        let body = rank_body(measure, 19);
        let ranked = b.request("POST", "/rank", Some(&body)).unwrap();
        assert_eq!(ranked.status, 200, "{measure}: {}", ranked.body);
        assert_eq!(ranked.body, standalone_patched_bytes(DELTA, &body));
        // Router A reads the same patched graph.
        let via_a = a.request("POST", "/rank", Some(&body)).unwrap();
        assert_eq!(via_a.body, ranked.body, "{measure}");
    }

    let graphs = b.request("GET", "/graphs", None).unwrap();
    assert_eq!(graphs.status, 200, "{}", graphs.body);
    let json = Json::parse(&graphs.body).unwrap();
    let listed = json.get("graphs").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), 1, "{}", graphs.body);
    assert_eq!(listed[0].get("name").and_then(Json::as_str), Some("g"));
    assert_eq!(
        listed[0].get("shard").and_then(Json::as_str),
        Some(owner.as_str())
    );

    drop((a, b));
    router_b.shutdown_and_join();
    stop(router_a, shards);
}

#[test]
fn dead_shard_mid_stream_yields_clean_503_not_a_hang() {
    let (router, mut shards) = start_cluster(2, IDLE);
    let mut client = Client::new(router.addr().to_string()).with_timeout(Duration::from_secs(30));

    let loaded = client.request("POST", "/graphs", Some(LOAD)).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.body);
    let victim_addr = shard_of_reply(&loaded.body);
    assert_eq!(
        client
            .request("POST", "/rank", Some(&rank_body("bc", 21)))
            .unwrap()
            .status,
        200
    );

    // A second graph that hashes to the surviving shard.
    let other = (0..)
        .map(|i| format!("h{i}"))
        .find(|n| addrs(&shards)[owner_of(n)] != victim_addr)
        .unwrap();
    let load_other = with_graph(LOAD, &other);
    let resp = client
        .request("POST", "/graphs", Some(&load_other))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // Kill the shard the load reply named: /rank and PATCH for its graph
    // must fail fast with a JSON 503 naming it.
    let i = shards
        .iter()
        .position(|s| s.addr().to_string() == victim_addr);
    let victim = shards.remove(i.unwrap());
    victim.shutdown_and_join();
    let requests = [
        ("POST", "/rank".to_string(), rank_body("bc", 22)),
        (
            "PATCH",
            "/graphs/g".to_string(),
            r#"{"insert":[[1,30]]}"#.to_string(),
        ),
    ];
    for (method, path, body) in &requests {
        let resp = client.request(method, path, Some(body)).unwrap();
        assert_eq!(resp.status, 503, "{method} {path}: {}", resp.body);
        let json = Json::parse(&resp.body).unwrap();
        let msg = json.get("error").unwrap().as_str().unwrap().to_string();
        assert!(
            msg.contains(&victim_addr),
            "error does not name the shard: {msg}"
        );
    }

    // The surviving shard's graph still ranks; nothing was poisoned.
    let rank_other = with_graph(&rank_body("bc", 23), &other);
    let resp = client.request("POST", "/rank", Some(&rank_other)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    drop(client);
    stop(router, shards);
}

#[test]
fn router_redials_shards_after_idle_timeout() {
    // Shards that hang up idle connections between requests: the pooled
    // clients must transparently redial (stale-connection retry) so a
    // later proxied ranking still completes — and still matches
    // standalone bytes.
    let (router, shards) = start_cluster(2, Duration::from_millis(150));
    let mut client = Client::new(router.addr().to_string());

    let loaded = client.request("POST", "/graphs", Some(LOAD)).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.body);
    let first = rank_body("harmonic", 31);
    assert_eq!(
        client
            .request("POST", "/rank", Some(&first))
            .unwrap()
            .status,
        200
    );

    // Let every shard close the router's idle pooled connections.
    std::thread::sleep(Duration::from_millis(500));

    let second = rank_body("harmonic", 32);
    let resp = client.request("POST", "/rank", Some(&second)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, standalone_bytes(&second));

    drop(client);
    stop(router, shards);
}

#[test]
fn role_validation_without_sockets() {
    let send = |svc: &Service, method: &str, path: &str, body: &str| {
        svc.handle(&Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
        .0
    };

    let standalone = Service::new(ServiceConfig::default());
    // The route of the retired cross-shard sampling protocol.
    let retired = format!("/shard/{}", "exec");

    // Invalid shard pools (empty, duplicated) are a 400 on every routed
    // request — the same `saphyra::params::check_shard_addrs` the CLI
    // runs — and never reach the name hash.
    for shards in [Vec::new(), vec!["h:1".to_string(), "h:1".to_string()]] {
        let router = Service::new(ServiceConfig {
            role: Role::Router,
            shards,
            ..ServiceConfig::default()
        });
        let rank = rank_body("bc", 1);
        let routed = [
            ("POST", "/graphs", LOAD),
            ("POST", "/rank", rank.as_str()),
            ("PATCH", "/graphs/g", r#"{"insert":[[1,30]]}"#),
            ("GET", "/graphs", ""),
        ];
        for (method, path, body) in routed {
            let resp = send(&router, method, path, body);
            assert_eq!(resp.status, 400, "{method} {path}: {}", resp.body_str());
            assert!(
                resp.body_str().contains("shard configuration invalid"),
                "{method} {path}: {}",
                resp.body_str()
            );
        }
        // It is an unknown endpoint on every role.
        for svc in [&standalone, &router] {
            assert_eq!(send(svc, "POST", &retired, "junk").status, 404);
        }
    }
}
