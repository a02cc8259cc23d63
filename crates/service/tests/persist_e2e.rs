//! End-to-end registry-persistence tests: restart from snapshots with
//! *zero* recomputation, graceful degradation on damaged snapshot
//! sections, journal appending and replay — all over real TCP sockets.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use saphyra_service::http::request;
use saphyra_service::json::Json;
use saphyra_service::persist;
use saphyra_service::server::{serve, Service, ServiceConfig};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh per-test state directory.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "saphyra_persist_e2e_{tag}_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg_with(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        cache_capacity: 16,
        state_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

const RANK_BODY: &str =
    r#"{"graph":"g","targets":[1,5,9,13],"measure":"bc","eps":0.15,"delta":0.1,"seed":42}"#;

fn health(addr: &str) -> Json {
    let resp = request(addr, "GET", "/healthz", None).unwrap();
    Json::parse(&resp.body).unwrap()
}

fn counter(h: &Json, key: &str) -> u64 {
    h.get(key).and_then(Json::as_u64).unwrap()
}

#[test]
fn restart_from_snapshot_is_byte_identical_with_zero_decompositions() {
    let dir = state_dir("restart");

    // First life: load a graph (decomposing it once), rank, shut down.
    let first_body;
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        let resp = request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("persisted").unwrap().as_bool(), Some(true));

        let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        first_body = resp.body;

        let h = health(&addr);
        assert_eq!(counter(&h, "decompositions"), 1);
        assert_eq!(counter(&h, "snapshots_loaded"), 0);
        handle.shutdown_and_join();
    }
    assert!(persist::snapshot_path(&dir, "g").exists());

    // Second life: the registry must come back from the snapshot alone —
    // zero decompositions — and serve byte-identical rank responses.
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        let h = health(&addr);
        assert_eq!(counter(&h, "graphs"), 1, "snapshot not restored");
        assert_eq!(
            counter(&h, "decompositions"),
            0,
            "restart recomputed a decomposition"
        );
        assert_eq!(counter(&h, "snapshots_loaded"), 1);

        let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        // Fresh process, fresh cache: this is a cold computation from the
        // restored decomposition, not a replayed cache entry.
        assert_eq!(resp.header("x-saphyra-cache"), Some("miss"));
        assert_eq!(
            resp.body, first_body,
            "restored decomposition ranked differently"
        );
        // Ranking used the restored entry; still no decomposition ran.
        assert_eq!(counter(&health(&addr), "decompositions"), 0);
        handle.shutdown_and_join();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damaged_dec_section_recomputes_and_still_serves() {
    let dir = state_dir("dec_corrupt");
    let baseline;
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        baseline = request(&addr, "POST", "/rank", Some(RANK_BODY))
            .unwrap()
            .body;
        handle.shutdown_and_join();
    }

    // Flip a byte inside the decomposition payload (5 bytes from the end:
    // past the payload start, before the trailing 4-byte CRC).
    let path = persist::snapshot_path(&dir, "g");
    let mut bytes = fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 5] ^= 0x01;
    fs::write(&path, bytes).unwrap();

    let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
    let addr = handle.addr().to_string();
    let h = health(&addr);
    assert_eq!(counter(&h, "graphs"), 1, "graph must survive dec damage");
    assert_eq!(counter(&h, "decompositions"), 1, "fallback must recompute");
    assert_eq!(counter(&h, "snapshots_loaded"), 0);
    // The recomputed decomposition is identical math: same bytes out.
    let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, baseline);
    handle.shutdown_and_join();

    // Self-healing: the fallback rewrote the repaired snapshot, so the
    // NEXT boot restores with zero recomputation again.
    assert!(persist::load_snapshot(&path).unwrap().dec.is_ok());
    let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
    let addr = handle.addr().to_string();
    let h = health(&addr);
    assert_eq!(counter(&h, "decompositions"), 0, "repair did not stick");
    assert_eq!(counter(&h, "snapshots_loaded"), 1);
    handle.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_with_mismatched_embedded_name_cannot_shadow_the_real_one() {
    let dir = state_dir("shadow");
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        handle.shutdown_and_join();
    }
    // Forge a later-sorting snapshot whose EMBEDDED name is also "g" but
    // holds a different graph: by scan order it would replace the genuine
    // g.snap in the registry if embedded names were trusted.
    let decoy_graph = saphyra_graph::fixtures::grid_graph(3, 3);
    let decoy_dec = saphyra::bc::BcDecomposition::compute(&decoy_graph);
    persist::save_snapshot(
        &persist::snapshot_path(&dir, "zz"),
        "g",
        &decoy_graph,
        &decoy_dec,
        0,
    )
    .unwrap();

    let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
    let addr = handle.addr().to_string();
    let h = health(&addr);
    assert_eq!(counter(&h, "graphs"), 1, "decoy must be skipped, g kept");
    let resp = request(&addr, "GET", "/graphs", None).unwrap();
    let v = Json::parse(&resp.body).unwrap();
    let graphs = v.get("graphs").unwrap().as_arr().unwrap();
    assert_eq!(graphs[0].get("name").unwrap().as_str(), Some("g"));
    // The real flickr-tiny graph (600 nodes), not the 9-node decoy.
    assert_eq!(graphs[0].get("nodes").unwrap().as_u64(), Some(600));
    handle.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn read_only_state_dir_still_restores_snapshots() {
    let dir = state_dir("readonly");
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        handle.shutdown_and_join();
    }
    // Strip the write bit: the journal cannot open, but the snapshots are
    // still readable — a boot must restore them, not start empty.
    let mut perms = fs::metadata(&dir).unwrap().permissions();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        perms.set_mode(0o555);
        fs::set_permissions(&dir, perms.clone()).unwrap();
    }
    let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
    let addr = handle.addr().to_string();
    let h = health(&addr);
    assert_eq!(counter(&h, "graphs"), 1, "read-only dir lost the registry");
    assert_eq!(counter(&h, "snapshots_loaded"), 1);
    assert_eq!(counter(&h, "decompositions"), 0);
    let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.shutdown_and_join();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        perms.set_mode(0o755);
        fs::set_permissions(&dir, perms).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Reads the little-endian `u64` at byte `at` of a snapshot.
fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// `pristine` with one node's first two neighbor slots (and their edge
/// ids) swapped and the graph CRC re-stamped: every checksum holds, and
/// only CSR validation can tell the adjacency list is no longer sorted.
/// Layout per the container docs: the header's graph extent is
/// `offset | length | CRC` at bytes 24/32/40, and the graph section is
/// `u64 n | u64 m | (n + 1) u64 offsets | 2m u32 neighbors | 2m u32 ids`.
fn swapped_slots(pristine: &[u8]) -> Vec<u8> {
    let mut bytes = pristine.to_vec();
    let sec = persist::GRAPH_SECTION_OFFSET;
    let (n, m, offsets) = (u64_at(&bytes, sec), u64_at(&bytes, sec + 8), sec + 16);
    let offset = |v: usize| u64_at(pristine, offsets + 8 * v);
    let v = (0..n).find(|&v| offset(v + 1) - offset(v) >= 2).unwrap();
    let slot = offsets + 8 * (n + 1) + 4 * offset(v);
    for at in [slot, slot + 8 * m] {
        let (a, b) = bytes[at..at + 8].split_at_mut(4);
        a.swap_with_slice(b);
    }
    let len = u64_at(&bytes, 32);
    let crc = saphyra_graph::wire::crc32(&bytes[sec..sec + len]);
    bytes[40..44].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Every unloadable `g.snap` — damaged header, damaged graph section, an
/// old container version, or a well-checksummed but invalid CSR — must
/// boot, skip that one file with a warning, keep serving the other
/// snapshot, and accept a re-`POST` of `g` that writes a good file.
#[test]
fn damaged_graph_section_is_skipped_not_fatal() {
    let dir = state_dir("graph_corrupt");
    const G: &str = r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#;
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        for body in [
            G,
            r#"{"name":"other","network":"usa-road","size":"tiny","seed":1}"#,
        ] {
            assert_eq!(
                request(&addr, "POST", "/graphs", Some(body))
                    .unwrap()
                    .status,
                200
            );
        }
        handle.shutdown_and_join();
    }
    let path = persist::snapshot_path(&dir, "g");
    let pristine = fs::read(&path).unwrap();
    let flipped = |at: usize| {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0xFF;
        bytes
    };
    let mut version_3 = pristine.clone();
    version_3[8..12].copy_from_slice(&3u32.to_le_bytes());
    let cases = [
        // Byte 25 is inside the header's graph-extent offset field.
        ("header byte", flipped(25), "graph section at offset"),
        (
            "graph section byte",
            flipped(persist::GRAPH_SECTION_OFFSET + 100),
            "graph section checksum mismatch",
        ),
        ("version word of 3", version_3, "container version 3 "),
        (
            "swapped slots",
            swapped_slots(&pristine),
            "not strictly sorted",
        ),
    ];
    for (what, bytes, reason) in cases {
        fs::write(&path, &bytes).unwrap();
        // The boot's warning prints this error.
        let err = persist::load_snapshot(&path).unwrap_err().to_string();
        assert!(err.contains(reason), "{what}: {err}");

        // The boot survives; only g.snap is skipped.
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        let h = health(&addr);
        assert_eq!(counter(&h, "graphs"), 1, "{what}: other snapshot lost");
        assert_eq!(counter(&h, "snapshots_loaded"), 1, "{what}");
        let resp = request(&addr, "GET", "/graphs", None).unwrap();
        let v = Json::parse(&resp.body).unwrap();
        let graphs = v.get("graphs").unwrap().as_arr().unwrap();
        assert_eq!(graphs[0].get("name").unwrap().as_str(), Some("other"));
        // Loading the graph again overwrites the damaged snapshot.
        let resp = request(&addr, "POST", "/graphs", Some(G)).unwrap();
        assert_eq!(resp.status, 200, "{what}: {}", resp.body);
        handle.shutdown_and_join();
        assert!(persist::load_snapshot(&path).unwrap().dec.is_ok(), "{what}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journal_records_requests_and_replays_cleanly() {
    let dir = state_dir("journal");
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        // Two distinct rankings, one repeat (cache hit), one rejected.
        for body in [
            RANK_BODY,
            r#"{"graph":"g","targets":[2,3],"eps":0.2,"delta":0.1,"seed":7}"#,
            RANK_BODY,
        ] {
            assert_eq!(
                request(&addr, "POST", "/rank", Some(body)).unwrap().status,
                200
            );
        }
        let resp = request(
            &addr,
            "POST",
            "/rank",
            Some(r#"{"graph":"nope","targets":[1]}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 404);
        handle.shutdown_and_join();
    }

    // Journal shape: one line per /rank request, cache disposition kept.
    let journal = dir.join(persist::JOURNAL_FILE);
    let text = fs::read_to_string(&journal).unwrap();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(lines.len(), 4, "{text}");
    let cache_of = |i: usize| lines[i].get("cache").unwrap().as_str().map(String::from);
    assert_eq!(cache_of(0).as_deref(), Some("miss"));
    assert_eq!(cache_of(1).as_deref(), Some("miss"));
    assert_eq!(cache_of(2).as_deref(), Some("hit"));
    assert_eq!(lines[3].get("cache"), Some(&Json::Null));
    assert_eq!(lines[3].get("status").unwrap().as_u64(), Some(404));
    assert_eq!(
        lines[0]
            .get("request")
            .unwrap()
            .get("graph")
            .unwrap()
            .as_str(),
        Some("g")
    );

    // Replay against a journal-less service restored from the snapshots:
    // every recorded request (including the 404) reproduces its status.
    let service = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (restored, recomputed) = service.restore_from_dir(&dir);
    assert_eq!((restored, recomputed), (1, 0));
    let stats = persist::replay_journal(&journal, &service).unwrap();
    assert_eq!(stats.lines, 4);
    assert_eq!(stats.replayed, 4);
    assert_eq!(stats.skipped, 0);
    assert_eq!(stats.status_mismatches, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journal_rotates_mid_stream_and_replay_covers_both_generations() {
    let dir = state_dir("rotation");
    // A bound of ~3 journal lines (each /rank line here is ~150 bytes):
    // the request stream below must cross it mid-stream.
    let cfg = ServiceConfig {
        journal_max_bytes: Some(512),
        ..cfg_with(&dir)
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr().to_string();
    let resp = request(
        &addr,
        "POST",
        "/graphs",
        Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // 10 distinct rank requests; every one is journaled.
    for seed in 0..10u64 {
        let body =
            format!(r#"{{"graph":"g","targets":[1,5,9],"eps":0.2,"delta":0.1,"seed":{seed}}}"#);
        let resp = request(&addr, "POST", "/rank", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    handle.shutdown_and_join();

    // Rotation happened mid-stream: both generations exist, the current
    // file respects the bound, and the combined tail is contiguous.
    let current = dir.join(persist::JOURNAL_FILE);
    let rotated = persist::rotated_journal_path(&current);
    assert!(rotated.exists(), "journal never rotated");
    assert!(fs::metadata(&current).unwrap().len() <= 512);
    assert!(fs::metadata(&rotated).unwrap().len() <= 512);
    let mut all = fs::read_to_string(&rotated).unwrap();
    all.push_str(&fs::read_to_string(&current).unwrap());
    let seeds: Vec<u64> = all
        .lines()
        .map(|l| {
            Json::parse(l)
                .unwrap()
                .get("request")
                .unwrap()
                .get("seed")
                .and_then(Json::as_u64)
                .unwrap()
        })
        .collect();
    assert!(!seeds.is_empty() && seeds.len() < 10, "{seeds:?}");
    let expect: Vec<u64> = (10 - seeds.len() as u64..10).collect();
    assert_eq!(seeds, expect, "rotated+current must be the ordered tail");

    // replay_journals walks rotated then current, in order, cleanly.
    let service = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (restored, recomputed) = service.restore_from_dir(&dir);
    assert_eq!((restored, recomputed), (1, 0));
    let stats = persist::replay_journals(&dir, &service).unwrap();
    assert_eq!(stats.replayed, seeds.len());
    assert_eq!(stats.status_mismatches, 0, "{stats:?}");
}

#[test]
fn concurrent_same_name_loads_leave_disk_and_memory_agreeing() {
    // Regression: snapshot write and registry insert used to be unordered
    // across loaders — thread A's snapshot could land last on disk while
    // thread B's entry landed last in memory, so a restart would silently
    // restore a different graph than the one being served.
    use saphyra_service::http::Request;
    let dir = state_dir("publish_race");
    let svc = Service::new(cfg_with(&dir));
    std::thread::scope(|scope| {
        for seed in 0..8u64 {
            let svc = &svc;
            scope.spawn(move || {
                let body =
                    format!(r#"{{"name":"g","network":"flickr","size":"tiny","seed":{seed}}}"#);
                let (resp, _) = svc.handle(&Request {
                    method: "POST".to_string(),
                    path: "/graphs".to_string(),
                    headers: Vec::new(),
                    body: body.into_bytes(),
                });
                assert_eq!(resp.status, 200, "{}", resp.body_str());
            });
        }
    });
    // Whatever interleaving happened, the snapshot on disk and the entry
    // in memory must describe the same graph.
    let snap = persist::load_snapshot(&persist::snapshot_path(&dir, "g")).unwrap();
    let entry = svc.registry().get("g").unwrap();
    let edges = |g: &saphyra_graph::Graph| {
        let mut buf = Vec::new();
        saphyra_graph::io::write_edge_list(g, &mut buf).unwrap();
        buf
    };
    assert_eq!(
        edges(&snap.graph),
        edges(&entry.graph),
        "disk and memory diverged under concurrent same-name loads"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The delta-journaling read path: journaled `PATCH` deltas replay on
/// restart from the snapshot alone — zero re-uploads, and no load counted
/// under `decompositions` — and the replayed graph ranks byte-identically
/// to the patched graph the first life served.
#[test]
fn patched_graphs_survive_restart_via_journal_replay() {
    let dir = state_dir("patch_replay");
    let post_patch_body;
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        let resp = request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);

        // Two patches, well under the default re-snapshot cadence (16):
        // the snapshot on disk stays at seq 0, the journal carries both.
        let resp = request(
            &addr,
            "PATCH",
            "/graphs/g",
            Some(r#"{"insert":[[0,7],[3,11]]}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("delta_seq").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("journaled").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("persisted"), None, "seq 1 must not re-snapshot yet");
        let resp = request(&addr, "PATCH", "/graphs/g", Some(r#"{"delete":[[0,7]]}"#)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("delta_seq").unwrap().as_u64(), Some(2));

        let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        post_patch_body = resp.body;
        handle.shutdown_and_join();
    }
    assert_eq!(persist::read_patch_records(&dir).unwrap().len(), 2);
    assert_eq!(
        persist::load_snapshot(&persist::snapshot_path(&dir, "g"))
            .unwrap()
            .delta_seq,
        0
    );

    // Second life: snapshot restores the upload-time graph, patch replay
    // walks it to seq 2. No POST /graphs and no snapshot-fallback
    // recompute.
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        let h = health(&addr);
        assert_eq!(counter(&h, "graphs"), 1);
        assert_eq!(counter(&h, "snapshots_loaded"), 1);
        assert_eq!(
            counter(&h, "decompositions"),
            0,
            "replay must not reload the graph"
        );
        assert_eq!(counter(&h, "patches_replayed"), 2);

        let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.header("x-saphyra-cache"), Some("miss"));
        assert_eq!(
            resp.body, post_patch_body,
            "replayed deltas ranked differently from the patched first life"
        );
        // The replayed entry continues the sequence, not restarts it.
        let resp = request(&addr, "PATCH", "/graphs/g", Some(r#"{"delete":[[3,11]]}"#)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("delta_seq").unwrap().as_u64(), Some(3));
        handle.shutdown_and_join();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// With `resnapshot_deltas = 1` every patch folds into the snapshot, so a
/// restart restores the patched graph directly and replays nothing — the
/// journal records are recognized as already contained (`seq <= delta_seq`).
#[test]
fn resnapshot_folds_deltas_so_replay_skips_them() {
    let dir = state_dir("resnap");
    let cfg = ServiceConfig {
        resnapshot_deltas: 1,
        ..cfg_with(&dir)
    };
    {
        let handle = serve("127.0.0.1:0", cfg.clone()).unwrap();
        let addr = handle.addr().to_string();
        request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        let resp = request(
            &addr,
            "PATCH",
            "/graphs/g",
            Some(r#"{"insert":[[0,7],[3,11]]}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("journaled").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("persisted").unwrap().as_bool(), Some(true));
        handle.shutdown_and_join();
    }
    // The snapshot itself now sits at seq 1...
    let snap = persist::load_snapshot(&persist::snapshot_path(&dir, "g")).unwrap();
    assert_eq!(snap.delta_seq, 1);
    // ...so the boot replays zero of the (still present) patch records.
    assert_eq!(persist::read_patch_records(&dir).unwrap().len(), 1);
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr().to_string();
    let h = health(&addr);
    assert_eq!(counter(&h, "graphs"), 1);
    assert_eq!(counter(&h, "snapshots_loaded"), 1);
    assert_eq!(counter(&h, "patches_replayed"), 0);
    handle.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

/// The warm-cache region: a graceful `POST /shutdown` persists the
/// hottest cached bodies into the snapshot's warm section; the next boot
/// re-inserts them under the restored entry's fresh epoch and answers the
/// same requests as cache hits — byte-identical, zero recomputation —
/// accounted in `/healthz` as `warm_hits`.
#[test]
fn warm_section_round_trips_hot_responses_across_restart() {
    let dir = state_dir("warm");
    let first_body;
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        let resp = request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        first_body = resp.body;
        // Graceful shutdown through the HTTP route: this is the path that
        // flushes warm-enriched snapshots before the server goes down.
        let resp = request(&addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("warm_snapshots").unwrap().as_u64(), Some(1));
        handle.join();
    }
    let snap = persist::load_snapshot(&persist::snapshot_path(&dir, "g")).unwrap();
    assert_eq!(snap.warm.len(), 1, "hot body missing from the warm section");

    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        let resp = request(&addr, "POST", "/rank", Some(RANK_BODY)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.header("x-saphyra-cache"),
            Some("hit"),
            "restart did not answer from the warm section"
        );
        assert_eq!(resp.body, first_body, "warm body diverged across restart");
        let h = health(&addr);
        assert_eq!(counter(&h, "warm_hits"), 1);
        assert_eq!(counter(&h, "computations"), 0, "warm hit still recomputed");
        assert!(counter(&h, "resident_graph_bytes") > 0);
        handle.shutdown_and_join();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restart_mints_fresh_epochs_for_restored_entries() {
    let dir = state_dir("epochs");
    {
        let handle = serve("127.0.0.1:0", cfg_with(&dir)).unwrap();
        let addr = handle.addr().to_string();
        request(
            &addr,
            "POST",
            "/graphs",
            Some(r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#),
        )
        .unwrap();
        handle.shutdown_and_join();
    }
    // Two services restored from the same snapshot in one process: their
    // entries must not share an epoch (epochs are never persisted).
    let restore = || {
        let s = Service::new(ServiceConfig::default());
        s.restore_from_dir(&dir);
        s.registry().get("g").unwrap().epoch
    };
    let (a, b) = (restore(), restore());
    assert_ne!(a, b, "restored entries reused a persisted epoch");
    let _ = fs::remove_dir_all(&dir);
}
