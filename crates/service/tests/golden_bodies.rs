//! Golden `/rank` bodies: byte length and CRC-32 of the served JSON for
//! every measure × seed × target-set shape, pinned against a socket-less
//! standalone service. The constants were recorded once and must never be
//! edited: a refactor of the estimation engine that changes any served
//! byte fails here.

use saphyra_graph::wire::crc32;
use saphyra_service::http::Request;
use saphyra_service::server::{Service, ServiceConfig};

const LOAD: &str = r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#;

const MEASURES: [(&str, &str); 3] = [("bc", ""), ("kpath", r#","khops":4"#), ("harmonic", "")];
const SEEDS: [u64; 3] = [1, 7, 42];
const TARGET_SETS: [&str; 2] = ["[0,3,9,17,40]", "[12]"];

/// `(measure, seed, targets) → (body length, crc32)`.
const GOLDEN: [(&str, u64, &str, usize, u32); 18] = [
    ("bc", 1, "[0,3,9,17,40]", 335, 3048379386),
    ("bc", 1, "[12]", 234, 2714396458),
    ("bc", 7, "[0,3,9,17,40]", 332, 1823761247),
    ("bc", 7, "[12]", 234, 1875804615),
    ("bc", 42, "[0,3,9,17,40]", 334, 472620762),
    ("bc", 42, "[12]", 235, 566841836),
    ("kpath", 1, "[0,3,9,17,40]", 306, 811804487),
    ("kpath", 1, "[12]", 203, 950917854),
    ("kpath", 7, "[0,3,9,17,40]", 304, 2816413314),
    ("kpath", 7, "[12]", 202, 2578139230),
    ("kpath", 42, "[0,3,9,17,40]", 306, 2024809112),
    ("kpath", 42, "[12]", 203, 2324926540),
    ("harmonic", 1, "[0,3,9,17,40]", 313, 1066811643),
    ("harmonic", 1, "[12]", 219, 1043768576),
    ("harmonic", 7, "[0,3,9,17,40]", 314, 2798035918),
    ("harmonic", 7, "[12]", 219, 1943057520),
    ("harmonic", 42, "[0,3,9,17,40]", 316, 747655533),
    ("harmonic", 42, "[12]", 220, 3908769243),
];

fn post(svc: &Service, path: &str, body: &str) -> (u16, Vec<u8>) {
    let resp = svc
        .handle(&Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
        .0;
    (resp.status, resp.body)
}

#[test]
fn rank_bodies_match_recorded_bytes() {
    let svc = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (status, body) = post(&svc, "/graphs", LOAD);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

    let mut got = Vec::new();
    for (measure, extra) in MEASURES {
        for seed in SEEDS {
            for targets in TARGET_SETS {
                let req = format!(
                    r#"{{"graph":"g","measure":"{measure}","targets":{targets},"eps":0.1,"delta":0.1,"seed":{seed}{extra}}}"#
                );
                let (status, body) = post(&svc, "/rank", &req);
                assert_eq!(status, 200, "{req}: {}", String::from_utf8_lossy(&body));
                got.push((measure, seed, targets, body.len(), crc32(&body)));
            }
        }
    }
    assert_eq!(got, GOLDEN, "served bytes moved");
}
