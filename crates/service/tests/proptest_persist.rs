//! Property: for any graph, `Graph → snapshot bytes → Graph +
//! BcDecomposition` is bit-identical — a service entry restored from a
//! snapshot serves byte-identical `/rank` responses to one freshly
//! decomposed, for the same seed.

use proptest::prelude::*;
use saphyra::bc::BcDecomposition;
use saphyra_graph::{Graph, GraphBuilder};
use saphyra_service::http::Request;
use saphyra_service::persist;
use saphyra_service::registry::GraphEntry;
use saphyra_service::server::{Service, ServiceConfig};

/// Strategy: a random simple graph with 2..=20 nodes (mixes connected,
/// disconnected and edgeless shapes).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=20).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_edges.max(1))
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build().unwrap())
    })
}

fn rank_response(entry: GraphEntry, body: &str) -> String {
    let svc = Service::new(ServiceConfig {
        workers: 1,
        cache_capacity: 4,
        ..ServiceConfig::default()
    });
    svc.registry().insert(entry);
    let (resp, _) = svc.handle(&Request {
        method: "POST".to_string(),
        path: "/rank".to_string(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    });
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    resp.body_str().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_round_trip_preserves_rank_bytes(g in arb_graph(), seed in 0u64..1000) {
        // Fresh decomposition and its snapshot-restored twin.
        let dec = BcDecomposition::compute(&g);
        let bytes = persist::snapshot_to_bytes_with_warm("p", &g, &dec, 0, &[]);
        let snap = persist::snapshot_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&snap.name, "p");
        let dec2 = snap.dec.expect("intact snapshot restores");

        // Bit-identity of the decomposition itself.
        prop_assert_eq!(&dec.bic.edge_bicomp, &dec2.bic.edge_bicomp);
        prop_assert_eq!(&dec.outreach.r, &dec2.outreach.r);
        prop_assert_eq!(dec.gamma.to_bits(), dec2.gamma.to_bits());
        let bca: Vec<u64> = dec.bca.iter().map(|x| x.to_bits()).collect();
        let bca2: Vec<u64> = dec2.bca.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(bca, bca2);

        // Byte-identity of the wire responses computed from each.
        let n = g.num_nodes() as u32;
        let targets: Vec<u32> = if n >= 4 { vec![0, n / 2, n - 1] } else { vec![0, n - 1] };
        let targets_json: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
        let body = format!(
            r#"{{"graph":"p","targets":[{}],"eps":0.3,"delta":0.1,"seed":{seed}}}"#,
            targets_json.join(",")
        );
        let fresh = rank_response(GraphEntry::from_parts("p", snap.graph, dec), &body);
        let restored = rank_response(GraphEntry::from_parts("p", g, dec2), &body);
        prop_assert_eq!(fresh, restored, "restored entry ranked differently");
    }
}
