//! Docker-free multi-process sharded deployment e2e: two plain `serve`
//! processes as shards, two `--role router` processes fronting them, plus
//! a standalone process as the reference. The routers' `/rank` bytes must
//! compare equal to the standalone server's for every measure, and a
//! killed shard must surface as a clean 503 that names it.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use saphyra_service::http::Client;

/// A spawned `saphyra-cli serve` process; killed on drop so a failing
/// assertion never leaks servers.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn(extra: &[&str]) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cli"));
        cmd.arg("serve")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn saphyra-cli serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before announcing its address")
                .expect("read server stdout");
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.trim().to_string();
            }
        };
        // Drain the rest of stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        ServerProc { child, addr }
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Loads the shared test graph through the `query load` CLI and returns
/// the reply body it printed.
fn cli_load(addr: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cli"));
    cmd.args(["query", addr, "load", "--name", "g", "--gen", "flickr:tiny"]);
    cmd.args(["--seed", "7"]);
    let out = cmd.output().expect("run saphyra-cli query load");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "load on {addr} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn rank_body(measure: &str, seed: u64) -> String {
    format!(
        r#"{{"graph":"g","measure":"{measure}","targets":[0,3,9,17,40],"eps":0.2,"delta":0.1,"seed":{seed},"khops":4}}"#
    )
}

#[test]
fn three_process_sharded_rank_matches_standalone_bytes() {
    let shard_a = ServerProc::spawn(&[]);
    let shard_b = ServerProc::spawn(&[]);
    let shard_list = format!("{},{}", shard_a.addr, shard_b.addr);
    let router = ServerProc::spawn(&["--role", "router", "--shards", &shard_list]);
    let second_router = ServerProc::spawn(&["--role", "router", "--shards", &shard_list]);
    let standalone = ServerProc::spawn(&[]);

    let loaded = cli_load(&router.addr);
    cli_load(&standalone.addr);
    let owner = [&shard_a.addr, &shard_b.addr]
        .into_iter()
        .find(|a| loaded.contains(&format!("\"shard\":\"{a}\"")))
        .unwrap_or_else(|| panic!("load reply names no shard: {loaded}"))
        .clone();

    let mut via_router = Client::new(router.addr.clone());
    let mut via_second = Client::new(second_router.addr.clone());
    let mut reference = Client::new(standalone.addr.clone());

    // Roles are visible in /healthz.
    let health = via_router.request("GET", "/healthz", None).unwrap();
    assert!(
        health.body.contains("\"role\":\"router\""),
        "{}",
        health.body
    );

    for measure in ["bc", "kpath", "harmonic"] {
        let body = rank_body(measure, 41);
        let routed = via_router.request("POST", "/rank", Some(&body)).unwrap();
        assert_eq!(routed.status, 200, "{measure}: {}", routed.body);
        let solo = reference.request("POST", "/rank", Some(&body)).unwrap();
        assert_eq!(solo.status, 200, "{measure}: {}", solo.body);
        assert_eq!(
            routed.body, solo.body,
            "{measure}: routed bytes diverge from standalone"
        );
        // A second router over the same shard list reaches the graph too.
        let second = via_second.request("POST", "/rank", Some(&body)).unwrap();
        assert_eq!(second.body, solo.body, "{measure}: second router diverges");
    }

    // Kill the shard the load reply named: a cold request must come back
    // as a clean JSON 503 that names it.
    let (dead, alive) = if owner == shard_a.addr {
        (shard_a, shard_b)
    } else {
        (shard_b, shard_a)
    };
    dead.kill();
    let cold = rank_body("bc", 42);
    let resp = via_router.request("POST", "/rank", Some(&cold)).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert!(resp.body.contains("error"), "{}", resp.body);
    assert!(
        resp.body.contains(&owner),
        "503 does not name the dead shard: {}",
        resp.body
    );

    // Graceful shutdown of what's left.
    for (client, proc_) in [
        (&mut via_router, router),
        (&mut via_second, second_router),
        (&mut reference, standalone),
    ] {
        let r = client.request("POST", "/shutdown", None).unwrap();
        assert_eq!(r.status, 200);
        proc_.kill();
    }
    let mut alive_client = Client::new(alive.addr.clone());
    let r = alive_client.request("POST", "/shutdown", None).unwrap();
    assert_eq!(r.status, 200);
    alive.kill();
}
