//! Building the service from source, booting it, and loading the graph.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::Conn;

/// Name the benchmark's graph is registered under.
pub const GRAPH: &str = "g";

/// The cargo target directory, as cargo resolves it from the repository
/// root.
pub fn target_dir() -> Result<PathBuf, String> {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    if dir.is_absolute() {
        Ok(dir)
    } else {
        let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
        Ok(cwd.join(dir))
    }
}

/// Builds the workspace's `cli` binary (release) from the repository root
/// and returns its path.
pub fn build() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "--bin",
            "cli",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the service failed ({status})"));
    }
    let bin = target_dir()?.join("release").join("cli");
    if !bin.is_file() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

/// Phases of one boot, each timed by the benchmark around its call.
#[derive(Debug, Clone, Copy)]
pub struct Boot {
    /// Process spawn until the service prints its address.
    pub listen: Duration,
    /// `POST /graphs`: edge-list parse, CSR build and decomposition.
    pub load: Duration,
}

impl Boot {
    pub fn total(&self) -> Duration {
        self.listen + self.load
    }
}

/// A running `cli serve` process. Dropping it kills the process and waits
/// for it.
pub struct Server {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Server {
    /// Boots the service with `workers` request workers on an ephemeral
    /// loopback port and loads the graph file under [`GRAPH`].
    pub fn start(cli: &Path, graph_file: &Path, workers: usize) -> Result<(Server, Boot), String> {
        let t0 = Instant::now();
        let mut child = Command::new(cli)
            .args(["serve", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stdout until the process exits, so it never blocks on a
        // full pipe; the first "listening on" line carries the address.
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Server {
            child,
            stdout: Some(stdout),
            addr: String::new(),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "the service did not report its address".to_string())?;
        let listen = t0.elapsed();

        let path = graph_file
            .display()
            .to_string()
            .replace('\\', "\\\\")
            .replace('"', "\\\"");
        let body = format!(r#"{{"name":"{GRAPH}","path":"{path}"}}"#);
        let t1 = Instant::now();
        let reply = Conn::new(&server.addr)
            .request("POST", "/graphs", &body)
            .map_err(|e| format!("loading the graph: {e}"))?;
        let load = t1.elapsed();
        if reply.status != 200 {
            return Err(format!(
                "loading the graph: HTTP {} {}",
                reply.status, reply.body
            ));
        }
        Ok((server, Boot { listen, load }))
    }

    /// Asks the service to shut down and waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = Conn::new(&self.addr).request("POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the service exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("the service ignored /shutdown".into()),
                Err(e) => return Err(format!("waiting for the service: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }
}
