//! End-to-end benchmark of the ranking service's `/rank` path.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path rankbench/Cargo.toml -- \
//!     --workload hot|cold|measures|burst --seed N --seconds S --trace 0|1
//! ```
//!
//! A run builds the workspace's `cli` binary from source, generates a graph
//! and request streams from the seed, computes exact centralities for the
//! targets, then boots `cli serve` and loads the graph over HTTP several
//! times (the fastest boot is `setup_s`). On the last boot it primes the
//! workload's catalog, warms up for a second, drives the traffic mix for
//! the given seconds (see [`workload`]) and replays a sample of the
//! requests. Every distinct body is checked: shape, byte-identical
//! replays, the (ε, δ) guarantee against the exact values, and a floor on
//! the ranking's Spearman ρ (see [`check`]).
//!
//! The last line of stdout is one JSON object. With `--trace 0` it holds
//! the end-to-end metrics; with `--trace 1` the per-layer breakdown, taken
//! from spans the benchmark records around its own calls into each layer:
//! boot and graph load, the cache and batching dispositions the service
//! reports per response, and quiet-server probes of the HTTP floor, a
//! cache hit and a lone cold request per measure.

mod check;
mod graph;
mod http;
mod json;
mod rng;
mod server;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use http::Conn;
use rng::Rng;
use server::Server;
use workload::{Bodies, Disposition, Measure, Plan, Record, Workload};

/// Boots per run. `setup_s` is the fastest: a boot is about 5 ms of
/// process spawn and graph load, and scheduling jitter only adds to it.
const SETUPS: usize = 61;
const WARMUP: Duration = Duration::from_secs(1);
/// Distinct requests replayed after the traffic.
const REPLAYS: usize = 64;
/// Sequential round trips per quiet probe of the HTTP floor and a hit.
const PROBE_TRIPS: usize = 200;
/// Lone cold requests per measure in the quiet probe.
const PROBE_COLD: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rankbench: {e}");
            eprintln!("usage: rankbench --workload hot|cold|measures|burst [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rankbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A per-run directory under the target directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let cli = server::build()?;
    let dir = WorkDir(
        server::target_dir()?
            .join("rankbench")
            .join(format!("run-{}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;

    let input = graph::generate(&mut Rng::stream(args.seed, workload::GRAPH_STREAM));
    let graph_file = dir.0.join("graph.txt");
    graph::write_edge_list(&graph_file, input.graph.n(), &input.edges)
        .map_err(|e| format!("{}: {e}", graph_file.display()))?;
    let oracle = check::Oracle::compute(&input);
    let plan = Plan::new(args.workload, args.seed, input.anchors, input.pool);

    let mut boots = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            Server::stop(prev)?;
        }
        let (server, boot) = Server::start(&cli, &graph_file, args.workload.clients())?;
        boots.push(boot);
        last = Some(server);
    }
    let server = last.expect("SETUPS >= 1");
    let addr = server.addr.clone();

    let mut bodies = Bodies::default();
    let mut conn = Conn::new(&addr);
    let mut records: Vec<Record> = plan
        .catalog
        .iter()
        .map(|req| workload::send(&mut conn, req, &mut bodies))
        .collect();
    records.extend(workload::run(&plan, &addr, 0, WARMUP, &mut bodies).records);
    let before = Counters::read(&mut conn)?;
    let measured = workload::run(
        &plan,
        &addr,
        1,
        Duration::from_secs(args.seconds),
        &mut bodies,
    );
    let after = Counters::read(&mut conn)?;

    let mut keys: Vec<&String> = bodies.map.keys().collect();
    keys.sort();
    let step = keys.len().div_ceil(REPLAYS).max(1);
    let replays: Vec<_> = keys
        .iter()
        .step_by(step)
        .map(|k| bodies.map[*k].0.clone())
        .collect();
    for req in &replays {
        records.push(workload::send(&mut conn, req, &mut bodies));
    }

    let mut metrics = Vec::new();
    if args.trace {
        layer_metrics(&mut metrics, &boots, &measured.records, &before, &after);
        probe(
            &mut metrics,
            &mut records,
            &plan,
            &mut conn,
            args.seed,
            &mut bodies,
        )?;
    }
    drop(conn);
    Server::stop(server)?;

    let verdict = check::evaluate(&bodies, &oracle);
    let attempted = records.len() + measured.records.len();
    let failed = records
        .iter()
        .chain(&measured.records)
        .filter(|r| r.status != 200)
        .count();
    if !args.trace {
        let ok: Vec<&Record> = measured
            .records
            .iter()
            .filter(|r| r.status == 200)
            .collect();
        let mut lat: Vec<f64> = ok.iter().map(|r| ms(r.latency)).collect();
        let setup = boots.iter().map(|b| b.total()).min().unwrap_or_default();
        metrics.push(("latency_p50_ms", quantile(&mut lat, 0.5), "ms"));
        // The tail is the 90th percentile: the 99th of cache hits moved by
        // a third or more between seeds on a shared two-core host.
        metrics.push(("latency_p90_ms", quantile(&mut lat, 0.9), "ms"));
        metrics.push((
            "throughput_rps",
            ok.len() as f64 / measured.elapsed.as_secs_f64(),
            "1/s",
        ));
        metrics.push(("rank_rho", verdict.rho(), "rho"));
        metrics.push(("setup_s", setup.as_secs_f64(), "s"));
    }
    eprintln!(
        "rankbench: {:?} seed {}: {} requests ({} measured, {} failed), {} distinct bodies, \
         {} malformed, {} replay mismatches, {} over eps",
        args.workload,
        args.seed,
        attempted,
        measured.records.len(),
        failed,
        verdict.checked + verdict.malformed,
        verdict.malformed,
        bodies.mismatches,
        verdict.violations
    );
    let correct = failed == 0 && bodies.mismatches == 0 && verdict.holds();
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    Ok(format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        fields.join(", ")
    ))
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Service counters from `/healthz` (0 when a field is absent).
struct Counters {
    computations: f64,
    sample_passes: f64,
}

impl Counters {
    fn read(conn: &mut Conn) -> Result<Counters, String> {
        let reply = conn
            .request("GET", "/healthz", "")
            .map_err(|e| format!("/healthz: {e}"))?;
        let json = json::Json::parse(&reply.body).map_err(|e| format!("/healthz: {e}"))?;
        let get = |k: &str| json.get(k).and_then(json::Json::as_f64).unwrap_or(0.0);
        Ok(Counters {
            computations: get("computations"),
            sample_passes: get("sample_passes"),
        })
    }
}

/// Per-layer numbers from the boots and the measured traffic.
fn layer_metrics(
    out: &mut Metrics,
    boots: &[server::Boot],
    recs: &[Record],
    before: &Counters,
    after: &Counters,
) {
    // Fastest of the boots, as `setup_s`.
    let fastest =
        |phase: fn(&server::Boot) -> Duration| boots.iter().map(phase).min().map_or(0.0, ms);
    out.push(("boot.listen_ms", fastest(|b| b.listen), "ms"));
    out.push(("registry.load_ms", fastest(|b| b.load), "ms"));
    let ok: Vec<&Record> = recs.iter().filter(|r| r.status == 200).collect();
    let share =
        |d: Disposition| ok.iter().filter(|r| r.cache == d).count() as f64 / ok.len().max(1) as f64;
    out.push(("cache.hit_ratio", share(Disposition::Hit), "ratio"));
    out.push((
        "singleflight.shared_ratio",
        share(Disposition::Shared),
        "ratio",
    ));
    let passes = after.sample_passes - before.sample_passes;
    let computations = after.computations - before.computations;
    out.push((
        "batch.members_per_pass",
        if passes > 0.0 {
            computations / passes
        } else {
            0.0
        },
        "ratio",
    ));
    let hit_us: Vec<f64> = ok
        .iter()
        .filter(|r| r.cache == Disposition::Hit)
        .map(|r| ms(r.latency) * 1e3)
        .collect();
    out.push(("rank.hit_p50_us", median(hit_us), "us"));
    let computed: Vec<&&Record> = ok
        .iter()
        .filter(|r| matches!(r.cache, Disposition::Miss | Disposition::Batched))
        .collect();
    out.push((
        "rank.compute_p50_ms",
        median(computed.iter().map(|r| ms(r.latency)).collect()),
        "ms",
    ));
    let samples: Vec<f64> = computed
        .iter()
        .filter_map(|r| r.samples)
        .map(|s| s as f64)
        .collect();
    let mean = if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    };
    out.push(("estimator.samples_per_compute", mean, "count"));
}

/// Quiet-server probes, one layer each: the HTTP round trip, a cached
/// `/rank`, and lone cold requests per measure.
fn probe(
    out: &mut Metrics,
    records: &mut Vec<Record>,
    plan: &Plan,
    conn: &mut Conn,
    seed: u64,
    bodies: &mut Bodies,
) -> Result<(), String> {
    let mut trips = Vec::with_capacity(PROBE_TRIPS);
    for _ in 0..PROBE_TRIPS {
        let t = Instant::now();
        let reply = conn
            .request("GET", "/healthz", "")
            .map_err(|e| format!("/healthz: {e}"))?;
        trips.push(ms(t.elapsed()) * 1e3);
        if reply.status != 200 {
            return Err(format!("/healthz: HTTP {}", reply.status));
        }
    }
    out.push(("http.healthz_us", median(trips), "us"));

    let mut rng = Rng::stream(seed, workload::PROBE_STREAM);
    let hot = plan.fresh(&mut rng, Measure::Bc);
    let mut hits = Vec::with_capacity(PROBE_TRIPS);
    for _ in 0..=PROBE_TRIPS {
        let rec = workload::send(conn, &hot, bodies);
        hits.push(ms(rec.latency) * 1e3);
        records.push(rec);
    }
    hits.remove(0); // the first one computed
    out.push(("cache.hit_us", median(hits), "us"));

    for (m, name, samples_name) in [
        (
            Measure::Bc,
            "rank.lone_cold_bc_ms",
            Some("estimator.bc_samples"),
        ),
        (Measure::KPath, "rank.lone_cold_kpath_ms", None),
        (Measure::Harmonic, "rank.lone_cold_harmonic_ms", None),
    ] {
        let (mut lat, mut samples) = (Vec::new(), Vec::new());
        for _ in 0..PROBE_COLD {
            let rec = workload::send(conn, &plan.fresh(&mut rng, m), bodies);
            lat.push(ms(rec.latency));
            samples.push(rec.samples.unwrap_or(0) as f64);
            records.push(rec);
        }
        out.push((name, median(lat), "ms"));
        if let Some(s) = samples_name {
            out.push((s, median(samples), "count"));
        }
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// Nearest-rank quantile; 0 for an empty sample.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
