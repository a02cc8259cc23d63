//! `saphyra-cli` — rank nodes of an edge-list graph from the command line.
//!
//! ```text
//! saphyra-cli info  <edge-list>
//! saphyra-cli exact <edge-list> [--top K] [--threads N]
//! saphyra-cli rank  <edge-list> --targets 1,2,3 [--measure bc|kpath|harmonic]
//!                   [--eps 0.01] [--delta 0.01] [--seed 7] [--khops 5]
//! saphyra-cli rank  <edge-list> --random 100 [...]
//! saphyra-cli gen   <flickr|livejournal|usa-road|orkut> <tiny|small|full> <out-file>
//! saphyra-cli serve <addr> [--workers N] [--cache N] [--state-dir DIR]
//!                   [--max-connections N] [--pipeline-depth N] [--journal-max-bytes N]
//!                   [--resnapshot-deltas N]
//!                   [--role standalone|router]
//!                   [--shards host:port,host:port,...]
//! saphyra-cli snapshot save <edge-list> <out.snap> [--name G]
//! saphyra-cli snapshot load <file.snap>
//! saphyra-cli snapshot verify <file.snap>
//! saphyra-cli snapshot replay <state-dir>
//! saphyra-cli query <addr> health
//! saphyra-cli query <addr> graphs
//! saphyra-cli query <addr> load --name G (--path <edge-list> | --gen <network>:<size>) [--seed S]
//! saphyra-cli query <addr> patch G [--insert u,v]... [--delete u,v]...
//! saphyra-cli query <addr> rank --graph G --targets 1,2,3 [--measure M]
//!                   [--eps 0.01] [--delta 0.01] [--seed 7] [--khops 5] [--repeat N]
//! saphyra-cli query <addr> shutdown
//! ```
//!
//! `serve` runs the long-lived ranking service of [`saphyra_service`]
//! (bind to port 0 for an ephemeral port; the bound address is printed as
//! `listening on <addr>`). Cold `/rank` requests that differ only in their
//! targets batch by group commit: those arriving while their class samples
//! share its next pass, with nothing to tune. With `--state-dir` the
//! registry persists across restarts: graph loads write crash-safe
//! snapshots, `/rank` requests append to a journal, and boots restore
//! every snapshot without recomputing decompositions. `snapshot` drives
//! the same persistence code paths offline: `save` precomputes a snapshot
//! from an edge list, `load` and `verify` inspect one, `replay` applies a
//! state dir's journaled patch deltas and then re-issues its journaled
//! requests against its snapshots. `query` is the tiny client used by
//! tests/CI; it talks over one persistent (keep-alive) connection,
//! `rank --repeat N` replays the same request N times on it (printing one
//! body per line), and `patch` sends an edge delta
//! (`PATCH /graphs/<name>`) built from repeated `--insert u,v` /
//! `--delete u,v` flags.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saphyra::bc::{BcDecomposition, SaphyraBcConfig};
use saphyra::closeness::rank_harmonic;
use saphyra::kpath::rank_kpath;
use saphyra_graph::{io, Graph, NodeId};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Info {
        path: String,
    },
    Exact {
        path: String,
        top: usize,
        threads: usize,
    },
    Rank {
        path: String,
        targets: TargetSpec,
        measure: Measure,
        eps: f64,
        delta: f64,
        seed: u64,
        khops: usize,
    },
    Gen {
        network: String,
        size: String,
        out: String,
        seed: u64,
    },
    Serve {
        addr: String,
        workers: usize,
        cache: usize,
        max_connections: usize,
        pipeline_depth: usize,
        journal_max_bytes: Option<u64>,
        state_dir: Option<String>,
        /// Fold journaled `PATCH` deltas into a fresh snapshot every this
        /// many applied deltas per graph.
        resnapshot_deltas: usize,
        /// Node role in a sharded deployment (standalone by default).
        role: saphyra_service::Role,
        /// Shard backend addresses (`--shards`, routers only).
        shards: Vec<String>,
    },
    Snapshot(SnapshotCmd),
    Query {
        addr: String,
        method: &'static str,
        path: String,
        body: Option<String>,
        /// Send the request this many times over one persistent connection
        /// (printing each body); used by CI to exercise keep-alive.
        repeat: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
enum TargetSpec {
    List(Vec<NodeId>),
    Random(usize),
}

/// Offline snapshot operations (same code paths as `serve --state-dir`).
#[derive(Debug, Clone, PartialEq)]
enum SnapshotCmd {
    Save {
        input: String,
        out: String,
        name: Option<String>,
    },
    Load {
        path: String,
    },
    Verify {
        path: String,
    },
    Replay {
        dir: String,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Measure {
    Betweenness,
    KPath,
    Harmonic,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing command (info|exact|rank|gen)")?;
    match cmd.as_str() {
        "info" => {
            let path = it.next().ok_or("info: missing edge-list path")?.clone();
            Ok(Command::Info { path })
        }
        "exact" => {
            let path = it.next().ok_or("exact: missing edge-list path")?.clone();
            let (mut top, mut threads) = (10usize, 0usize);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--top" => top = next_parse(&mut it, "--top")?,
                    "--threads" => {
                        threads = next_parse(&mut it, "--threads")?;
                        saphyra::params::check_threads(threads)
                            .map_err(|e| format!("--threads: {e}"))?;
                    }
                    other => return Err(format!("exact: unknown flag {other}")),
                }
            }
            Ok(Command::Exact { path, top, threads })
        }
        "rank" => {
            let path = it.next().ok_or("rank: missing edge-list path")?.clone();
            let mut targets = None;
            let mut measure = Measure::Betweenness;
            let (mut eps, mut delta, mut seed, mut khops) = (0.01f64, 0.01f64, 2022u64, 5usize);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--targets" => {
                        let list = it.next().ok_or("--targets needs a value")?;
                        let ids: Result<Vec<NodeId>, _> =
                            list.split(',').map(|s| s.trim().parse()).collect();
                        targets = Some(TargetSpec::List(
                            ids.map_err(|_| format!("--targets: cannot parse {list:?}"))?,
                        ));
                    }
                    "--random" => {
                        let k: usize = next_parse(&mut it, "--random")?;
                        if k == 0 {
                            return Err("--random: target count must be >= 1".to_string());
                        }
                        targets = Some(TargetSpec::Random(k))
                    }
                    "--measure" => {
                        let m = it.next().ok_or("--measure needs a value")?;
                        measure = match m.as_str() {
                            "bc" | "betweenness" => Measure::Betweenness,
                            "kpath" => Measure::KPath,
                            "harmonic" | "closeness" => Measure::Harmonic,
                            other => return Err(format!("unknown measure {other}")),
                        };
                    }
                    "--eps" => {
                        eps = next_parse(&mut it, "--eps")?;
                        saphyra::params::check_eps(eps).map_err(|e| format!("--eps: {e}"))?;
                    }
                    "--delta" => {
                        delta = next_parse(&mut it, "--delta")?;
                        saphyra::params::check_delta(delta).map_err(|e| format!("--delta: {e}"))?;
                    }
                    "--seed" => seed = next_parse(&mut it, "--seed")?,
                    "--khops" => {
                        khops = next_parse(&mut it, "--khops")?;
                        saphyra::params::check_khops(khops).map_err(|e| format!("--khops: {e}"))?;
                    }
                    other => return Err(format!("rank: unknown flag {other}")),
                }
            }
            let targets = targets.ok_or("rank: need --targets or --random")?;
            Ok(Command::Rank {
                path,
                targets,
                measure,
                eps,
                delta,
                seed,
                khops,
            })
        }
        "gen" => {
            let network = it.next().ok_or("gen: missing network name")?.clone();
            let size = it.next().ok_or("gen: missing size class")?.clone();
            let out = it.next().ok_or("gen: missing output path")?.clone();
            let mut seed = 2022u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => seed = next_parse(&mut it, "--seed")?,
                    other => return Err(format!("gen: unknown flag {other}")),
                }
            }
            Ok(Command::Gen {
                network,
                size,
                out,
                seed,
            })
        }
        "serve" => {
            let addr = it.next().ok_or("serve: missing bind address")?.clone();
            let (mut workers, mut cache) = (0usize, 128usize);
            let defaults = saphyra_service::ServiceConfig::default();
            let mut max_connections = defaults.max_connections;
            let mut pipeline_depth = defaults.pipeline_depth;
            let mut journal_max_bytes = None;
            let mut state_dir = None;
            let mut resnapshot_deltas = defaults.resnapshot_deltas;
            let mut role = saphyra_service::Role::Standalone;
            let mut shards: Vec<String> = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--workers" => {
                        workers = next_parse(&mut it, "--workers")?;
                        saphyra::params::check_threads(workers)
                            .map_err(|e| format!("--workers: {e}"))?;
                    }
                    "--cache" => cache = next_parse(&mut it, "--cache")?,
                    "--max-connections" => {
                        max_connections = next_parse(&mut it, "--max-connections")?
                    }
                    "--pipeline-depth" => {
                        pipeline_depth = next_parse(&mut it, "--pipeline-depth")?;
                        if pipeline_depth == 0 {
                            return Err("--pipeline-depth must be >= 1".to_string());
                        }
                    }
                    "--journal-max-bytes" => {
                        let n: u64 = next_parse(&mut it, "--journal-max-bytes")?;
                        if n == 0 {
                            return Err("--journal-max-bytes must be >= 1".to_string());
                        }
                        journal_max_bytes = Some(n);
                    }
                    "--state-dir" => {
                        state_dir = Some(it.next().ok_or("--state-dir needs a value")?.clone())
                    }
                    "--resnapshot-deltas" => {
                        resnapshot_deltas = next_parse(&mut it, "--resnapshot-deltas")?;
                        if resnapshot_deltas == 0 {
                            return Err("--resnapshot-deltas must be >= 1".to_string());
                        }
                    }
                    "--role" => {
                        let v = it.next().ok_or("--role needs a value")?;
                        role = saphyra_service::Role::parse(v).ok_or(format!(
                            "--role: unknown role {v:?}; want standalone|router"
                        ))?;
                    }
                    "--shards" => {
                        let v = it.next().ok_or("--shards needs a value")?;
                        shards = v.split(',').map(|s| s.trim().to_string()).collect();
                    }
                    other => return Err(format!("serve: unknown flag {other}")),
                }
            }
            if role == saphyra_service::Role::Router {
                saphyra::params::check_shard_addrs(&shards, &addr)
                    .map_err(|e| format!("--shards: {e}"))?;
            } else if !shards.is_empty() {
                return Err(format!(
                    "--shards only applies to --role router (role is {})",
                    role.as_str()
                ));
            }
            Ok(Command::Serve {
                addr,
                workers,
                cache,
                max_connections,
                pipeline_depth,
                journal_max_bytes,
                state_dir,
                resnapshot_deltas,
                role,
                shards,
            })
        }
        "snapshot" => {
            let action = it.next().ok_or("snapshot: missing action")?;
            let cmd = match action.as_str() {
                "save" => {
                    let input = it.next().ok_or("snapshot save: missing edge-list")?.clone();
                    let out = it
                        .next()
                        .ok_or("snapshot save: missing output path")?
                        .clone();
                    let mut name = None;
                    while let Some(flag) = it.next() {
                        match flag.as_str() {
                            "--name" => {
                                name = Some(it.next().ok_or("--name needs a value")?.clone())
                            }
                            other => return Err(format!("snapshot save: unknown flag {other}")),
                        }
                    }
                    SnapshotCmd::Save { input, out, name }
                }
                "load" => SnapshotCmd::Load {
                    path: it.next().ok_or("snapshot load: missing path")?.clone(),
                },
                "verify" => SnapshotCmd::Verify {
                    path: it.next().ok_or("snapshot verify: missing path")?.clone(),
                },
                "replay" => SnapshotCmd::Replay {
                    dir: it
                        .next()
                        .ok_or("snapshot replay: missing state dir")?
                        .clone(),
                },
                other => {
                    return Err(format!(
                        "snapshot: unknown action {other}; expected save|load|verify|replay"
                    ))
                }
            };
            Ok(Command::Snapshot(cmd))
        }
        "query" => {
            let addr = it.next().ok_or("query: missing service address")?.clone();
            let action = it.next().ok_or("query: missing action")?;
            parse_query(addr, action, &mut it)
        }
        other => Err(format!(
            "unknown command {other}; expected info|exact|rank|gen|serve|snapshot|query"
        )),
    }
}

/// Rejects seeds the JSON wire format cannot carry exactly: `Json::Num` is
/// an `f64`, so integers above 2⁵³ would silently round to a *different*
/// seed than requested. The direct (non-service) `rank` path keeps the
/// full u64 range.
fn check_json_seed(seed: u64) -> Result<u64, String> {
    if seed > saphyra_service::json::MAX_SAFE_INT {
        return Err(format!(
            "--seed: {seed} exceeds 2^53, the largest integer the JSON wire format carries exactly"
        ));
    }
    Ok(seed)
}

/// Parses a `query <addr> <action> ...` invocation into the HTTP request
/// it stands for. Validation mirrors the service's own (`saphyra::params`),
/// so garbage fails fast client-side with the same messages.
fn parse_query<'a>(
    addr: String,
    action: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<Command, String> {
    use saphyra_service::json::Json;
    let query = |method, path: String, body: Option<String>, repeat| {
        Ok(Command::Query {
            addr,
            method,
            path,
            body,
            repeat,
        })
    };
    match action {
        "health" => query("GET", "/healthz".to_string(), None, 1),
        "graphs" => query("GET", "/graphs".to_string(), None, 1),
        "shutdown" => query("POST", "/shutdown".to_string(), None, 1),
        "load" => {
            let (mut name, mut path, mut gen, mut seed) = (None, None, None, None::<u64>);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--name" => name = Some(it.next().ok_or("--name needs a value")?.clone()),
                    "--path" => path = Some(it.next().ok_or("--path needs a value")?.clone()),
                    "--gen" => gen = Some(it.next().ok_or("--gen needs a value")?.clone()),
                    "--seed" => seed = Some(check_json_seed(next_parse(it, "--seed")?)?),
                    other => return Err(format!("load: unknown flag {other}")),
                }
            }
            let name = name.ok_or("load: need --name")?;
            let mut fields = vec![("name".to_string(), Json::from(name))];
            match (path, gen) {
                (Some(p), None) => fields.push(("path".to_string(), Json::from(p))),
                (None, Some(g)) => {
                    let (network, size) = g
                        .split_once(':')
                        .ok_or("--gen: want <network>:<size>, e.g. flickr:tiny")?;
                    // Fail fast on unknown spellings before going on the wire.
                    network.parse::<saphyra_gen::datasets::SimNetwork>()?;
                    size.parse::<saphyra_gen::datasets::SizeClass>()?;
                    fields.push(("network".to_string(), Json::from(network)));
                    fields.push(("size".to_string(), Json::from(size)));
                }
                _ => return Err("load: need exactly one of --path or --gen".to_string()),
            }
            if let Some(s) = seed {
                fields.push(("seed".to_string(), Json::from(s)));
            }
            query(
                "POST",
                "/graphs".to_string(),
                Some(Json::Obj(fields).to_string()),
                1,
            )
        }
        "patch" => {
            let name = it.next().ok_or("patch: missing graph name")?.clone();
            // The name becomes a path segment: reject anything the service
            // would never have accepted as a graph name (and that could
            // otherwise smuggle '/' or '?' into the request line).
            if !saphyra_service::persist::valid_graph_name(&name) {
                return Err(format!(
                    "patch: invalid graph name {name:?} (want 1-64 chars of [A-Za-z0-9._-], \
                     no leading dot)"
                ));
            }
            let (mut insert, mut delete) = (Vec::new(), Vec::new());
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--insert" => insert.push(parse_edge_pair(it, "--insert")?),
                    "--delete" => delete.push(parse_edge_pair(it, "--delete")?),
                    other => return Err(format!("patch: unknown flag {other}")),
                }
            }
            if insert.is_empty() && delete.is_empty() {
                return Err("patch: need at least one --insert u,v or --delete u,v".to_string());
            }
            let edges = |list: &[(NodeId, NodeId)]| {
                Json::Arr(
                    list.iter()
                        .map(|&(u, v)| Json::Arr(vec![Json::from(u), Json::from(v)]))
                        .collect(),
                )
            };
            let mut fields = Vec::new();
            if !insert.is_empty() {
                fields.push(("insert".to_string(), edges(&insert)));
            }
            if !delete.is_empty() {
                fields.push(("delete".to_string(), edges(&delete)));
            }
            query(
                "PATCH",
                format!("/graphs/{name}"),
                Some(Json::Obj(fields).to_string()),
                1,
            )
        }
        "rank" => {
            let mut graph = None;
            let mut targets: Option<Vec<NodeId>> = None;
            let mut measure = "bc".to_string();
            let (mut eps, mut delta, mut seed, mut khops) = (0.01f64, 0.01f64, 2022u64, 5usize);
            let mut repeat = 1usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--repeat" => {
                        repeat = next_parse(it, "--repeat")?;
                        if repeat == 0 {
                            return Err("--repeat: must be >= 1".to_string());
                        }
                    }
                    "--graph" => graph = Some(it.next().ok_or("--graph needs a value")?.clone()),
                    "--targets" => {
                        let list = it.next().ok_or("--targets needs a value")?;
                        let ids: Result<Vec<NodeId>, _> =
                            list.split(',').map(|s| s.trim().parse()).collect();
                        targets =
                            Some(ids.map_err(|_| format!("--targets: cannot parse {list:?}"))?);
                    }
                    "--measure" => measure = it.next().ok_or("--measure needs a value")?.clone(),
                    "--eps" => {
                        eps = next_parse(it, "--eps")?;
                        saphyra::params::check_eps(eps).map_err(|e| format!("--eps: {e}"))?;
                    }
                    "--delta" => {
                        delta = next_parse(it, "--delta")?;
                        saphyra::params::check_delta(delta).map_err(|e| format!("--delta: {e}"))?;
                    }
                    "--seed" => seed = check_json_seed(next_parse(it, "--seed")?)?,
                    "--khops" => {
                        khops = next_parse(it, "--khops")?;
                        saphyra::params::check_khops(khops).map_err(|e| format!("--khops: {e}"))?;
                    }
                    other => return Err(format!("rank: unknown flag {other}")),
                }
            }
            let graph = graph.ok_or("rank: need --graph")?;
            let targets = targets.ok_or("rank: need --targets")?;
            let body = Json::Obj(vec![
                ("graph".to_string(), Json::from(graph)),
                ("measure".to_string(), Json::from(measure)),
                (
                    "targets".to_string(),
                    Json::Arr(targets.iter().map(|&t| Json::from(t)).collect()),
                ),
                ("eps".to_string(), Json::Num(eps)),
                ("delta".to_string(), Json::Num(delta)),
                ("seed".to_string(), Json::from(seed)),
                ("khops".to_string(), Json::from(khops)),
            ]);
            query("POST", "/rank".to_string(), Some(body.to_string()), repeat)
        }
        other => Err(format!(
            "query: unknown action {other}; expected health|graphs|load|patch|rank|shutdown"
        )),
    }
}

/// Parses one `--insert`/`--delete` operand of `query patch`: a `u,v`
/// endpoint pair. Self-loops fail fast client-side — no edge delta ever
/// accepts them, so there is no point putting one on the wire.
fn parse_edge_pair<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<(NodeId, NodeId), String> {
    let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    let (u, v) = val
        .split_once(',')
        .ok_or_else(|| format!("{flag}: want u,v (e.g. 3,7), got {val:?}"))?;
    let parse = |s: &str| {
        s.trim()
            .parse::<NodeId>()
            .map_err(|_| format!("{flag}: cannot parse node id {:?}", s.trim()))
    };
    let (u, v) = (parse(u)?, parse(v)?);
    if u == v {
        return Err(format!("{flag}: {u},{v} is a self-loop"));
    }
    Ok((u, v))
}

fn next_parse<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

fn load(path: &str) -> Result<Graph, String> {
    io::load_edge_list(path).map_err(|e| format!("cannot load {path}: {e}"))
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Info { path } => {
            let g = load(&path)?;
            let dec = BcDecomposition::compute(&g);
            let comps = saphyra_graph::connectivity::Components::compute(&g);
            println!("nodes            {}", g.num_nodes());
            println!("edges            {}", g.num_edges());
            println!("max degree       {}", g.max_degree());
            println!("components       {}", comps.count());
            println!("bi-components    {}", dec.bic.num_bicomps);
            println!(
                "cutpoints        {}",
                dec.bic.is_cutpoint.iter().filter(|&&c| c).count()
            );
            println!("gamma (Eq. 19)   {:.6}", dec.gamma);
            Ok(())
        }
        Command::Exact { path, top, threads } => {
            let g = load(&path)?;
            let bc = saphyra_baselines::exact_betweenness(&g, threads);
            let ranks = saphyra_stats::ranks_by_value(&bc);
            let mut order: Vec<usize> = (0..g.num_nodes()).collect();
            order.sort_by_key(|&v| ranks[v]);
            println!("{:<8} {:<10} betweenness", "rank", "node");
            for &v in order.iter().take(top) {
                println!("{:<8} {:<10} {:.8}", ranks[v], v, bc[v]);
            }
            Ok(())
        }
        Command::Rank {
            path,
            targets,
            measure,
            eps,
            delta,
            seed,
            khops,
        } => {
            let g = load(&path)?;
            let mut rng = StdRng::seed_from_u64(seed);
            let targets = resolve_targets(&g, targets, &mut rng)?;
            let sets = [targets.clone()];
            let (values, label): (Vec<f64>, &str) = match measure {
                Measure::Betweenness => {
                    let dec = BcDecomposition::compute(&g);
                    let cfg = SaphyraBcConfig::new(eps, delta);
                    let est = dec.rank(&g, &sets, &cfg, &mut rng).remove(0);
                    eprintln!(
                        "samples {} (λ̂ {:.3}, VC {})",
                        est.stats.samples, est.stats.lambda_hat, est.stats.vc.vc_subset
                    );
                    (est.bc, "betweenness")
                }
                Measure::KPath => {
                    let est = rank_kpath(&g, &sets, khops, eps, delta, &mut rng).remove(0);
                    (est.kpc, "k-path")
                }
                Measure::Harmonic => {
                    let est = rank_harmonic(&g, &sets, eps, delta, &mut rng).remove(0);
                    (est.hc, "harmonic")
                }
            };
            let ranks = saphyra_stats::ranks_by_value(&values);
            let mut order: Vec<usize> = (0..targets.len()).collect();
            order.sort_by_key(|&i| ranks[i]);
            println!("{:<8} {:<10} {label}", "rank", "node");
            for &i in &order {
                println!("{:<8} {:<10} {:.8}", ranks[i], targets[i], values[i]);
            }
            Ok(())
        }
        Command::Gen {
            network,
            size,
            out,
            seed,
        } => {
            use saphyra_gen::datasets::{SimNetwork, SizeClass};
            let net: SimNetwork = network.parse()?;
            let size: SizeClass = size.parse()?;
            let g = net.build(size, seed);
            io::save_edge_list(&g, &out).map_err(|e| e.to_string())?;
            println!(
                "wrote {} ({} nodes, {} edges)",
                out,
                g.num_nodes(),
                g.num_edges()
            );
            Ok(())
        }
        Command::Serve {
            addr,
            workers,
            cache,
            max_connections,
            pipeline_depth,
            journal_max_bytes,
            state_dir,
            resnapshot_deltas,
            role,
            shards,
        } => {
            let cfg = saphyra_service::ServiceConfig {
                workers,
                cache_capacity: cache,
                max_connections,
                pipeline_depth,
                journal_max_bytes,
                state_dir: state_dir.map(std::path::PathBuf::from),
                resnapshot_deltas,
                role,
                shards,
                ..Default::default()
            };
            let handle = saphyra_service::serve(&addr, cfg)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let restored = handle.service().snapshots_loaded();
            if restored > 0 {
                println!("restored {restored} graph(s) from snapshots");
            }
            println!("listening on {}", handle.addr());
            handle.join();
            println!("shut down");
            Ok(())
        }
        Command::Snapshot(cmd) => run_snapshot(cmd),
        Command::Query {
            addr,
            method,
            path,
            body,
            repeat,
        } => {
            // All repeats ride one pooled persistent connection.
            let mut client = saphyra_service::Client::new(addr.as_str());
            for _ in 0..repeat {
                let resp = client
                    .request(method, &path, body.as_deref())
                    .map_err(|e| format!("cannot reach {addr}: {e}"))?;
                println!("{}", resp.body);
                if resp.status != 200 {
                    return Err(format!("service returned HTTP {}", resp.status));
                }
            }
            Ok(())
        }
    }
}

/// Offline snapshot operations — the same [`saphyra_service::persist`]
/// code paths `serve --state-dir` uses, runnable without a server.
fn run_snapshot(cmd: SnapshotCmd) -> Result<(), String> {
    use saphyra_service::persist;
    use std::path::Path;
    use std::time::Instant;
    match cmd {
        SnapshotCmd::Save { input, out, name } => {
            let g = load(&input)?;
            // Default the registry name to the snapshot's file stem, the
            // name `serve --state-dir` would restore it under.
            let stem = Path::new(&out)
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("cannot derive a graph name from {out:?}; pass --name"))?
                .to_string();
            let name = name.unwrap_or_else(|| stem.clone());
            // A snapshot only restores if its name is valid AND matches
            // its file stem — enforce both here, the same way the HTTP
            // load path does, instead of writing a file `serve
            // --state-dir` would silently skip.
            if !saphyra_service::persist::valid_graph_name(&name) {
                return Err(format!(
                    "snapshot save: invalid graph name {name:?} (want 1-64 chars of \
                     [A-Za-z0-9._-], no leading dot)"
                ));
            }
            if name != stem {
                return Err(format!(
                    "snapshot save: graph name {name:?} does not match the output file stem \
                     {stem:?} — `serve --state-dir` would skip this snapshot at boot; \
                     write it as {name}.snap or drop --name"
                ));
            }
            let t0 = Instant::now();
            let dec = saphyra::bc::BcDecomposition::compute(&g);
            let dt = t0.elapsed();
            persist::save_snapshot(Path::new(&out), &name, &g, &dec, 0)
                .map_err(|e| e.to_string())?;
            println!(
                "wrote {out} (graph {name:?}: {} nodes, {} edges, {} bicomps; decomposed in {dt:.1?})",
                g.num_nodes(),
                g.num_edges(),
                dec.bic.num_bicomps
            );
            Ok(())
        }
        SnapshotCmd::Load { path } => {
            let t0 = Instant::now();
            let snap = persist::load_snapshot(Path::new(&path)).map_err(|e| e.to_string())?;
            let dec = match snap.dec {
                Ok(dec) => dec,
                Err(reason) => {
                    // Same degradation as a `serve --state-dir` boot.
                    eprintln!("warning: decomposition unusable ({reason}); recomputing");
                    saphyra::bc::BcDecomposition::compute(&snap.graph)
                }
            };
            println!("graph            {}", snap.name);
            println!("nodes            {}", snap.graph.num_nodes());
            println!("edges            {}", snap.graph.num_edges());
            println!("bi-components    {}", dec.bic.num_bicomps);
            println!("gamma (Eq. 19)   {:.6}", dec.gamma);
            println!("loaded in        {:.1?}", t0.elapsed());
            Ok(())
        }
        SnapshotCmd::Verify { path } => {
            // Strict: a snapshot whose decomposition section is damaged
            // still *boots* (with recomputation), but it does not verify.
            // The report names the version the FILE was written with (not
            // this build's writer version) and the per-section byte
            // budget, so an operator can see at a glance where a
            // snapshot's bytes go.
            let info = persist::inspect_snapshot(Path::new(&path)).map_err(|e| e.to_string())?;
            if !info.dec_ok {
                return Err("decomposition section unusable: a boot would recompute".to_string());
            }
            println!(
                "ok: {path} (graph {:?}, container v{}, delta seq {})",
                info.name, info.version, info.delta_seq
            );
            println!("total bytes      {}", info.total_bytes);
            println!("graph section    {}", info.graph_bytes);
            println!(
                "warm section     {} ({} entries)",
                info.warm_bytes, info.warm_entries
            );
            println!("dec section      {}", info.dec_bytes);
            Ok(())
        }
        SnapshotCmd::Replay { dir } => {
            let dir = Path::new(&dir);
            // A journal-less service: replay must not append to the very
            // journal it is reading.
            let service = saphyra_service::Service::new(saphyra_service::ServiceConfig {
                workers: 1,
                ..Default::default()
            });
            let (restored, recomputed) = service.restore_from_dir(dir);
            if restored + recomputed == 0 {
                return Err(format!("no usable snapshots in {}", dir.display()));
            }
            // Journaled edge deltas first — exactly what a `serve
            // --state-dir` boot does — so the /rank records that follow
            // replay against the graphs they were recorded against.
            let patched = service.replay_patch_records(dir);
            if patched > 0 {
                println!("applied {patched} journaled patch delta(s)");
            }
            // Rotated generation first, then the current journal —
            // append order across the whole surviving history.
            let stats = persist::replay_journals(dir, &service)
                .map_err(|e| format!("cannot replay journal of {}: {e}", dir.display()))?;
            println!(
                "replayed {} of {} journal line(s) against {} snapshot graph(s); {} skipped, {} status mismatch(es)",
                stats.replayed,
                stats.lines,
                restored + recomputed,
                stats.skipped,
                stats.status_mismatches
            );
            if stats.status_mismatches > 0 {
                return Err(format!(
                    "{} replayed request(s) returned a different status than recorded",
                    stats.status_mismatches
                ));
            }
            Ok(())
        }
    }
}

fn resolve_targets(g: &Graph, spec: TargetSpec, rng: &mut StdRng) -> Result<Vec<NodeId>, String> {
    match spec {
        TargetSpec::List(ids) => {
            saphyra::params::check_targets(&ids, g.num_nodes())?;
            Ok(ids)
        }
        TargetSpec::Random(k) => {
            if k > g.num_nodes() {
                return Err(format!("--random {k} exceeds n = {}", g.num_nodes()));
            }
            let mut set = std::collections::BTreeSet::new();
            while set.len() < k {
                set.insert(rng.gen_range(0..g.num_nodes() as NodeId));
            }
            Ok(set.into_iter().collect())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: saphyra-cli <info|exact|rank|gen|serve|query> ... (see module docs / README)"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_info() {
        let c = parse_args(&sv(&["info", "g.txt"])).unwrap();
        assert_eq!(
            c,
            Command::Info {
                path: "g.txt".into()
            }
        );
    }

    #[test]
    fn parses_rank_with_flags() {
        let c = parse_args(&sv(&[
            "rank",
            "g.txt",
            "--targets",
            "1,2,3",
            "--measure",
            "harmonic",
            "--eps",
            "0.05",
            "--seed",
            "9",
        ]))
        .unwrap();
        match c {
            Command::Rank {
                targets: TargetSpec::List(ids),
                measure,
                eps,
                seed,
                ..
            } => {
                assert_eq!(ids, vec![1, 2, 3]);
                assert_eq!(measure, Measure::Harmonic);
                assert_eq!(eps, 0.05);
                assert_eq!(seed, 9);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_random_targets() {
        let c = parse_args(&sv(&["rank", "g.txt", "--random", "50"])).unwrap();
        assert!(matches!(
            c,
            Command::Rank {
                targets: TargetSpec::Random(50),
                ..
            }
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_args(&sv(&[])).is_err());
        assert!(parse_args(&sv(&["frobnicate"])).is_err());
        assert!(parse_args(&sv(&["rank", "g.txt"])).is_err()); // no targets
        assert!(parse_args(&sv(&["rank", "g.txt", "--targets", "1,x"])).is_err());
        assert!(parse_args(&sv(&[
            "rank",
            "g.txt",
            "--random",
            "5",
            "--measure",
            "pagerank"
        ]))
        .is_err());
        assert!(parse_args(&sv(&["gen", "flickr", "tiny"])).is_err()); // no out
    }

    #[test]
    fn rejects_out_of_domain_accuracy_params() {
        for (flag, bad) in [
            ("--eps", "0"),
            ("--eps", "1"),
            ("--eps", "NaN"),
            ("--eps", "inf"),
            ("--eps", "-0.5"),
            ("--delta", "0"),
            ("--delta", "1.5"),
            ("--delta", "NaN"),
            ("--khops", "1"),
            ("--khops", "0"),
        ] {
            let r = parse_args(&sv(&["rank", "g.txt", "--targets", "1", flag, bad]));
            assert!(r.is_err(), "{flag} {bad} accepted: {r:?}");
        }
        assert!(parse_args(&sv(&["rank", "g.txt", "--random", "0"])).is_err());
        assert!(parse_args(&sv(&["exact", "g.txt", "--threads", "0"])).is_err());
        // Omitting --threads keeps the auto default.
        assert!(parse_args(&sv(&["exact", "g.txt"])).is_ok());
        // Valid boundary-adjacent values still parse.
        assert!(parse_args(&sv(&[
            "rank",
            "g.txt",
            "--targets",
            "1",
            "--eps",
            "0.999",
            "--delta",
            "0.001"
        ]))
        .is_ok());
    }

    #[test]
    fn parses_serve_and_query() {
        let c = parse_args(&sv(&[
            "serve",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
            "9",
        ]))
        .unwrap();
        let defaults = saphyra_service::ServiceConfig::default();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                cache: 9,
                max_connections: defaults.max_connections,
                pipeline_depth: defaults.pipeline_depth,
                journal_max_bytes: None,
                state_dir: None,
                resnapshot_deltas: defaults.resnapshot_deltas,
                role: saphyra_service::Role::Standalone,
                shards: Vec::new(),
            }
        );
        let c = parse_args(&sv(&["serve", "127.0.0.1:0", "--state-dir", "/tmp/sd"])).unwrap();
        assert!(matches!(
            c,
            Command::Serve { state_dir: Some(d), .. } if d == "/tmp/sd"
        ));
        let c = parse_args(&sv(&[
            "serve",
            "127.0.0.1:0",
            "--max-connections",
            "77",
            "--pipeline-depth",
            "4",
            "--journal-max-bytes",
            "4096",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                max_connections: 77,
                pipeline_depth: 4,
                journal_max_bytes: Some(4096),
                ..
            }
        ));
        assert!(parse_args(&sv(&["serve", "127.0.0.1:0", "--workers", "0"])).is_err());
        assert!(parse_args(&sv(&["serve", "127.0.0.1:0", "--state-dir"])).is_err());
        assert!(parse_args(&sv(&["serve", "127.0.0.1:0", "--pipeline-depth", "0"])).is_err());
        assert!(parse_args(&sv(&["serve", "127.0.0.1:0", "--journal-max-bytes", "0"])).is_err());
        let c = parse_args(&sv(&["serve", "127.0.0.1:0", "--resnapshot-deltas", "4"])).unwrap();
        assert!(matches!(
            c,
            Command::Serve {
                resnapshot_deltas: 4,
                ..
            }
        ));
        assert!(parse_args(&sv(&["serve", "127.0.0.1:0", "--resnapshot-deltas", "0"])).is_err());

        // Sharded roles.
        let c = parse_args(&sv(&[
            "serve",
            "127.0.0.1:7000",
            "--role",
            "router",
            "--shards",
            "127.0.0.1:7001,127.0.0.1:7002",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Serve { role: saphyra_service::Role::Router, ref shards, .. }
                if shards == &["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()]
        ));
        // Bad role spellings; a shard is a plain standalone server.
        assert!(parse_args(&sv(&["serve", "127.0.0.1:0", "--role", "primary"])).is_err());
        assert!(parse_args(&sv(&["serve", "127.0.0.1:0", "--role", "shard"])).is_err());
        // A router must name shards; the list must be well-formed.
        assert!(parse_args(&sv(&["serve", "127.0.0.1:0", "--role", "router"])).is_err());
        assert!(parse_args(&sv(&[
            "serve",
            "127.0.0.1:7000",
            "--role",
            "router",
            "--shards",
            "127.0.0.1:7001,127.0.0.1:7001",
        ]))
        .is_err());
        // A router forwarding to itself would deadlock.
        assert!(parse_args(&sv(&[
            "serve",
            "127.0.0.1:7000",
            "--role",
            "router",
            "--shards",
            "127.0.0.1:7000",
        ]))
        .is_err());
        // Shards on non-router roles are rejected.
        assert!(parse_args(&sv(
            &["serve", "127.0.0.1:0", "--shards", "127.0.0.1:7001",]
        ))
        .is_err());

        let c = parse_args(&sv(&["query", "h:1", "health"])).unwrap();
        match c {
            Command::Query {
                method,
                path,
                body: None,
                ..
            } => {
                assert_eq!(method, "GET");
                assert_eq!(path, "/healthz");
            }
            other => panic!("wrong parse: {other:?}"),
        }

        let c = parse_args(&sv(&[
            "query",
            "h:1",
            "load",
            "--name",
            "g",
            "--gen",
            "flickr:tiny",
            "--seed",
            "5",
        ]))
        .unwrap();
        match c {
            Command::Query {
                method, path, body, ..
            } => {
                assert_eq!(method, "POST");
                assert_eq!(path, "/graphs");
                assert_eq!(
                    body.unwrap(),
                    r#"{"name":"g","network":"flickr","size":"tiny","seed":5}"#
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }

        let c = parse_args(&sv(&[
            "query",
            "h:1",
            "rank",
            "--graph",
            "g",
            "--targets",
            "1,2",
            "--eps",
            "0.1",
        ]))
        .unwrap();
        match c {
            Command::Query { path, body, .. } => {
                assert_eq!(path, "/rank");
                let body = body.unwrap();
                assert!(body.contains(r#""graph":"g""#), "{body}");
                assert!(body.contains(r#""targets":[1,2]"#), "{body}");
                assert!(body.contains(r#""eps":0.1"#), "{body}");
            }
            other => panic!("wrong parse: {other:?}"),
        }

        let c = parse_args(&sv(&[
            "query",
            "h:1",
            "rank",
            "--graph",
            "g",
            "--targets",
            "1",
            "--repeat",
            "3",
        ]))
        .unwrap();
        assert!(matches!(c, Command::Query { repeat: 3, .. }));
        assert!(parse_args(&sv(&[
            "query",
            "h:1",
            "rank",
            "--graph",
            "g",
            "--targets",
            "1",
            "--repeat",
            "0",
        ]))
        .is_err());

        // Same validation as the direct rank path.
        assert!(parse_args(&sv(&[
            "query",
            "h:1",
            "rank",
            "--graph",
            "g",
            "--targets",
            "1",
            "--eps",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&sv(&["query", "h:1", "load", "--name", "g"])).is_err());
        // Seeds above 2^53 cannot ride the JSON wire format exactly.
        assert!(parse_args(&sv(&[
            "query",
            "h:1",
            "rank",
            "--graph",
            "g",
            "--targets",
            "1",
            "--seed",
            "9007199254740993"
        ]))
        .is_err());
        assert!(parse_args(&sv(&[
            "query",
            "h:1",
            "load",
            "--name",
            "g",
            "--gen",
            "flickr:tiny",
            "--seed",
            "18446744073709551615"
        ]))
        .is_err());
        assert!(parse_args(&sv(&[
            "query",
            "h:1",
            "load",
            "--name",
            "g",
            "--gen",
            "bogus:tiny"
        ]))
        .is_err());
        assert!(parse_args(&sv(&["query", "h:1", "frobnicate"])).is_err());
    }

    #[test]
    fn parses_query_patch() {
        let c = parse_args(&sv(&[
            "query", "h:1", "patch", "g", "--insert", "1,2", "--insert", "3,4", "--delete", "0,5",
        ]))
        .unwrap();
        match c {
            Command::Query {
                method, path, body, ..
            } => {
                assert_eq!(method, "PATCH");
                assert_eq!(path, "/graphs/g");
                assert_eq!(
                    body.unwrap(),
                    r#"{"insert":[[1,2],[3,4]],"delete":[[0,5]]}"#
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Insert-only and delete-only bodies omit the empty list.
        let c = parse_args(&sv(&["query", "h:1", "patch", "g", "--delete", "7,9"])).unwrap();
        match c {
            Command::Query { body, .. } => assert_eq!(body.unwrap(), r#"{"delete":[[7,9]]}"#),
            other => panic!("wrong parse: {other:?}"),
        }
        // Garbage fails client-side, before anything goes on the wire.
        for args in [
            vec!["query", "h:1", "patch"],                             // no name
            vec!["query", "h:1", "patch", "g"],                        // empty delta
            vec!["query", "h:1", "patch", "g", "--insert"],            // no value
            vec!["query", "h:1", "patch", "g", "--insert", "1"],       // not a pair
            vec!["query", "h:1", "patch", "g", "--insert", "1,2,3"],   // too many
            vec!["query", "h:1", "patch", "g", "--insert", "a,b"],     // non-numeric
            vec!["query", "h:1", "patch", "g", "--insert", "1.5,2"],   // fractional
            vec!["query", "h:1", "patch", "g", "--insert", "4,4"],     // self-loop
            vec!["query", "h:1", "patch", "g", "--frobnicate", "1,2"], // unknown flag
            vec!["query", "h:1", "patch", "a/b", "--insert", "1,2"],   // path smuggling
            vec!["query", "h:1", "patch", ".g", "--insert", "1,2"],    // invalid name
        ] {
            assert!(parse_args(&sv(&args)).is_err(), "{args:?} accepted");
        }
    }

    #[test]
    fn end_to_end_serve_query_round_trip() {
        // Start the service in-process on an ephemeral port, then drive it
        // exclusively through the `query` command path.
        let handle = saphyra_service::serve(
            "127.0.0.1:0",
            saphyra_service::ServiceConfig {
                workers: 2,
                cache_capacity: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = handle.addr().to_string();

        let q = |args: &[&str]| -> Result<(), String> {
            let mut argv = vec!["query", addr.as_str()];
            argv.extend_from_slice(args);
            run(parse_args(&sv(&argv))?)
        };
        q(&["health"]).unwrap();
        q(&["load", "--name", "g", "--gen", "flickr:tiny", "--seed", "5"]).unwrap();
        q(&["graphs"]).unwrap();
        q(&[
            "rank",
            "--graph",
            "g",
            "--targets",
            "1,2,3",
            "--eps",
            "0.2",
            "--delta",
            "0.1",
            "--repeat",
            "3",
        ])
        .unwrap();
        // Patch the loaded graph through the same client path, then rank
        // again on the patched graph.
        q(&["patch", "g", "--insert", "0,7", "--delete", "0,7"]).unwrap_err(); // conflict: 400
        q(&["patch", "g", "--insert", "0,7", "--insert", "3,11"]).unwrap();
        q(&["rank", "--graph", "g", "--targets", "1,2,3", "--eps", "0.2"]).unwrap();
        // Unknown graph surfaces as a non-200 error (patch and rank alike).
        assert!(q(&["rank", "--graph", "nope", "--targets", "1"]).is_err());
        assert!(q(&["patch", "nope", "--insert", "1,2"]).is_err());
        q(&["shutdown"]).unwrap();
        handle.join();
    }

    #[test]
    fn parses_snapshot_actions() {
        let c = parse_args(&sv(&["snapshot", "save", "g.txt", "g.snap", "--name", "g"])).unwrap();
        assert_eq!(
            c,
            Command::Snapshot(SnapshotCmd::Save {
                input: "g.txt".into(),
                out: "g.snap".into(),
                name: Some("g".into())
            })
        );
        assert_eq!(
            parse_args(&sv(&["snapshot", "verify", "g.snap"])).unwrap(),
            Command::Snapshot(SnapshotCmd::Verify {
                path: "g.snap".into()
            })
        );
        assert_eq!(
            parse_args(&sv(&["snapshot", "replay", "state"])).unwrap(),
            Command::Snapshot(SnapshotCmd::Replay {
                dir: "state".into()
            })
        );
        assert!(parse_args(&sv(&["snapshot"])).is_err());
        assert!(parse_args(&sv(&["snapshot", "frobnicate"])).is_err());
        assert!(parse_args(&sv(&["snapshot", "save", "g.txt"])).is_err());
    }

    #[test]
    fn snapshot_save_load_verify_round_trip() {
        let dir = std::env::temp_dir().join(format!("saphyra_cli_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("grid.txt");
        saphyra_graph::io::save_edge_list(&saphyra_graph::fixtures::grid_graph(4, 4), &edges)
            .unwrap();
        let snap = dir.join("grid.snap");
        let s = |args: &[&str]| run(parse_args(&sv(args)).unwrap());
        s(&[
            "snapshot",
            "save",
            edges.to_str().unwrap(),
            snap.to_str().unwrap(),
        ])
        .unwrap();
        s(&["snapshot", "verify", snap.to_str().unwrap()]).unwrap();
        s(&["snapshot", "load", snap.to_str().unwrap()]).unwrap();
        // Names that could never restore are rejected up front: a
        // dot-prefixed stem (the boot scan skips dotfiles) and a --name
        // that disagrees with the output file stem.
        let hidden = dir.join(".hidden.snap");
        assert!(s(&[
            "snapshot",
            "save",
            edges.to_str().unwrap(),
            hidden.to_str().unwrap()
        ])
        .is_err());
        assert!(!hidden.exists());
        assert!(s(&[
            "snapshot",
            "save",
            edges.to_str().unwrap(),
            snap.to_str().unwrap(),
            "--name",
            "other"
        ])
        .is_err());
        // A corrupted file fails verify with a checksum error.
        let mut bytes = std::fs::read(&snap).unwrap();
        bytes[40] ^= 0xFF;
        std::fs::write(&snap, bytes).unwrap();
        assert!(s(&["snapshot", "verify", snap.to_str().unwrap()]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_to_end_rank_on_temp_graph() {
        let g = saphyra_graph::fixtures::grid_graph(5, 5);
        let dir = std::env::temp_dir().join("saphyra_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.txt");
        saphyra_graph::io::save_edge_list(&g, &path).unwrap();
        let cmd = parse_args(&sv(&[
            "rank",
            path.to_str().unwrap(),
            "--targets",
            "6,12,18",
            "--eps",
            "0.1",
        ]))
        .unwrap();
        run(cmd).unwrap();
        let cmd = parse_args(&sv(&["info", path.to_str().unwrap()])).unwrap();
        run(cmd).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
