//! # saphyra_service
//!
//! A long-lived HTTP/1.1 JSON ranking service over the SaPHyRa engine —
//! std-only (an `epoll`-driven reactor plus a request-bounded compute
//! pool; the `epoll`/`poll(2)` bindings in [`reactor`] are direct
//! `extern "C"` declarations against the libc std already links, so
//! there are no external dependencies, matching the offline build
//! environment).
//!
//! ## Endpoints
//!
//! | Method | Path        | Body |
//! |--------|-------------|------|
//! | GET    | `/healthz`  | — (status, graph count, request/cache counters) |
//! | GET    | `/graphs`   | — (loaded graphs, name-sorted) |
//! | POST   | `/graphs`   | `{"name", "path"}` or `{"name", "network", "size"?, "seed"?}` |
//! | PATCH  | `/graphs/<name>` | `{"insert"?, "delete"?}` edge-pair arrays |
//! | POST   | `/rank`     | `{"graph", "targets", "measure"?, "eps"?, "delta"?, "seed"?, "khops"?}` |
//! | POST   | `/shutdown` | — (graceful stop) |
//!
//! ## Roles
//!
//! [`ServiceConfig::role`] selects the node's place in a sharded
//! deployment. `Standalone` (the default) owns graphs and ranks them
//! in-process; a shard is a plain standalone server. `Router` owns no
//! graphs: it forwards `POST /graphs`, `PATCH /graphs/<name>` and
//! `POST /rank` to shard `crc32(name) % shards` and lists `GET /graphs`
//! from every shard ([`shard::ShardPool`]). The placement is a pure
//! function of the name, so any router over the same shard list reaches
//! every graph, and `/rank` bytes through a router equal a standalone
//! server's.
//!
//! Loading a graph builds its [`saphyra::bc::BcDecomposition`] — bicomps,
//! block-cut tree, out-reach/ISP tables, bcₐ, γ, VC-bound precomputation —
//! **once**; the entry is then shared `Arc`-style across every worker.
//! Completed rankings are cached (LRU) keyed by the full request tuple
//! `(graph, measure, targets, eps, delta, seed, khops)`, so repeated
//! queries are O(1) and replay byte-identical bodies. Cold requests that
//! differ **only in their target set** coalesce by group commit: a request
//! whose class is idle computes at once, and those arriving while its pass
//! runs share the next pass, one pass over the sample blocks scoring every
//! member's targets, with each member's body bit-identical to a
//! quiet-server run. The class table that schedules this also collapses
//! identical cold requests (single-flight): a request whose target set is
//! already running or queued in its class waits for that member's body.
//! The cache and the class table are the only shared `/rank` state. The
//! `X-Saphyra-Cache` header reports `hit`, `miss`, `shared`, or `batched`;
//! `/healthz` counts `batched` members and total `sample_passes`.
//!
//! ## Connections
//!
//! Connections are persistent (HTTP/1.1 keep-alive) and owned by a
//! single reactor thread; **workers bound requests, not connections**,
//! so parked idle clients cost the compute pool nothing and
//! [`ServiceConfig::workers`] sizes to CPU. The first stage of `/rank`
//! runs on the reactor: a cached reply to a body of at most 16 KiB on a
//! node without shards is answered there, with no worker round trip;
//! workers compute, or forward, everything else. Requests pipeline up to
//! [`ServiceConfig::pipeline_depth`] per connection with responses
//! always in request order; [`http::Client`] keeps one pooled
//! connection (and [`http::Client::pipeline`] batches requests over
//! it), which keeps the TCP setup cost off the cache-hit path. The
//! server honors `Connection: close`, closes connections idle past
//! [`ServiceConfig::idle_timeout`] (via a deadline heap — no polling),
//! recycles a connection after
//! [`ServiceConfig::max_requests_per_conn`] requests, and sheds
//! connections beyond [`ServiceConfig::max_connections`].
//!
//! ## Persistence
//!
//! With [`ServiceConfig::state_dir`] set, the registry survives restarts:
//! every graph load writes a versioned, checksummed binary snapshot
//! (graph + full decomposition, written atomically via temp + fsync +
//! rename), boots restore all snapshots with **zero** recomputation
//! (`/healthz` reports `decompositions` / `snapshots_loaded`), and every
//! `/rank` request appends one JSON line to an append-only journal that
//! [`persist::replay_journal`] can re-issue. Damaged snapshots degrade
//! (recompute or skip, with a warning) — they never fail a boot. See
//! [`persist`] for the format.
//!
//! ## Determinism
//!
//! For a fixed request, the `/rank` response body is byte-identical
//! regardless of worker count, rayon thread count, or cache state — the
//! PR 1 engine-level determinism contract extended across the wire, and
//! across restarts: a snapshot-restored decomposition is bit-identical
//! to the one that was saved. See [`server`] for the mechanics.
//!
//! ## Quick start
//!
//! ```
//! use saphyra_service::http::Client;
//! use saphyra_service::registry::GraphEntry;
//! use saphyra_service::server::{serve_with, Service, ServiceConfig};
//! use std::sync::Arc;
//!
//! let cfg = ServiceConfig { workers: 2, cache_capacity: 16, ..Default::default() };
//! let service = Arc::new(Service::new(cfg));
//! service.registry().insert(GraphEntry::build(
//!     "grid",
//!     saphyra_graph::fixtures::grid_graph(4, 4),
//! ));
//! let handle = serve_with("127.0.0.1:0", service).unwrap();
//! let mut client = Client::new(handle.addr().to_string());
//! // Both requests ride the same pooled TCP connection.
//! assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
//! assert_eq!(client.request("GET", "/graphs", None).unwrap().status, 200);
//! drop(client);
//! handle.shutdown_and_join();
//! ```

pub mod cache;
pub mod http;
pub mod json;
pub mod persist;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod shard;
pub mod sync;

pub use http::{request, Client, ClientResponse};
pub use registry::{GraphEntry, Registry};
pub use server::{serve, serve_with, Role, ServerHandle, Service, ServiceConfig};
