//! The router side of a sharded deployment: a [`ShardPool`] of shard
//! addresses, one pooled [`Client`] each, and [`ShardPool::route`], which
//! forwards every graph-scoped request to the shard that holds the graph.
//!
//! ## Routing
//!
//! A graph named `n` lives whole on shard `crc32(n) % shards`. The index is
//! a pure function of the name and the `--shards` list, so the router keeps
//! no per-graph state: a second router, or a restarted one, over the same
//! list reaches every graph the shards hold. `POST /graphs`,
//! `PATCH /graphs/<n>` and `POST /rank` are forwarded verbatim; `GET
//! /graphs` asks every shard and lists each graph from the shard its name
//! hashes to.
//!
//! A shard is a plain standalone server. It samples every ranking
//! in-process, and the router relays its status, body and
//! `X-Saphyra-Cache` header, so `/rank` bytes through a router equal a
//! standalone server's.
//!
//! ## Failure
//!
//! An unreachable shard turns the request into a JSON 503 that names the
//! shard; nothing waits past the client's timeout. An invalid `--shards`
//! list (empty or duplicated) answers 400 on every routed request instead
//! of hashing into it.

use std::sync::Mutex;

use saphyra_graph::wire::crc32;

use crate::http::{Client, ClientResponse, Request, Response};
use crate::json::Json;
use crate::server::{error_response, json_body};
use crate::sync::LockExt;

/// The router's view of its shard backends: one pooled, keep-alive
/// [`Client`] per shard, guarded by a mutex, so concurrent requests to the
/// same shard serialize on its connection.
#[derive(Debug)]
pub struct ShardPool {
    addrs: Vec<String>,
    clients: Vec<Mutex<Client>>,
    /// Why `addrs` cannot be routed to ([`saphyra::params::check_shard_addrs`]),
    /// checked once here so no request hashes into an empty pool.
    invalid: Option<String>,
}

impl ShardPool {
    /// A pool over `addrs` (no connections are opened until first use).
    pub fn new(addrs: Vec<String>) -> Self {
        let invalid = saphyra::params::check_shard_addrs(&addrs, "").err();
        let clients = addrs.iter().map(|a| Mutex::new(Client::new(a))).collect();
        ShardPool {
            addrs,
            clients,
            invalid,
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the pool has no shards.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Answers the requests a router forwards: `GET /graphs`, `POST
    /// /graphs`, `POST /rank` and `PATCH /graphs/<name>`. `None` for every
    /// other request, which the router serves itself.
    pub fn route(&self, req: &Request) -> Option<Response> {
        let name = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/graphs") => return Some(self.list_graphs()),
            ("POST", "/graphs") => body_field(req, "name"),
            ("POST", "/rank") => body_field(req, "graph"),
            ("PATCH", path) => Ok(path
                .strip_prefix("/graphs/")
                .filter(|n| !n.is_empty())?
                .to_string()),
            _ => return None,
        };
        Some(match name {
            Ok(name) => self.forward(&name, req),
            Err(resp) => resp,
        })
    }

    /// Forwards `req` to shard `crc32(name) % len` and relays its status,
    /// body and cache header. A load reply also names the shard.
    fn forward(&self, name: &str, req: &Request) -> Response {
        if let Some(resp) = self.invalid_response() {
            return resp;
        }
        let i = crc32(name.as_bytes()) as usize % self.len();
        let body = match req.body_str() {
            Ok(body) => body,
            Err(e) => return error_response(400, e),
        };
        let (addr, r) = match self.request(i, &req.method, &req.path, Some(body)) {
            Ok(sent) => sent,
            Err(resp) => return resp,
        };
        if req.path == "/graphs" && r.status == 200 {
            if let Ok(Json::Obj(mut fields)) = Json::parse(&r.body) {
                fields.push(("shard".to_string(), Json::from(addr)));
                return Response::json(200, Json::Obj(fields).to_string());
            }
        }
        let cache = r.header("X-Saphyra-Cache").map(str::to_string);
        let resp = Response::json(r.status, r.body);
        match cache {
            Some(cache) => resp.with_header("X-Saphyra-Cache", &cache),
            None => resp,
        }
    }

    /// The router's `GET /graphs`: every shard's listing, keeping each
    /// graph from the shard its name hashes to, annotated `"shard": addr`
    /// and sorted by name. An unreachable shard fails the listing with
    /// 503 — the view would otherwise silently lie.
    fn list_graphs(&self) -> Response {
        if let Some(resp) = self.invalid_response() {
            return resp;
        }
        let mut graphs: Vec<(String, Json)> = Vec::new();
        for i in 0..self.len() {
            let (addr, r) = match self.request(i, "GET", "/graphs", None) {
                Ok(sent) => sent,
                Err(resp) => return resp,
            };
            let listing = Json::parse(&r.body).ok();
            let held = listing.as_ref().and_then(|j| j.get("graphs")?.as_arr());
            let Some(held) = held.filter(|_| r.status == 200) else {
                let why = format!("shard {addr}: no graph listing (HTTP {})", r.status);
                return error_response(503, why);
            };
            for g in held {
                let (Some(name), Json::Obj(fields)) = (g.get("name").and_then(Json::as_str), g)
                else {
                    continue;
                };
                if crc32(name.as_bytes()) as usize % self.len() == i {
                    let mut fields = fields.clone();
                    fields.push(("shard".to_string(), Json::from(addr)));
                    graphs.push((name.to_string(), Json::Obj(fields)));
                }
            }
        }
        graphs.sort_by(|a, b| a.0.cmp(&b.0));
        let graphs = graphs.into_iter().map(|(_, g)| g).collect();
        let body = Json::Obj(vec![("graphs".to_string(), Json::Arr(graphs))]);
        Response::json(200, body.to_string())
    }

    /// The 400 every routed request gets when the shard list is invalid.
    fn invalid_response(&self) -> Option<Response> {
        let why = self.invalid.as_ref()?;
        Some(error_response(
            400,
            format!("shard configuration invalid: {why}"),
        ))
    }

    /// Sends one JSON request to shard `i` over its pooled connection and
    /// returns the shard's address with its reply. A transport failure is
    /// a JSON 503 that names the shard.
    fn request(
        &self,
        i: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(&str, ClientResponse), Response> {
        let addr = self.addrs[i].as_str();
        match self.clients[i].lock_ok().request(method, path, body) {
            Ok(r) => Ok((addr, r)),
            Err(e) => Err(error_response(503, format!("shard {addr}: {e}"))),
        }
    }
}

/// The string field `field` of a JSON request body: the graph name a
/// router hashes.
fn body_field(req: &Request, field: &str) -> Result<String, Response> {
    let body = json_body(req).map_err(|e| error_response(400, e))?;
    match body.get(field).and_then(Json::as_str) {
        Some(name) => Ok(name.to_string()),
        None => Err(error_response(
            400,
            format!("missing required string field {field:?}"),
        )),
    }
}
