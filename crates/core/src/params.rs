//! Request-parameter validation shared by every user-facing entry point
//! (CLI flags, service request bodies).
//!
//! The estimators themselves `assert!` on malformed accuracy parameters —
//! `SaphyraBcConfig::new` panics on `eps ∉ (0,1)`, the sample schedules
//! divide by `eps²` and `ln(1/δ)` — so front ends must reject garbage with
//! a clear message *before* any work starts. Centralizing the checks here
//! keeps the CLI and the HTTP service byte-for-byte consistent about what
//! they accept.

use saphyra_graph::NodeId;

/// Checks an additive error target: finite and strictly inside `(0, 1)`.
pub fn check_eps(eps: f64) -> Result<(), String> {
    if !eps.is_finite() || eps <= 0.0 || eps >= 1.0 {
        return Err(format!("eps must be a finite value in (0, 1), got {eps}"));
    }
    Ok(())
}

/// Checks a failure probability: finite and strictly inside `(0, 1)`.
pub fn check_delta(delta: f64) -> Result<(), String> {
    if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
        return Err(format!(
            "delta must be a finite value in (0, 1), got {delta}"
        ));
    }
    Ok(())
}

/// Checks a k-path hop count: the approximate subspace needs `k ≥ 2`.
pub fn check_khops(khops: usize) -> Result<(), String> {
    if khops < 2 {
        return Err(format!("khops must be >= 2, got {khops}"));
    }
    Ok(())
}

/// Checks an explicit worker/thread count (0 would spin up nothing and
/// deadlock a pool; "auto" must be expressed by omitting the flag).
pub fn check_threads(threads: usize) -> Result<(), String> {
    if threads == 0 {
        return Err("threads must be >= 1 (omit the flag for auto)".to_string());
    }
    Ok(())
}

/// Checks a target list: non-empty, ids in `0..n`, no duplicates (the
/// rankers index per-target accumulators by id and assert on repeats).
pub fn check_targets(targets: &[NodeId], num_nodes: usize) -> Result<(), String> {
    if targets.is_empty() {
        return Err("target set must not be empty".to_string());
    }
    let mut seen = vec![false; num_nodes];
    for &v in targets {
        if (v as usize) >= num_nodes {
            return Err(format!("target {v} out of range (n = {num_nodes})"));
        }
        if seen[v as usize] {
            return Err(format!("duplicate target {v}"));
        }
        seen[v as usize] = true;
    }
    Ok(())
}

/// Checks an edge delta for `PATCH /graphs/<name>`: at least one change,
/// no self-loops, endpoints in `0..n` (deltas never grow the node set).
/// Mirrors the graph layer's own validation
/// ([`saphyra_graph::EdgeDelta::normalized`]) so front ends reject garbage
/// with a 400 before acquiring any publication lock.
pub fn check_edge_delta(
    insert: &[(NodeId, NodeId)],
    delete: &[(NodeId, NodeId)],
    num_nodes: usize,
) -> Result<(), String> {
    if insert.is_empty() && delete.is_empty() {
        return Err("empty delta: no edges to insert or delete".to_string());
    }
    for (kind, list) in [("insert", insert), ("delete", delete)] {
        for &(u, v) in list {
            if u == v {
                return Err(format!("{kind} edge ({u}, {v}) is a self-loop"));
            }
            if let Some(&x) = [u, v].iter().find(|&&x| x as usize >= num_nodes) {
                return Err(format!(
                    "{kind} endpoint {x} out of range (n = {num_nodes})"
                ));
            }
        }
    }
    Ok(())
}

/// Checks a shard address list for a router (`--shards`): non-empty, no
/// duplicates, and never the router's own listen address (a router
/// forwarding to itself would tie up its own workers until they run out).
///
/// Addresses are compared textually after trimming — `host:port`
/// canonicalization (DNS, `0.0.0.0` vs `127.0.0.1`) is out of scope here;
/// the check catches the configuration mistakes that are unambiguous from
/// the strings alone.
pub fn check_shard_addrs(addrs: &[String], self_addr: &str) -> Result<(), String> {
    if addrs.is_empty() {
        return Err("shard list must not be empty (pass --shards host:port,...)".to_string());
    }
    let self_addr = self_addr.trim();
    for (i, a) in addrs.iter().enumerate() {
        let a = a.trim();
        if a.is_empty() {
            return Err("shard address must not be empty".to_string());
        }
        if !a.contains(':') {
            return Err(format!("shard address '{a}' must be host:port"));
        }
        if !self_addr.is_empty() && a == self_addr {
            return Err(format!("shard address '{a}' is the router's own address"));
        }
        if addrs[..i].iter().any(|b| b.trim() == a) {
            return Err(format!("duplicate shard address '{a}'"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_delta_domains() {
        for good in [1e-9, 0.01, 0.5, 0.999] {
            assert!(check_eps(good).is_ok());
            assert!(check_delta(good).is_ok());
        }
        for bad in [0.0, 1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            assert!(check_eps(bad).is_err(), "eps {bad} accepted");
            assert!(check_delta(bad).is_err(), "delta {bad} accepted");
        }
    }

    #[test]
    fn khops_and_threads() {
        assert!(check_khops(1).is_err());
        assert!(check_khops(2).is_ok());
        assert!(check_threads(0).is_err());
        assert!(check_threads(1).is_ok());
    }

    #[test]
    fn target_lists() {
        assert!(check_targets(&[], 5).is_err());
        assert!(check_targets(&[0, 4], 5).is_ok());
        assert!(check_targets(&[5], 5).is_err());
        assert!(check_targets(&[1, 1], 5).is_err());
    }

    #[test]
    fn edge_deltas() {
        assert!(check_edge_delta(&[], &[], 5).is_err(), "empty delta");
        assert!(check_edge_delta(&[(0, 1)], &[], 5).is_ok());
        assert!(check_edge_delta(&[], &[(4, 0)], 5).is_ok());
        assert!(check_edge_delta(&[(2, 2)], &[], 5).is_err(), "self-loop");
        assert!(check_edge_delta(&[], &[(3, 3)], 5).is_err(), "self-loop");
        assert!(check_edge_delta(&[(0, 5)], &[], 5).is_err(), "out of range");
        assert!(check_edge_delta(&[], &[(9, 0)], 5).is_err(), "out of range");
    }

    fn addrs(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn shard_addr_lists() {
        let me = "127.0.0.1:7000";
        assert!(check_shard_addrs(&addrs(&[]), me).is_err(), "empty list");
        assert!(check_shard_addrs(&addrs(&["127.0.0.1:7001", "127.0.0.1:7002"]), me).is_ok());
        // Duplicates, including whitespace-insensitive ones.
        assert!(check_shard_addrs(&addrs(&["h:1", "h:1"]), me).is_err());
        assert!(check_shard_addrs(&addrs(&["h:1", " h:1 "]), me).is_err());
        // Self-address.
        assert!(check_shard_addrs(&addrs(&["127.0.0.1:7000"]), me).is_err());
        // Malformed entries.
        assert!(check_shard_addrs(&addrs(&[""]), me).is_err());
        assert!(check_shard_addrs(&addrs(&["noport"]), me).is_err());
        // Unknown self address skips only the self check.
        assert!(check_shard_addrs(&addrs(&["h:1"]), "").is_ok());
    }
}
