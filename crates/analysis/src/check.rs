//! The independent certificate checker.
//!
//! This module is the small, auditable end of the `turnprove` trust
//! boundary: it validates a [`Certificate`] against its [`GraphSpec`]
//! using nothing but set membership and single-pass scans — no graph
//! search, no routing logic, no dependency on the prover
//! ([`crate::prove`]) whatsoever. CI trusts *this* code plus the
//! mechanical extraction; the prover can be arbitrarily clever (or
//! arbitrarily wrong) and a bad proof still cannot get through.
//!
//! What is checked:
//!
//! 1. **Spec well-formedness** — channel endpoints and route targets in
//!    range, route tables fully sized.
//! 2. **Route/dependency consistency** — every move the routing relation
//!    offers from a channel state appears in `deps`, so the deadlock
//!    verdict covers every move real traffic can make.
//! 3. **Acyclicity proofs** — the numbering has one entry per channel and
//!    every dependency edge strictly increases it.
//! 4. **Cycle witnesses** — the cycle is nonempty and every consecutive
//!    pair (wrapping around) is a real dependency edge.
//! 5. **Connectivity certificates** — every ordered pair is either
//!    certified or claimed unreachable, exactly once; every certified path
//!    starts at an injection-legal channel at `src`, chains contiguously
//!    through route-legal moves, ends in `dst`, and is no longer than the
//!    channel count (so it cannot smuggle a loop).
//!
//! [`progress`] validates the separate [`Progress`] claim over the same
//! spec, in one scan of every destination's route table:
//!
//! 6. **Reachability** — every injection state is ranked, and every
//!    offered move from a ranked state that does not deliver reaches a
//!    ranked state. The ranked states therefore include every state a
//!    packet can reach; extra ones can only add false dead ends.
//! 7. **Progress** — under `Bounded`, every such move strictly lowers the
//!    rank, so no walk repeats a state. An `Unbounded` lasso must start
//!    at an injection state, take only offered, undelivering moves, and
//!    end on a state it visited before.
//! 8. **Dead ends** — `dead_ends` is exactly the ranked states short of
//!    their destination that offer nothing.
//!
//! The misroute bound is reported, not checked.

use crate::certificate::{Certificate, GraphSpec, Progress, ProgressVerdict, Verdict};
use std::collections::{HashMap, HashSet};

/// Validate `cert` against `spec`.
///
/// # Errors
///
/// Returns a description of the first defect found — in the spec, the
/// proof object, or the connectivity coverage.
pub fn check(spec: &GraphSpec, cert: &Certificate) -> Result<(), String> {
    check_verdict(spec, &cert.verdict)?;
    check_connectivity(spec, cert)
}

/// Validate the deadlock half of a certificate, `verdict`, against `spec`
/// (checks 1–4): what a channel numbering of the paper's proofs needs.
///
/// # Errors
///
/// Returns a description of the first defect found — in the spec or the
/// proof object.
pub fn check_verdict(spec: &GraphSpec, verdict: &Verdict) -> Result<(), String> {
    check_spec(spec)?;
    let deps: HashSet<(u32, u32)> = spec.deps.iter().copied().collect();
    check_routes_covered_by_deps(spec, &deps)?;
    match verdict {
        Verdict::Acyclic { numbering } => check_numbering(spec, numbering),
        Verdict::Cyclic { cycle } => check_cycle(spec, &deps, cycle),
    }
}

/// Validate the progress claim `p` against `spec`.
///
/// # Errors
///
/// Returns a description of the first defect found — in the spec, the
/// ranks, the lasso or the dead-end list.
pub fn progress(spec: &GraphSpec, p: &Progress) -> Result<(), String> {
    check_spec(spec)?;
    let n = spec.num_nodes as usize;
    if p.rank.len() != n {
        return Err(format!(
            "rank has {} destinations, expected {n}",
            p.rank.len()
        ));
    }
    let bounded = p.verdict == ProgressVerdict::Bounded;
    let mut dead_ends = p.dead_ends.iter();
    for (dest, (table, rank)) in spec.routes.iter().zip(&p.rank).enumerate() {
        if rank.len() != table.len() {
            return Err(format!("rank[{dest}] has {} states", rank.len()));
        }
        if let Some(src) = (0..n).find(|&s| s != dest && rank[s] == u32::MAX) {
            return Err(format!("injection at {src} toward {dest} is not ranked"));
        }
        for (s, outs) in table
            .iter()
            .enumerate()
            .filter(|&(s, _)| rank[s] != u32::MAX)
        {
            let undelivered = spec.node_of(s) != dest;
            if outs.is_empty() && undelivered && dead_ends.next() != Some(&(dest as u32, s as u32))
            {
                return Err(format!(
                    "state {s} toward {dest} offers nothing: dead end not listed"
                ));
            }
            for &c in outs
                .iter()
                .filter(|&&c| spec.channels[c as usize].dst as usize != dest)
            {
                let t = spec.channel_state(c);
                if rank[t] == u32::MAX {
                    return Err(format!(
                        "state {t} toward {dest}, offered from {s}, is not ranked"
                    ));
                }
                if bounded && rank[t] >= rank[s] {
                    return Err(format!(
                        "move {s} -> {t} toward {dest} does not lower the rank ({} >= {})",
                        rank[t], rank[s]
                    ));
                }
            }
        }
    }
    if let Some((dest, s)) = dead_ends.next() {
        return Err(format!("claimed dead end {s} toward {dest} is not one"));
    }
    match &p.verdict {
        ProgressVerdict::Bounded => Ok(()),
        ProgressVerdict::Unbounded { dest, lasso } => check_lasso(spec, *dest, lasso),
    }
}

/// A lasso: from an injection state, offered undelivering moves only,
/// ending on a state visited earlier.
fn check_lasso(spec: &GraphSpec, dest: u32, lasso: &[u32]) -> Result<(), String> {
    let (Some(&first), Some((&last, before))) = (lasso.first(), lasso.split_last()) else {
        return Err("empty lasso".into());
    };
    if dest >= spec.num_nodes || first >= spec.num_nodes || first == dest {
        return Err(format!(
            "lasso toward {dest} starts at {first}, no injection state"
        ));
    }
    for step in lasso.windows(2) {
        let c = step[1].wrapping_sub(spec.num_nodes);
        let offered = spec.routes[dest as usize][step[0] as usize].contains(&c);
        if step[1] < spec.num_nodes || !offered || spec.channels[c as usize].dst == dest {
            return Err(format!(
                "lasso step {} -> {} toward {dest} is no offered move",
                step[0], step[1]
            ));
        }
    }
    if !before.contains(&last) {
        return Err(format!("lasso toward {dest} does not revisit {last}"));
    }
    Ok(())
}

/// Structural sanity of the spec itself.
fn check_spec(spec: &GraphSpec) -> Result<(), String> {
    let n = spec.num_nodes;
    let c = spec.channels.len() as u32;
    for (i, ch) in spec.channels.iter().enumerate() {
        if ch.src >= n || ch.dst >= n {
            return Err(format!("channel {i} endpoint out of range"));
        }
    }
    if spec.routes.len() != n as usize {
        return Err(format!(
            "routes has {} destinations, expected {n}",
            spec.routes.len()
        ));
    }
    for (dest, table) in spec.routes.iter().enumerate() {
        if table.len() != spec.num_states() {
            return Err(format!(
                "routes[{dest}] has {} states, expected {}",
                table.len(),
                spec.num_states()
            ));
        }
        for outs in table {
            if let Some(&bad) = outs.iter().find(|&&o| o >= c) {
                return Err(format!("routes[{dest}] offers nonexistent channel {bad}"));
            }
        }
    }
    for &(a, b) in &spec.deps {
        if a >= c || b >= c {
            return Err(format!("dependency edge ({a}, {b}) out of range"));
        }
    }
    Ok(())
}

/// Every routing move from a channel state must be a dependency edge —
/// otherwise the deadlock verdict would not cover real traffic.
pub(crate) fn check_routes_covered_by_deps(
    spec: &GraphSpec,
    deps: &HashSet<(u32, u32)>,
) -> Result<(), String> {
    for (dest, table) in spec.routes.iter().enumerate() {
        for (held, outs) in table.iter().enumerate().skip(spec.num_nodes as usize) {
            let held = (held - spec.num_nodes as usize) as u32;
            for &next in outs {
                if !deps.contains(&(held, next)) {
                    return Err(format!(
                        "route to {dest} moves {held} -> {next} but deps has no such edge"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// An acyclicity proof: one number per channel, strictly increasing along
/// every dependency edge.
fn check_numbering(spec: &GraphSpec, numbering: &[u64]) -> Result<(), String> {
    if numbering.len() != spec.channels.len() {
        return Err(format!(
            "numbering has {} entries for {} channels",
            numbering.len(),
            spec.channels.len()
        ));
    }
    for &(a, b) in &spec.deps {
        if numbering[a as usize] >= numbering[b as usize] {
            return Err(format!(
                "edge ({a}, {b}) does not increase the numbering ({} >= {})",
                numbering[a as usize], numbering[b as usize]
            ));
        }
    }
    Ok(())
}

/// A cycle witness: nonempty, and every consecutive pair (including the
/// wrap-around) is a genuine dependency edge.
fn check_cycle(spec: &GraphSpec, deps: &HashSet<(u32, u32)>, cycle: &[u32]) -> Result<(), String> {
    if cycle.is_empty() {
        return Err("empty witness cycle".into());
    }
    let c = spec.channels.len() as u32;
    for (k, &v) in cycle.iter().enumerate() {
        if v >= c {
            return Err(format!("witness cycle names nonexistent channel {v}"));
        }
        let w = cycle[(k + 1) % cycle.len()];
        if !deps.contains(&(v, w)) {
            return Err(format!("witness step {v} -> {w} is not a dependency edge"));
        }
    }
    Ok(())
}

/// Connectivity: complete, non-overlapping coverage of all ordered pairs,
/// and each certified path replayed move by move against `routes`.
fn check_connectivity(spec: &GraphSpec, cert: &Certificate) -> Result<(), String> {
    let n = spec.num_nodes;
    let mut covered: HashMap<(u32, u32), bool> = HashMap::new(); // true = certified
    for p in &cert.paths {
        if covered.insert((p.src, p.dst), true).is_some() {
            return Err(format!("pair ({}, {}) covered twice", p.src, p.dst));
        }
    }
    for &(s, d) in &cert.unreachable {
        if covered.insert((s, d), false).is_some() {
            return Err(format!("pair ({s}, {d}) covered twice"));
        }
    }
    for s in 0..n {
        for d in 0..n {
            if s != d && !covered.contains_key(&(s, d)) {
                return Err(format!("pair ({s}, {d}) has neither path nor claim"));
            }
        }
    }
    if covered.len() != (n as usize) * (n as usize).saturating_sub(1) {
        return Err("connectivity coverage names an invalid pair".into());
    }
    for p in &cert.paths {
        if p.src >= n || p.dst >= n || p.src == p.dst {
            return Err(format!("invalid certified pair ({}, {})", p.src, p.dst));
        }
        if p.path.is_empty() || p.path.len() > spec.channels.len() {
            return Err(format!(
                "path for ({}, {}) has illegal length {}",
                p.src,
                p.dst,
                p.path.len()
            ));
        }
        let table = &spec.routes[p.dst as usize];
        let mut state = p.src as usize; // injection state
        let mut at = p.src;
        for &c in &p.path {
            if !table[state].contains(&c) {
                return Err(format!(
                    "path for ({}, {}) takes channel {c} not offered in its state",
                    p.src, p.dst
                ));
            }
            let ch = &spec.channels[c as usize];
            if ch.src != at {
                return Err(format!(
                    "path for ({}, {}) teleports: channel {c} leaves {} not {at}",
                    p.src, p.dst, ch.src
                ));
            }
            at = ch.dst;
            state = spec.channel_state(c);
        }
        if at != p.dst {
            return Err(format!(
                "path for ({}, {}) ends at {at}, not its destination",
                p.src, p.dst
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{ChannelVertex, PathCert};

    /// Two nodes, one channel each way, straight-line routing.
    fn spec() -> GraphSpec {
        GraphSpec {
            name: "pair".into(),
            num_nodes: 2,
            channels: vec![
                ChannelVertex {
                    src: 0,
                    dst: 1,
                    label: "c0".into(),
                },
                ChannelVertex {
                    src: 1,
                    dst: 0,
                    label: "c1".into(),
                },
            ],
            deps: vec![],
            routes: vec![
                vec![vec![], vec![1], vec![], vec![]],
                vec![vec![0], vec![], vec![], vec![]],
            ],
        }
    }

    fn cert() -> Certificate {
        Certificate {
            verdict: Verdict::Acyclic {
                numbering: vec![0, 1],
            },
            paths: vec![
                PathCert {
                    src: 0,
                    dst: 1,
                    path: vec![0],
                },
                PathCert {
                    src: 1,
                    dst: 0,
                    path: vec![1],
                },
            ],
            unreachable: vec![],
        }
    }

    #[test]
    fn valid_certificate_is_accepted() {
        check(&spec(), &cert()).expect("valid certificate");
    }

    #[test]
    fn tampered_numbering_is_rejected() {
        let mut s = spec();
        s.deps = vec![(0, 1)];
        s.routes[0][3] = vec![]; // keep routes consistent
        let mut c = cert();
        c.verdict = Verdict::Acyclic {
            numbering: vec![1, 0], // reversed: edge (0,1) now decreases
        };
        let err = check(&s, &c).unwrap_err();
        assert!(err.contains("does not increase"), "{err}");
    }

    #[test]
    fn fake_cycle_is_rejected() {
        let mut c = cert();
        c.verdict = Verdict::Cyclic { cycle: vec![0, 1] };
        let err = check(&spec(), &c).unwrap_err();
        assert!(err.contains("not a dependency edge"), "{err}");
    }

    #[test]
    fn missing_pair_is_rejected() {
        let mut c = cert();
        c.paths.pop();
        let err = check(&spec(), &c).unwrap_err();
        assert!(err.contains("neither path nor claim"), "{err}");
    }

    #[test]
    fn illegal_path_step_is_rejected() {
        let mut c = cert();
        c.paths[0].path = vec![1]; // c1 is not offered at injection of node 0
        let err = check(&spec(), &c).unwrap_err();
        assert!(err.contains("not offered"), "{err}");
    }

    #[test]
    fn zero_node_spec_is_answered_not_panicked_on() {
        let empty = GraphSpec {
            name: "empty".into(),
            num_nodes: 0,
            channels: vec![],
            deps: vec![],
            routes: vec![],
        };
        let mut c = Certificate {
            verdict: Verdict::Acyclic { numbering: vec![] },
            paths: vec![],
            unreachable: vec![],
        };
        check(&empty, &c).expect("nothing to certify");
        c.unreachable.push((0, 1));
        let err = check(&empty, &c).unwrap_err();
        assert!(err.contains("invalid pair"), "{err}");
    }

    #[test]
    fn uncovered_route_move_is_rejected() {
        let mut s = spec();
        // Routing offers a move out of a channel state with no dep edge.
        s.routes[0][3] = vec![1];
        let err = check(&s, &cert()).unwrap_err();
        assert!(err.contains("no such edge"), "{err}");
    }
}
