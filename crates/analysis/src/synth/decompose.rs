//! Feedback-edge decomposition of a cyclic dependency relation.
//!
//! The synthesizer's first step: find an inclusion-minimal set of
//! dependency edges whose removal leaves the relation acyclic. The
//! surviving edges become the adaptive class's dependency budget; every
//! cut edge marks a routing move the adaptive class must surrender to
//! the escape class.

use turnroute_model::DepGraph;

/// Indices into `deps` of an inclusion-minimal feedback edge set: the
/// remaining edges are acyclic, and re-adding any single cut edge
/// reintroduces a cycle.
///
/// Deterministic: a depth-first sweep in vertex/edge id order collects
/// the back edges as candidates, then a greedy pass re-adds every
/// candidate the acyclic remainder can absorb.
pub fn feedback_edges(num_channels: usize, deps: &[(u32, u32)]) -> Vec<usize> {
    // Adjacency carrying original edge indices.
    let mut adj: Vec<Vec<(u32, usize)>> = vec![Vec::new(); num_channels];
    for (i, &(a, b)) in deps.iter().enumerate() {
        adj[a as usize].push((b, i));
    }

    // Iterative DFS; an edge into a GRAY (on-stack) vertex is a back edge.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; num_channels];
    let mut candidates = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..num_channels {
        if color[start] != WHITE {
            continue;
        }
        color[start] = GRAY;
        stack.push((start, 0));
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let (w, edge) = adj[v][*next];
                *next += 1;
                match color[w as usize] {
                    WHITE => {
                        color[w as usize] = GRAY;
                        stack.push((w as usize, 0));
                    }
                    GRAY => candidates.push(edge),
                    _ => {}
                }
            } else {
                color[v] = BLACK;
                stack.pop();
            }
        }
    }

    // Greedy minimization: keep the non-candidates, then re-add every
    // candidate (in id order) that leaves the kept set acyclic.
    let is_candidate = {
        let mut mask = vec![false; deps.len()];
        for &c in &candidates {
            mask[c] = true;
        }
        mask
    };
    let mut kept: Vec<(u32, u32)> = deps
        .iter()
        .enumerate()
        .filter(|&(i, _)| !is_candidate[i])
        .map(|(_, &e)| e)
        .collect();
    debug_assert!(DepGraph::from_edges(num_channels, &kept)
        .numbering()
        .is_some());
    let mut feedback = Vec::new();
    candidates.sort_unstable();
    candidates.dedup();
    for c in candidates {
        kept.push(deps[c]);
        if DepGraph::from_edges(num_channels, &kept)
            .numbering()
            .is_none()
        {
            kept.pop();
            feedback.push(c);
        }
    }
    feedback.sort_unstable();
    feedback
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_input_cuts_nothing() {
        let deps = [(0, 1), (1, 2), (0, 2)];
        assert!(feedback_edges(3, &deps).is_empty());
    }

    #[test]
    fn simple_cycle_cuts_exactly_one_edge() {
        let deps = [(0, 1), (1, 2), (2, 0)];
        let f = feedback_edges(3, &deps);
        assert_eq!(f.len(), 1);
        let kept: Vec<(u32, u32)> = deps
            .iter()
            .enumerate()
            .filter(|&(i, _)| !f.contains(&i))
            .map(|(_, &e)| e)
            .collect();
        assert!(DepGraph::from_edges(3, &kept).numbering().is_some());
    }

    #[test]
    fn cut_set_is_inclusion_minimal() {
        // Two overlapping cycles sharing the edge (1, 2).
        let deps = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)];
        let f = feedback_edges(4, &deps);
        let kept = |skip: Option<usize>| -> Vec<(u32, u32)> {
            deps.iter()
                .enumerate()
                .filter(|&(i, _)| !f.contains(&i) || Some(i) == skip)
                .map(|(_, &e)| e)
                .collect()
        };
        assert!(DepGraph::from_edges(4, &kept(None)).numbering().is_some());
        for &i in &f {
            assert!(
                DepGraph::from_edges(4, &kept(Some(i)))
                    .numbering()
                    .is_none(),
                "edge {i} could be re-added: the cut is not minimal"
            );
        }
    }
}
