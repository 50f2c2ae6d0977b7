//! Figures 6–8 and Theorems 2 & 5: channel numbering witnesses.

use turnroute_analysis::{check, extract, Verdict};
use turnroute_model::numbering::{negative_first_numbering, west_first_numbering};
use turnroute_model::RoutingFunction;
use turnroute_routing::{mesh2d, ndmesh, RoutingMode};
use turnroute_topology::{Mesh, Topology};

/// Render the west-first numbering of a 4×4 mesh (the shape of Figure 7)
/// plus mechanical verification of Theorems 2 and 5 on several meshes:
/// each paper numbering is the certificate of the relation's lowered
/// channel graph, validated by the independent checker.
pub fn render() -> String {
    let mut out = String::from("# Figures 6-8 & Theorems 2/5: channel numberings\n\n");

    // Figure 7 analog: the west-first numbering of a 4x4 mesh.
    let mesh = Mesh::new_2d(4, 4);
    let numbers = west_first_numbering(&mesh);
    out.push_str(
        "## West-first numbering of a 4x4 mesh (Figure 7 analog)\n\n\
         Channels listed per source node; the west-first algorithm routes\n\
         every packet along strictly decreasing numbers.\n\n\
         | channel | number |\n|---|---:|\n",
    );
    for ch in mesh.channels() {
        out.push_str(&format!("| {} | {} |\n", ch, numbers[ch.id().index()]));
    }

    out.push_str("\n## Mechanical verification\n\n| mesh | theorem | numbering | verdict |\n|---|---|---|---|\n");
    let verdict = |mesh: &Mesh, routing: &dyn RoutingFunction, numbering: Vec<u64>| {
        let spec = extract::from_routing(routing.name(), mesh, routing);
        match check::check_verdict(&spec, &Verdict::Acyclic { numbering }) {
            Ok(()) => "verified",
            Err(_) => "VIOLATED",
        }
    };
    for (m, n) in [(4u16, 4u16), (8, 8), (16, 16), (5, 9)] {
        let mesh = Mesh::new_2d(m, n);
        let wf = mesh2d::west_first(RoutingMode::Minimal);
        out.push_str(&format!(
            "| {m}x{n} | Thm 2 (west-first) | two-digit, strictly decreasing | {} |\n",
            verdict(&mesh, &wf, negated(&west_first_numbering(&mesh)))
        ));
    }
    for dims in [vec![4u16, 4], vec![3, 3, 3], vec![16, 16], vec![2, 5, 4]] {
        let label = dims
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join("x");
        let mesh = Mesh::new(dims);
        let nf = ndmesh::negative_first(mesh.num_dims(), RoutingMode::Minimal);
        let numbering = negative_first_numbering(&mesh).into_iter().map(unsigned);
        out.push_str(&format!(
            "| {label} | Thm 5 (negative-first) | K-n±X, strictly increasing | {} |\n",
            verdict(&mesh, &nf, numbering.collect())
        ));
    }
    out
}

/// A strictly decreasing numbering (Theorem 2's) turned into the
/// increasing one a certificate states: each number subtracted from the
/// largest.
fn negated(numbers: &[i64]) -> Vec<u64> {
    let top = numbers.iter().copied().max().unwrap_or(0);
    numbers.iter().map(|&x| unsigned(top - x)).collect()
}

/// A closed-form channel number as a certificate entry; every number of
/// Theorems 2 and 5 is nonnegative.
fn unsigned(x: i64) -> u64 {
    u64::try_from(x).expect("paper channel numbers are nonnegative")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_verifies_everything() {
        let s = render();
        assert!(!s.contains("VIOLATED"), "{s}");
        assert_eq!(s.matches("verified").count(), 8, "{s}");
    }
}
