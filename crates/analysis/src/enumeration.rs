//! Exhaustive design-space enumeration of turn-set prohibitions.
//!
//! The paper's Section 3 argument is fundamentally a census: enumerate the
//! candidate turn prohibitions, check each against the channel dependency
//! graph, and count the survivors. This module re-runs every census the
//! paper states a number for — plus the sweeps it only argues informally —
//! and renders each count as a [`Claim`]:
//!
//! * the **two-turn census** on the 2D mesh: 16 candidates, 12 deadlock
//!   free, exactly three unique once the mesh symmetry group is factored
//!   out (west-first, north-last, negative-first);
//! * the **exhaustive sweep** over all `2^8 = 256` subsets of the eight
//!   90-degree turns of the 2D mesh, proving mechanically that no
//!   deadlock-free set prohibits fewer than a quarter of the turns
//!   (Theorem 1's `n(n-1)` bound for `n = 2`) and that breaking every
//!   abstract cycle is necessary for deadlock freedom;
//! * the **3D one-turn-per-cycle census** (`4^6 = 4096` candidates): the
//!   generalization the paper never ran, with 176 survivors in 9 symmetry
//!   classes, negative-first among them in a class of 8;
//! * the **hexagonal triangle cycles** Section 7 sketches: four cycles of
//!   three turns, broken by the negative-first hex prohibition.
//!
//! Failures are not bare booleans: any set that should have been acyclic
//! but is not (or vice versa) is reported with a witness cycle via
//! [`crate::claim::witness_cycle`].

use crate::claim::{witness_cycle, Claim};
use turnroute_model::cycle::{
    breaks_all_abstract_cycles, breaks_all_hex_cycles, hex_abstract_cycles, min_prohibited_turns,
    num_ninety_turns, one_turn_per_cycle_census, two_turn_census,
};
use turnroute_model::symmetry::{equivalence_classes, mesh_symmetries};
use turnroute_model::{presets, Cdg, Turn, TurnSet};
use turnroute_topology::{Mesh, Topology};

/// The Section 3 two-turn census on `mesh`, rendered as claims.
///
/// Checks the candidate count (16), the deadlock-free count (12), the
/// symmetry-class count of the survivors (3), that each of the paper's
/// three named algorithms appears in a distinct class, and that every
/// rejected candidate comes with a concrete dependency cycle.
pub fn two_turn_claims(mesh: &Mesh) -> Vec<Claim> {
    let census = two_turn_census(mesh);
    let mut claims = vec![
        Claim::check(
            "2d-two-turn-candidates",
            "one turn prohibited from each of the two abstract cycles",
            16,
            census.total(),
        ),
        Claim::check(
            "2d-two-turn-deadlock-free",
            "candidates whose CDG is acyclic (paper: 12 of 16)",
            12,
            census.deadlock_free(),
        ),
    ];

    let safe: Vec<TurnSet> = census
        .entries
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(s, _)| s.clone())
        .collect();
    let classes = equivalence_classes(&safe);
    claims.push(Claim::check(
        "2d-two-turn-symmetry-classes",
        "unique deadlock-free prohibitions up to mesh symmetry (paper: three)",
        3,
        classes.len(),
    ));

    // Each named algorithm must land in its own class; together the three
    // classes must cover all 12 survivors (4 + 4 + 4).
    let named = [
        ("west-first", presets::west_first_turns()),
        ("north-last", presets::north_last_turns()),
        ("negative-first", presets::negative_first_turns(2)),
    ];
    let syms = mesh_symmetries(2);
    let mut covered = vec![usize::MAX; named.len()];
    for (i, (_, set)) in named.iter().enumerate() {
        let orbit: Vec<TurnSet> = syms.iter().map(|s| s.apply(set)).collect();
        for (ci, class) in classes.iter().enumerate() {
            if class.iter().any(|&k| orbit.contains(&safe[k])) {
                covered[i] = ci;
            }
        }
    }
    let distinct = {
        let mut c = covered.clone();
        c.sort_unstable();
        c.dedup();
        c.len() == named.len() && !covered.contains(&usize::MAX)
    };
    claims.push(Claim::check(
        "2d-named-algorithms-are-the-classes",
        "west-first, north-last, negative-first each represent a distinct class",
        true,
        distinct,
    ));

    // Every rejected candidate must produce a concrete witness cycle.
    let mut witnesses = 0usize;
    let mut example = None;
    for (set, ok) in &census.entries {
        if *ok {
            continue;
        }
        let cdg = Cdg::from_turn_set(mesh, set);
        if let Some(cycle) = cdg.find_cycle() {
            witnesses += 1;
            if example.is_none() {
                example = Some(format!(
                    "prohibiting only {{{}}}: {}",
                    set.prohibited_ninety()
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    witness_cycle(&cdg, &cycle)
                ));
            }
        }
    }
    let mut claim = Claim::check(
        "2d-rejected-candidates-have-witness-cycles",
        "each of the 4 unsafe candidates yields a concrete dependency cycle",
        census.total() - census.deadlock_free(),
        witnesses,
    );
    if let Some(w) = example {
        claim = claim.with_witness(w);
    }
    claims.push(claim);

    // Every survivor must induce a *usable* routing algorithm: the
    // maximal coherent minimal function of each safe set has no
    // adversarially reachable dead end, injection included.
    let mut connected = 0usize;
    let mut dead_witness = None;
    for (i, set) in safe.iter().enumerate() {
        let name = format!("safe-{i}");
        let routing = crate::routing::TurnSetRouting::new(name.clone(), set.clone(), mesh);
        let spec = crate::extract::from_routing(name, mesh, &routing);
        match crate::verify::checked_progress(&spec).map(|p| p.dead_end_witness(&spec)) {
            Ok(None) => connected += 1,
            Ok(Some(w)) | Err(w) => {
                dead_witness.get_or_insert(w);
            }
        }
    }
    let mut claim = Claim::check(
        "2d-safe-sets-induce-connected-routing",
        "each deadlock-free prohibition yields a coherent, fully connected \
         minimal routing function",
        safe.len(),
        connected,
    );
    if let Some(w) = dead_witness {
        claim = claim.with_witness(w);
    }
    claims.push(claim);
    claims
}

/// The exhaustive sweep over every subset of the 2D mesh's eight
/// 90-degree turns (`2^8 = 256` turn sets), CDG-checked on `mesh`.
///
/// This is the mechanical form of Theorem 1 for `n = 2`: prohibiting
/// fewer than `n(n-1) = 2` turns (a quarter of `4n(n-1) = 8`) can never
/// break both abstract cycles, so the minimum prohibition count among
/// deadlock-free sets is exactly 2 — and every deadlock-free set breaks
/// every abstract cycle (necessity).
pub fn exhaustive_2d_claims(mesh: &Mesh) -> Vec<Claim> {
    let turns: Vec<Turn> = Turn::all_ninety(2);
    assert_eq!(turns.len(), num_ninety_turns(2));
    let total = 1usize << turns.len();

    let mut deadlock_free = 0usize;
    let mut min_prohibited = usize::MAX;
    let mut free_with_two = 0usize;
    let mut free_not_breaking_all = 0usize;
    let mut small_sets_cyclic = 0usize;
    let mut small_witness = None;

    for mask in 0..total {
        let mut set = TurnSet::all_ninety(2);
        let mut prohibited = 0usize;
        for (i, &t) in turns.iter().enumerate() {
            if mask & (1 << i) != 0 {
                set.prohibit(t);
                prohibited += 1;
            }
        }
        let cdg = Cdg::from_turn_set(mesh, &set);
        match cdg.find_cycle() {
            None => {
                deadlock_free += 1;
                min_prohibited = min_prohibited.min(prohibited);
                if prohibited == 2 {
                    free_with_two += 1;
                }
                if !breaks_all_abstract_cycles(&set) {
                    free_not_breaking_all += 1;
                }
            }
            Some(cycle) => {
                if prohibited < min_prohibited_turns(2) {
                    small_sets_cyclic += 1;
                    if small_witness.is_none() {
                        small_witness = Some(format!(
                            "{} prohibition(s) {{{}}}: {}",
                            prohibited,
                            set.prohibited_ninety()
                                .iter()
                                .map(|t| t.to_string())
                                .collect::<Vec<_>>()
                                .join(", "),
                            witness_cycle(&cdg, &cycle)
                        ));
                    }
                }
            }
        }
    }

    let mut quarter = Claim::check(
        "2d-quarter-of-turns-is-the-minimum",
        "fewest prohibited turns in any deadlock-free set over all 256 subsets \
         (Theorem 1: n(n-1) = 2, a quarter of the 8 turns)",
        min_prohibited_turns(2),
        min_prohibited,
    );
    // All 9 subsets below the bound (the empty set and the 8 singletons)
    // must be cyclic — the quarter claim in its sharpest form.
    let mut below = Claim::check(
        "2d-all-subsets-below-quarter-are-cyclic",
        "every subset prohibiting fewer than 2 turns has a dependency cycle",
        9,
        small_sets_cyclic,
    );
    if let Some(w) = small_witness {
        below = below.with_witness(w.clone());
        if quarter.passed {
            quarter = quarter.with_witness(w);
        }
    }

    vec![
        quarter,
        below,
        Claim::check(
            "2d-deadlock-free-breaks-all-cycles",
            "deadlock-free subsets that fail to break every abstract cycle \
             (Theorem 1 necessity: must be none)",
            0,
            free_not_breaking_all,
        ),
        Claim::check(
            "2d-minimum-sets-match-two-turn-census",
            "deadlock-free subsets with exactly 2 prohibitions equal the census's 12",
            12,
            free_with_two,
        ),
        Claim::check(
            "2d-sweep-covered-all-subsets",
            "sanity: the sweep visited every subset and some survive",
            true,
            deadlock_free > 12 && deadlock_free < total,
        ),
    ]
}

/// The 3D one-turn-per-cycle census (`4^6 = 4096` candidates on a cubic
/// mesh), with symmetry reduction under the 48-element hyperoctahedral
/// group — the generalization of "three unique algorithms".
pub fn census_3d_claims(mesh: &Mesh) -> Vec<Claim> {
    assert_eq!(mesh.num_dims(), 3, "the 3D census needs a 3D mesh");
    let census = one_turn_per_cycle_census(mesh);
    let safe: Vec<TurnSet> = census
        .entries
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(s, _)| s.clone())
        .collect();
    let classes = equivalence_classes(&safe);

    let nf = presets::negative_first_turns(3);
    let nf_class_size = classes
        .iter()
        .find(|class| class.iter().any(|&k| safe[k] == nf))
        .map_or(0, Vec::len);

    vec![
        Claim::check(
            "3d-census-candidates",
            "one turn prohibited per abstract cycle of the 3D mesh (4^6)",
            4096,
            census.total(),
        ),
        Claim::check(
            "3d-census-deadlock-free",
            "3D candidates whose CDG is acyclic",
            176,
            census.deadlock_free(),
        ),
        Claim::check(
            "3d-census-symmetry-classes",
            "unique 3D prohibitions up to the 48 mesh symmetries",
            9,
            classes.len(),
        ),
        Claim::check(
            "3d-negative-first-class-size",
            "the symmetry class containing negative-first (0 = not deadlock free)",
            8,
            nf_class_size,
        ),
    ]
}

/// The hexagonal-network cycles of Section 7: four triangle cycles of
/// three turns each, all broken by the negative-first hex prohibition,
/// none by the unrestricted turn set.
pub fn hex_claims() -> Vec<Claim> {
    let cycles = hex_abstract_cycles();
    vec![
        Claim::check(
            "hex-triangle-cycles",
            "minimal abstract cycles of a hexagonal network are 4 triangles",
            4,
            cycles.len(),
        ),
        Claim::check(
            "hex-triangles-close",
            "each triangle's three turns chain and close",
            true,
            cycles.iter().all(|c| {
                let t = c.turns();
                (0..3).all(|k| t[k].to_dir() == t[(k + 1) % 3].from_dir())
            }),
        ),
        Claim::check(
            "hex-negative-first-breaks-all",
            "the negative-first prohibition breaks all four triangles; \
             the unrestricted set breaks none",
            true,
            breaks_all_hex_cycles(&presets::negative_first_turns(3))
                && !breaks_all_hex_cycles(&TurnSet::all_ninety(3)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_pass(claims: &[Claim]) {
        for c in claims {
            assert!(c.passed, "{}", c.render());
        }
    }

    #[test]
    fn two_turn_census_claims_all_pass() {
        all_pass(&two_turn_claims(&Mesh::new_2d(4, 4)));
    }

    #[test]
    fn exhaustive_sweep_claims_all_pass() {
        let claims = exhaustive_2d_claims(&Mesh::new_2d(4, 4));
        all_pass(&claims);
        // The quarter claim must carry a witness cycle for a too-small set.
        let below = claims
            .iter()
            .find(|c| c.name == "2d-all-subsets-below-quarter-are-cyclic")
            .unwrap();
        let w = below.witness.as_deref().unwrap();
        assert!(w.contains("channel cycle"), "{w}");
    }

    #[test]
    fn hex_claims_all_pass() {
        all_pass(&hex_claims());
    }

    #[test]
    fn census_3d_claims_all_pass() {
        all_pass(&census_3d_claims(&Mesh::new_cubic(3, 3)));
    }
}
