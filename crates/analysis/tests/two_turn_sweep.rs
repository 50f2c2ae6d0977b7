//! Section 3's census, by enumeration. Of the 28 ways to prohibit two
//! 90-degree turns of a 2D mesh, the prover certifies exactly the 12 the
//! census calls deadlock free, and `turnprove` and `turnsynth` split the
//! 28 along that line: the prover's verdict is the only judge.

use std::collections::{BTreeSet, HashSet};
use turnroute_analysis::prove::{self, ProveOptions};
use turnroute_analysis::synth::{self, SynthOptions};
use turnroute_analysis::{check, extract};
use turnroute_model::cycle::{two_turn_census, two_turn_prohibitions};
use turnroute_topology::Mesh;

#[test]
fn the_prover_certifies_exactly_the_census_safe_two_turn_sets() {
    let mesh = Mesh::new_2d(4, 4);
    let sweep = two_turn_prohibitions();
    assert_eq!(sweep.len(), 28);
    let distinct: HashSet<_> = sweep.iter().map(|(_, set)| set).collect();
    assert_eq!(distinct.len(), 28, "28 distinct turn sets");
    let certified: HashSet<_> = sweep
        .iter()
        .filter(|(_, set)| {
            let spec = extract::from_turn_set("two-turn", &mesh, set);
            let cert = prove::prove(&spec);
            check::check(&spec, &cert).expect("the checker accepts every verdict");
            cert.verdict.is_acyclic()
        })
        .map(|(_, set)| set.clone())
        .collect();
    let census = two_turn_census(&mesh).entries.into_iter();
    let census_safe: HashSet<_> = census.filter(|(_, free)| *free).map(|(s, _)| s).collect();
    assert_eq!(certified.len(), 12);
    assert_eq!(certified, census_safe);
}

/// The two-turn entries among `configs`, without turnsynth's suffix.
fn two_turn<'a>(configs: impl Iterator<Item = &'a String>) -> BTreeSet<String> {
    configs
        .filter(|c| c.starts_with("mesh4x4/two-turn "))
        .map(|c| c.trim_end_matches(" (unsafe)").to_string())
        .collect()
}

#[test]
fn turnprove_and_turnsynth_split_the_two_turn_sets_twelve_and_sixteen() {
    let (quick, inject_bad) = (true, false);
    let proved = prove::run(&ProveOptions { quick, inject_bad });
    let synthesized = synth::run(&SynthOptions { quick, inject_bad });
    let safe = two_turn(proved.entries.iter().map(|e| &e.config));
    let repaired = two_turn(synthesized.entries.iter().map(|e| &e.config));
    assert_eq!((safe.len(), repaired.len()), (12, 16));
    assert!(safe.is_disjoint(&repaired), "{safe:?} / {repaired:?}");
    let all: BTreeSet<String> = two_turn_prohibitions()
        .into_iter()
        .map(|([a, b], _)| format!("mesh4x4/two-turn {{{a}, {b}}}"))
        .collect();
    assert_eq!(&safe | &repaired, all);
    assert_eq!(proved.two_turn_safe, 12);
}
