//! A synthesized torus split runs in the wormhole virtual-channel engine.
//!
//! `turnsynth` splits the unrestricted 4-ary 2-cube into an adaptive and
//! an escape class and certifies the split; its matrix runs that split
//! only in `SpecSim`. Here both relations are tabulated on the torus
//! itself, wraparound links included, and driven through `VcSim` with the
//! seeded workload of the synthesizer's mesh cross-check: the split
//! delivers every packet on every seed, and the unsplit relation wedges
//! on at least one. Deadlock is rare here with 4-flit packets: of seeds
//! 1-24 at 8 packets per node, only seed 11 wedges the unsplit relation,
//! so the seeds are chosen to include it.

use turnroute_analysis::synth::report::{drive_vcsim, spec_table};
use turnroute_analysis::synth::synthesize;
use turnroute_analysis::{check, extract, prove};
use turnroute_model::TurnSet;
use turnroute_topology::Torus;

#[test]
fn synthesized_torus_split_delivers_where_the_unsplit_relation_wedges() {
    let torus = Torus::new(4, 2);
    let name = "4-ary 2-cube/unrestricted";
    let unsplit = extract::from_turn_set(name, &torus, &TurnSet::all_ninety(2));
    assert!(!prove::prove(&unsplit).verdict.is_acyclic());
    let result = synthesize(&unsplit).expect("the torus splits");
    check::check(&result.spec, &prove::prove(&result.spec)).expect("certified split");

    let k = result.num_adaptive;
    let before = spec_table(&torus, &unsplit, 1, |_| 0);
    let after = spec_table(&torus, &result.spec, 2, |c| usize::from(c >= k));
    let mut unsplit_deadlocks = 0;
    for seed in 8..=11u64 {
        let (injected, delivered, deadlocked) = drive_vcsim(&torus, &after, seed, 8, 20_000);
        assert!(!deadlocked, "seed {seed}: the split deadlocked");
        assert_eq!(delivered, injected, "seed {seed}: the split lost packets");
        let (_, _, deadlocked) = drive_vcsim(&torus, &before, seed, 8, 20_000);
        unsplit_deadlocks += u32::from(deadlocked);
    }
    assert!(unsplit_deadlocks > 0, "the unsplit relation never wedged");
}
