//! Abstract cycles formed by turns (Section 2, Figures 2–4, Theorem 1).
//!
//! In each of the `n(n-1)/2` planes of an *n*-dimensional mesh, the eight
//! 90-degree turns of the plane form two abstract cycles — one clockwise,
//! one counterclockwise — of four turns each. A routing algorithm must
//! prohibit at least one turn in every abstract cycle to prevent deadlock
//! (necessary by Theorem 1); whether the surviving turns admit more complex
//! cycles is then settled mechanically by the channel dependency graph
//! ([`crate::Cdg`]).

use crate::{Cdg, Turn, TurnSet};
use turnroute_topology::{Direction, Mesh, Sign, Topology};

/// The rotational orientation of an abstract cycle within a plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// The cycle of four "right" turns (in the 2D plane: north→east,
    /// east→south, south→west, west→north).
    Clockwise,
    /// The cycle of four "left" turns (north→west, west→south,
    /// south→east, east→north).
    Counterclockwise,
}

/// One abstract cycle: four turns in a single plane whose composition
/// returns a packet to its original direction of travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbstractCycle {
    plane: (usize, usize),
    orientation: Orientation,
    turns: [Turn; 4],
}

impl AbstractCycle {
    /// The plane `(i, j)` with `i < j` this cycle lies in.
    pub fn plane(&self) -> (usize, usize) {
        self.plane
    }

    /// The cycle's orientation.
    pub fn orientation(&self) -> Orientation {
        self.orientation
    }

    /// The four turns of the cycle, in travel order.
    pub fn turns(&self) -> &[Turn; 4] {
        &self.turns
    }

    /// Whether `set` prohibits at least one turn of this cycle (i.e. the
    /// cycle is broken).
    pub fn is_broken_by(&self, set: &TurnSet) -> bool {
        self.turns.iter().any(|&t| !set.is_turn_allowed(t))
    }
}

impl std::fmt::Display for AbstractCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plane ({}, {}) {:?}: {} {} {} {}",
            self.plane.0,
            self.plane.1,
            self.orientation,
            self.turns[0],
            self.turns[1],
            self.turns[2],
            self.turns[3]
        )
    }
}

/// Enumerate the `n(n-1)` abstract cycles of an `n`-dimensional mesh
/// (two per plane).
pub fn abstract_cycles(num_dims: usize) -> Vec<AbstractCycle> {
    let mut out = Vec::new();
    for i in 0..num_dims {
        for j in (i + 1)..num_dims {
            let pi = Direction::new(i, Sign::Plus);
            let ni = Direction::new(i, Sign::Minus);
            let pj = Direction::new(j, Sign::Plus);
            let nj = Direction::new(j, Sign::Minus);
            // Clockwise (right turns), in the 2D plane with i as x and j
            // as y: north→east, east→south, south→west, west→north.
            out.push(AbstractCycle {
                plane: (i, j),
                orientation: Orientation::Clockwise,
                turns: [
                    Turn::new(pj, pi),
                    Turn::new(pi, nj),
                    Turn::new(nj, ni),
                    Turn::new(ni, pj),
                ],
            });
            // Counterclockwise (left turns): north→west, west→south,
            // south→east, east→north.
            out.push(AbstractCycle {
                plane: (i, j),
                orientation: Orientation::Counterclockwise,
                turns: [
                    Turn::new(pj, ni),
                    Turn::new(ni, nj),
                    Turn::new(nj, pi),
                    Turn::new(pi, pj),
                ],
            });
        }
    }
    out
}

/// Whether `set` breaks every abstract cycle — the *necessary* condition of
/// Theorem 1. Not sufficient on its own: turns surviving in different
/// cycles can compose into complex cycles (Figure 4), which
/// [`Cdg::from_turn_set`] detects.
pub fn breaks_all_abstract_cycles(set: &TurnSet) -> bool {
    abstract_cycles(set.num_dims())
        .iter()
        .all(|c| c.is_broken_by(set))
}

/// The number of 90-degree turns in an `n`-dimensional mesh: `4n(n-1)`.
pub fn num_ninety_turns(num_dims: usize) -> usize {
    4 * num_dims * num_dims.saturating_sub(1)
}

/// The number of abstract cycles in an `n`-dimensional mesh: `n(n-1)`.
pub fn num_abstract_cycles(num_dims: usize) -> usize {
    num_dims * num_dims.saturating_sub(1)
}

/// The minimum number of turns that must be prohibited to prevent deadlock
/// in an `n`-dimensional mesh (Theorem 1): `n(n-1)`, one per abstract
/// cycle — a quarter of all turns.
pub fn min_prohibited_turns(num_dims: usize) -> usize {
    num_dims * num_dims.saturating_sub(1)
}

/// A three-turn abstract cycle of a hexagonal network.
///
/// Section 7 notes that in topologies like hexagonal meshes "the turns
/// are not necessarily 90-degrees and the abstract cycles are not
/// necessarily formed by four turns": the minimal hex cycles are
/// *triangles*. With axes `A = (1,0)`, `B = (0,1)`, `C = (1,-1)` in axial
/// coordinates, the direction multisets `{+A, -B, -C}` and `{-A, +B, +C}`
/// each sum to zero, and each can be traversed in two cyclic orders —
/// four triangle cycles of three turns each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HexCycle {
    turns: [Turn; 3],
}

impl HexCycle {
    /// The three turns of the cycle, in travel order.
    pub fn turns(&self) -> &[Turn; 3] {
        &self.turns
    }

    /// Whether `set` prohibits at least one turn of this cycle.
    pub fn is_broken_by(&self, set: &TurnSet) -> bool {
        self.turns.iter().any(|&t| !set.is_turn_allowed(t))
    }
}

impl std::fmt::Display for HexCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hex triangle: {} {} {}",
            self.turns[0], self.turns[1], self.turns[2]
        )
    }
}

/// Enumerate the four triangle cycles of a hexagonal network (directions
/// indexed as three [`Direction`] axes).
pub fn hex_abstract_cycles() -> Vec<HexCycle> {
    let pa = Direction::new(0, Sign::Plus);
    let na = Direction::new(0, Sign::Minus);
    let pb = Direction::new(1, Sign::Plus);
    let nb = Direction::new(1, Sign::Minus);
    let pc = Direction::new(2, Sign::Plus);
    let nc = Direction::new(2, Sign::Minus);
    let triangle = |a: Direction, b: Direction, c: Direction| HexCycle {
        turns: [Turn::new(a, b), Turn::new(b, c), Turn::new(c, a)],
    };
    vec![
        // {+A, -B, -C} in its two cyclic orders.
        triangle(pa, nb, nc),
        triangle(pa, nc, nb),
        // {-A, +B, +C} in its two cyclic orders.
        triangle(na, pb, pc),
        triangle(na, pc, pb),
    ]
}

/// Whether `set` (over three axes) breaks every hexagonal triangle cycle
/// — the hex analog of [`breaks_all_abstract_cycles`]. Necessary, not
/// sufficient; [`Cdg::from_turn_set`] on a
/// [`turnroute_topology::HexMesh`] remains the full verdict.
pub fn breaks_all_hex_cycles(set: &TurnSet) -> bool {
    assert_eq!(set.num_dims(), 3, "hexagonal turn sets span three axes");
    hex_abstract_cycles().iter().all(|c| c.is_broken_by(set))
}

/// Every way of prohibiting two of a 2D mesh's eight 90-degree turns: the
/// 28 unordered pairs in [`Turn::all_ninety`] order (`i < j`), each with
/// the turn set that prohibits exactly that pair. Sixteen take one turn
/// from each abstract cycle (the [`two_turn_census`] candidates); the
/// other twelve take both from one cycle and leave the other intact.
pub fn two_turn_prohibitions() -> Vec<([Turn; 2], TurnSet)> {
    let turns = Turn::all_ninety(2);
    let mut out = Vec::with_capacity(28);
    for (i, &a) in turns.iter().enumerate() {
        for &b in &turns[i + 1..] {
            let mut set = TurnSet::all_ninety(2);
            set.prohibit(a);
            set.prohibit(b);
            out.push(([a, b], set));
        }
    }
    out
}

/// The outcome of the Section 3 census over all two-turn prohibitions in a
/// 2D mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoTurnCensus {
    /// Each of the 16 candidate turn sets (one turn prohibited from each of
    /// the two abstract cycles), with its deadlock-freedom verdict.
    pub entries: Vec<(TurnSet, bool)>,
}

impl TwoTurnCensus {
    /// Number of candidate prohibitions examined (always 16 in 2D).
    pub fn total(&self) -> usize {
        self.entries.len()
    }

    /// Number of deadlock-free prohibitions (the paper reports 12).
    pub fn deadlock_free(&self) -> usize {
        self.entries.iter().filter(|(_, free)| *free).count()
    }
}

/// Enumerate all 16 ways of prohibiting one turn from each of the two
/// abstract cycles of a 2D mesh and decide, via the channel dependency
/// graph on `mesh`, which prevent deadlock.
///
/// The paper (Section 3) reports that 12 of the 16 prevent deadlock and
/// that three are unique once symmetry is accounted for (west-first,
/// north-last, negative-first).
pub fn two_turn_census(mesh: &Mesh) -> TwoTurnCensus {
    let cycles = abstract_cycles(2);
    assert_eq!(cycles.len(), 2);
    let (cw, ccw) = (&cycles[0], &cycles[1]);
    let mut entries = Vec::with_capacity(16);
    for &t_cw in cw.turns() {
        for &t_ccw in ccw.turns() {
            let mut set = TurnSet::all_ninety(2);
            set.prohibit(t_cw);
            set.prohibit(t_ccw);
            let free = Cdg::from_turn_set(mesh, &set).find_cycle().is_none();
            entries.push((set, free));
        }
    }
    TwoTurnCensus { entries }
}

/// The n-dimensional generalization of [`two_turn_census`]: enumerate
/// every way of prohibiting exactly one turn from each of the `n(n-1)`
/// abstract cycles (the Theorem 1 minimum) and decide which prevent
/// deadlock via the channel dependency graph on `mesh`.
///
/// The paper runs this census only for 2D (16 candidates, 12 safe); for
/// 3D there are `4^6 = 4096` candidates — an analysis this reproduction
/// adds. Because breaking every plane's cycles is necessary but not
/// sufficient (Figure 4's complex cycles generalize), far fewer than
/// 4096 survive.
///
/// # Panics
///
/// Panics if `mesh` has more than 3 dimensions (the candidate count is
/// `4^{n(n-1)}`; n = 4 already means 16.7 million CDG checks).
pub fn one_turn_per_cycle_census(mesh: &Mesh) -> TwoTurnCensus {
    let n = mesh.num_dims();
    assert!(n <= 3, "census is exponential; use n <= 3");
    let cycles = abstract_cycles(n);
    let total = 4usize.pow(cycles.len() as u32);
    let mut entries = Vec::with_capacity(total);
    for mut index in 0..total {
        let mut set = TurnSet::all_ninety(n);
        for cycle in &cycles {
            set.prohibit(cycle.turns()[index % 4]);
            index /= 4;
        }
        let free = Cdg::from_turn_set(mesh, &set).find_cycle().is_none();
        entries.push((set, free));
    }
    TwoTurnCensus { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn cycle_counts_match_paper() {
        for n in 2..=6 {
            assert_eq!(abstract_cycles(n).len(), n * (n - 1));
            assert_eq!(num_abstract_cycles(n), n * (n - 1));
            assert_eq!(num_ninety_turns(n), 4 * n * (n - 1));
            assert_eq!(min_prohibited_turns(n), n * (n - 1));
        }
        assert!(abstract_cycles(1).is_empty());
    }

    #[test]
    fn cycle_turns_chain_and_close() {
        // Each cycle's turns chain: turn k ends in the direction turn k+1
        // starts from, and the last chains back to the first.
        for cycle in abstract_cycles(4) {
            let turns = cycle.turns();
            for k in 0..4 {
                assert_eq!(turns[k].to_dir(), turns[(k + 1) % 4].from_dir());
            }
        }
    }

    #[test]
    fn cycle_turns_are_distinct_across_cycles() {
        // The 8 turns of a plane split 4/4 between its two cycles.
        let cycles = abstract_cycles(2);
        let mut all: Vec<Turn> = Vec::new();
        for c in &cycles {
            all.extend_from_slice(c.turns());
        }
        all.sort_by_key(|t| (t.from_dir().index(), t.to_dir().index()));
        all.dedup();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn unrestricted_turns_break_nothing() {
        let set = TurnSet::all_ninety(3);
        assert!(!breaks_all_abstract_cycles(&set));
    }

    #[test]
    fn xy_breaks_all_cycles() {
        assert!(breaks_all_abstract_cycles(&presets::xy_turns()));
    }

    #[test]
    fn partially_adaptive_presets_break_all_cycles() {
        assert!(breaks_all_abstract_cycles(&presets::west_first_turns()));
        assert!(breaks_all_abstract_cycles(&presets::north_last_turns()));
        assert!(breaks_all_abstract_cycles(&presets::negative_first_turns(
            2
        )));
        assert!(breaks_all_abstract_cycles(&presets::negative_first_turns(
            4
        )));
    }

    #[test]
    fn hex_cycles_chain_and_close() {
        let cycles = hex_abstract_cycles();
        assert_eq!(cycles.len(), 4);
        for c in &cycles {
            for k in 0..3 {
                assert_eq!(c.turns()[k].to_dir(), c.turns()[(k + 1) % 3].from_dir());
            }
        }
    }

    #[test]
    fn negative_first_breaks_all_hex_triangles() {
        // Every triangle mixes positive and negative directions, so it
        // contains a positive-to-negative turn — which NF prohibits.
        assert!(breaks_all_hex_cycles(&presets::negative_first_turns(3)));
        assert!(!breaks_all_hex_cycles(&TurnSet::all_ninety(3)));
    }

    #[test]
    fn hex_triangle_display() {
        let c = hex_abstract_cycles()[0];
        let s = c.to_string();
        assert!(s.starts_with("hex triangle"), "{s}");
    }

    #[test]
    fn census_finds_twelve_deadlock_free() {
        let mesh = Mesh::new_2d(4, 4);
        let census = two_turn_census(&mesh);
        assert_eq!(census.total(), 16);
        assert_eq!(census.deadlock_free(), 12);
    }

    #[test]
    fn generalized_census_matches_two_turn_census_in_2d() {
        let mesh = Mesh::new_2d(4, 4);
        let general = one_turn_per_cycle_census(&mesh);
        assert_eq!(general.total(), 16);
        assert_eq!(general.deadlock_free(), 12);
    }

    #[test]
    fn census_3d_contains_negative_first_as_safe() {
        let mesh = Mesh::new_cubic(3, 3);
        let census = one_turn_per_cycle_census(&mesh);
        assert_eq!(census.total(), 4096);
        let free = census.deadlock_free();
        assert!(free > 0, "some 3D prohibition must be safe");
        assert!(free < 4096, "complex cycles must kill some candidates");
        // Negative-first's choice is among the safe ones.
        let nf = presets::negative_first_turns(3);
        let found = census.entries.iter().any(|(set, ok)| *ok && *set == nf);
        assert!(found, "negative-first missing from the safe census entries");
    }

    #[test]
    fn census_entries_all_break_abstract_cycles() {
        // Every census entry breaks both abstract cycles by construction,
        // yet four of them still deadlock (Figure 4's complex cycles):
        // breaking abstract cycles is necessary, not sufficient.
        let mesh = Mesh::new_2d(4, 4);
        for (set, _) in two_turn_census(&mesh).entries {
            assert!(breaks_all_abstract_cycles(&set));
        }
    }
}
