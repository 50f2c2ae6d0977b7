//! Counting the turns traffic actually takes.

use super::{Event, SimObserver};
use turnroute_model::{Turn, TurnKind};
use turnroute_topology::Direction;

/// Counts every turn headers take during a run, keyed by (from, to)
/// direction pair and summarizable by [`TurnKind`] — the dynamic
/// counterpart of the paper's static turn analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurnCensus {
    num_dirs: usize,
    counts: Vec<u64>,
}

impl TurnCensus {
    /// An empty census for an `num_dims`-dimensional topology.
    pub fn new(num_dims: usize) -> TurnCensus {
        let num_dirs = 2 * num_dims;
        TurnCensus {
            num_dirs,
            counts: vec![0; num_dirs * num_dirs],
        }
    }

    /// Times the turn `from -> to` was taken.
    pub fn count(&self, from: Direction, to: Direction) -> u64 {
        self.counts[from.index() * self.num_dirs + to.index()]
    }

    /// All turns taken.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Totals by [`TurnKind`]: `(straight, ninety, one_eighty)`.
    pub fn by_kind(&self) -> (u64, u64, u64) {
        let mut straight = 0;
        let mut ninety = 0;
        let mut reversal = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let from = Direction::from_index(i / self.num_dirs);
            let to = Direction::from_index(i % self.num_dirs);
            match Turn::new(from, to).kind() {
                TurnKind::Straight => straight += c,
                TurnKind::Ninety => ninety += c,
                TurnKind::OneEighty => reversal += c,
            }
        }
        (straight, ninety, reversal)
    }

    /// Non-zero turns as `(turn, count)`, heaviest first.
    pub fn nonzero(&self) -> Vec<(Turn, u64)> {
        let mut v: Vec<(Turn, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let from = Direction::from_index(i / self.num_dirs);
                let to = Direction::from_index(i % self.num_dirs);
                (Turn::new(from, to), c)
            })
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Markdown table of the census.
    pub fn render(&self) -> String {
        let (straight, ninety, reversal) = self.by_kind();
        let mut out = format!(
            "| turn | kind | count |\n|---|---|---:|\n\
             (straight {straight}, 90-degree {ninety}, 180-degree {reversal})\n"
        );
        for (turn, count) in self.nonzero() {
            out.push_str(&format!("| {turn} | {:?} | {count} |\n", turn.kind()));
        }
        out
    }

    /// JSON object: totals by kind plus the non-zero `(from, to, count)`
    /// entries.
    pub fn to_json(&self) -> String {
        let (straight, ninety, reversal) = self.by_kind();
        let mut entries = String::new();
        for (i, (turn, count)) in self.nonzero().into_iter().enumerate() {
            if i > 0 {
                entries.push(',');
            }
            entries.push_str(&format!(
                "{{\"turn\":{},\"count\":{count}}}",
                super::json::string(&turn.to_string())
            ));
        }
        format!(
            "{{\"total\":{},\"straight\":{straight},\"ninety\":{ninety},\"one_eighty\":{reversal},\"taken\":[{entries}]}}",
            self.total()
        )
    }
}

impl SimObserver for TurnCensus {
    #[inline]
    fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
        if let Event::Turn { turn, .. } = ev {
            let (from, to) = (turn.from_dir().index(), turn.to_dir().index());
            // A direction outside this census's dimensions is not counted.
            if from.max(to) < self.num_dirs {
                self.counts[from * self.num_dirs + to] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fire;
    use super::*;

    #[test]
    fn counts_by_kind() {
        let mut c = TurnCensus::new(2);
        let e = Direction::EAST;
        let n = Direction::NORTH;
        let w = Direction::WEST;
        fire::turn(&mut c, 0, 0, e, e);
        fire::turn(&mut c, 1, 0, e, n);
        fire::turn(&mut c, 2, 1, e, n);
        fire::turn(&mut c, 3, 2, e, w);
        assert_eq!(c.count(e, n), 2);
        assert_eq!(c.total(), 4);
        assert_eq!(c.by_kind(), (1, 2, 1));
        assert_eq!(c.nonzero()[0].1, 2);
        assert!(c.render().contains("straight 1"));
        assert!(crate::obs::json::validate(&c.to_json()));
    }
}
