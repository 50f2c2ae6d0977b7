//! Per-channel load and stall-attribution heatmaps.

use super::{ChannelLayout, Event, SimObserver, StallReason};
use turnroute_topology::NodeId;

/// Accumulates, per channel slot: flits that entered the channel's buffer
/// (load) and cycles the channel sat occupied without advancing, split by
/// [`StallReason`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelHeatmap {
    layout: ChannelLayout,
    load: Vec<u64>,
    stall_not_routed: Vec<u64>,
    stall_backpressure: Vec<u64>,
}

impl ChannelHeatmap {
    /// An empty heatmap over `layout`'s slots.
    pub fn new(layout: ChannelLayout) -> ChannelHeatmap {
        let n = layout.num_channels;
        ChannelHeatmap {
            layout,
            load: vec![0; n],
            stall_not_routed: vec![0; n],
            stall_backpressure: vec![0; n],
        }
    }

    /// The slot numbering this heatmap uses.
    pub fn layout(&self) -> ChannelLayout {
        self.layout
    }

    /// Flits that entered `slot`'s buffer.
    pub fn load(&self, slot: usize) -> u64 {
        self.load[slot]
    }

    /// Cycles `slot` sat occupied without moving a flit, for any reason.
    pub fn stall_cycles(&self, slot: usize) -> u64 {
        self.stall_not_routed[slot] + self.stall_backpressure[slot]
    }

    /// Stall cycles attributed to an unrouted header at `slot`.
    pub fn stall_not_routed(&self, slot: usize) -> u64 {
        self.stall_not_routed[slot]
    }

    /// Stall cycles attributed to downstream backpressure at `slot`.
    pub fn stall_backpressure(&self, slot: usize) -> u64 {
        self.stall_backpressure[slot]
    }

    /// Total flits recorded across all channels.
    pub fn total_load(&self) -> u64 {
        self.load.iter().sum()
    }

    /// Total stall cycles recorded across all channels.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_not_routed.iter().sum::<u64>() + self.stall_backpressure.iter().sum::<u64>()
    }

    /// The `k` busiest network channels by load, as
    /// `(slot, load, stall_cycles)`, heaviest first.
    pub fn hottest_channels(&self, k: usize) -> Vec<(usize, u64, u64)> {
        let mut v: Vec<(usize, u64, u64)> = (0..self.layout.inj_base)
            .filter(|&s| self.load[s] > 0 || self.stall_cycles(s) > 0)
            .map(|s| (s, self.load[s], self.stall_cycles(s)))
            .collect();
        v.sort_by_key(|&(s, load, stall)| (std::cmp::Reverse((load, stall)), s));
        v.truncate(k);
        v
    }

    /// The `k` channels carrying the most *blocked-cycle mass* — cycles
    /// an occupied buffer failed to advance a flit — as
    /// `(slot, stall_cycles, load)`, heaviest first. Unlike
    /// [`ChannelHeatmap::hottest_channels`] this ranks every slot
    /// (injection backpressure counts as blocked mass too) and orders by
    /// stall time rather than load: it answers *where latency blame
    /// accumulates*, not where traffic flows.
    pub fn blocked_mass_ranking(&self, k: usize) -> Vec<(usize, u64, u64)> {
        let mut v: Vec<(usize, u64, u64)> = (0..self.layout.num_channels)
            .filter(|&s| self.stall_cycles(s) > 0)
            .map(|s| (s, self.stall_cycles(s), self.load[s]))
            .collect();
        v.sort_by_key(|&(s, stall, load)| (std::cmp::Reverse((stall, load)), s));
        v.truncate(k);
        v
    }

    /// Total network-channel load leaving each node's router.
    fn node_loads(&self) -> Vec<u64> {
        let mut per_node = vec![0u64; self.layout.num_nodes];
        for slot in 0..self.layout.inj_base {
            per_node[self.layout.node_of(slot).index()] += self.load[slot];
        }
        per_node
    }

    /// ASCII heatmap of per-node outgoing network load for a 2D layout,
    /// darkest symbol = most loaded. `node_at(x, y)` maps grid position
    /// to the node id (row y printed top-down).
    pub fn render_grid(
        &self,
        width: u16,
        height: u16,
        node_at: impl Fn(u16, u16) -> NodeId,
    ) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let per_node = self.node_loads();
        let max = per_node.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for y in (0..height).rev() {
            for x in 0..width {
                let load = per_node[node_at(x, y).index()];
                let idx = (load * (RAMP.len() as u64 - 1)).div_ceil(max) as usize;
                out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }

    /// JSON: totals plus per-channel entries (non-idle channels only),
    /// each `{"slot", "name", "load", "stall_not_routed",
    /// "stall_backpressure"}`.
    pub fn to_json(&self) -> String {
        let mut entries = String::new();
        let mut first = true;
        for slot in 0..self.layout.num_channels {
            if self.load[slot] == 0 && self.stall_cycles(slot) == 0 {
                continue;
            }
            if !first {
                entries.push(',');
            }
            first = false;
            entries.push_str(&format!(
                "{{\"slot\":{},\"name\":{},\"load\":{},\"stall_not_routed\":{},\"stall_backpressure\":{}}}",
                slot,
                super::json::string(&self.layout.describe(slot)),
                self.load[slot],
                self.stall_not_routed[slot],
                self.stall_backpressure[slot],
            ));
        }
        format!(
            "{{\"total_load\":{},\"total_stall_cycles\":{},\"per_channel\":[{}]}}",
            self.total_load(),
            self.total_stall_cycles(),
            entries
        )
    }
}

impl SimObserver for ChannelHeatmap {
    /// Slots outside the layout (another engine's numbering, a hostile
    /// log) are not counted.
    #[inline]
    fn on_event(&mut self, _now: u64, ev: &Event<'_>) {
        let (counts, slot) = match *ev {
            Event::FlitAdvance { to: Some(to), .. } => (&mut self.load, to),
            Event::Stall { slot, reason, .. } => match reason {
                StallReason::NotRouted => (&mut self.stall_not_routed, slot),
                StallReason::Backpressure => (&mut self.stall_backpressure, slot),
            },
            _ => return,
        };
        if let Some(n) = counts.get_mut(slot) {
            *n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fire;
    use super::*;

    #[test]
    fn records_load_and_stalls() {
        let layout = ChannelLayout::new(4, 2);
        let mut h = ChannelHeatmap::new(layout);
        fire::advance(&mut h, 1, 0, Some(5), 0, false);
        fire::advance(&mut h, 2, 5, Some(9), 0, true);
        fire::advance(&mut h, 3, 9, None, 0, true); // consumed: no load
        fire::stall(&mut h, 4, 5, 1, StallReason::NotRouted);
        fire::stall(&mut h, 5, 5, 1, StallReason::Backpressure);
        assert_eq!(h.load(5), 1);
        assert_eq!(h.load(9), 1);
        assert_eq!(h.total_load(), 2);
        assert_eq!(h.stall_not_routed(5), 1);
        assert_eq!(h.stall_backpressure(5), 1);
        assert_eq!(h.stall_cycles(5), 2);
        assert_eq!(h.total_stall_cycles(), 2);
        let hot = h.hottest_channels(10);
        assert_eq!(hot[0].0, 5);
        assert!(crate::obs::json::validate(&h.to_json()));
    }

    #[test]
    fn blocked_mass_ranks_by_stall_time() {
        let layout = ChannelLayout::new(4, 2);
        let mut h = ChannelHeatmap::new(layout);
        // Slot 9 carries the most traffic but slot 5 blocks the longest;
        // the blame ranking must put 5 first, the load ranking 9.
        for _ in 0..5 {
            fire::advance(&mut h, 0, 0, Some(9), 0, false);
        }
        for c in 0..3 {
            fire::stall(&mut h, c, 5, 1, StallReason::Backpressure);
        }
        fire::stall(&mut h, 0, 9, 0, StallReason::NotRouted);
        // Injection slots participate: stalled sources are blame too.
        fire::stall(&mut h, 0, layout.inj_base, 2, StallReason::Backpressure);
        let ranked = h.blocked_mass_ranking(10);
        assert_eq!(ranked[0], (5, 3, 0));
        assert_eq!(ranked[1], (9, 1, 5));
        assert_eq!(ranked[2], (layout.inj_base, 1, 0));
        assert_eq!(h.blocked_mass_ranking(1).len(), 1);
        assert_eq!(h.hottest_channels(1)[0].0, 9);
    }

    #[test]
    fn degenerate_1xn_line_mesh_heatmap_still_works() {
        use crate::{LengthDist, Sim, SimConfig};
        use turnroute_routing::DimensionOrder;
        use turnroute_topology::Mesh;
        use turnroute_traffic::Uniform;

        // The degenerate 1xN case: a one-dimensional line of 8 routers.
        // Every turn is impossible, the layout has only dim-0 channels,
        // and the grid collapses to a single row.
        let mesh = Mesh::new(vec![8]);
        let routing = DimensionOrder::new("line", vec![0]);
        let pattern = Uniform::new();
        let cfg = SimConfig::builder()
            .injection_rate(0.1)
            .lengths(LengthDist::Fixed(4))
            .seed(3)
            .warmup_cycles(50)
            .measure_cycles(200)
            .drain_cycles(200)
            .build();
        let layout = ChannelLayout::for_topology(&mesh);
        assert_eq!(layout.inj_base, 8 * 2); // two network slots per node
        let obs = ChannelHeatmap::new(layout);
        let mut sim = Sim::with_observer(&mesh, &routing, &pattern, cfg, obs);
        let report = sim.run();
        assert!(report.delivered_packets > 0);
        let h = sim.observer();
        assert!(h.total_load() > 0);
        // Interior nodes carry load in both directions under uniform
        // traffic; the hottest channel must be a genuine network slot.
        let hot = h.hottest_channels(1);
        assert!(
            hot[0].0 < 16,
            "hot slot {} is not a network channel",
            hot[0].0
        );
        // The grid still renders: one row, eight columns, and at least
        // one cell is non-blank.
        let grid = h.render_grid(8, 1, |x, _| NodeId(u32::from(x)));
        let rows: Vec<&str> = grid.lines().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 8);
        assert!(grid.chars().any(|c| c != ' ' && c != '\n'));
        assert!(crate::obs::json::validate(&h.to_json()));
    }

    #[test]
    fn grid_renders_rows() {
        let layout = ChannelLayout::new(4, 2);
        let mut h = ChannelHeatmap::new(layout);
        // Load node 3's eastward slot heavily.
        for _ in 0..10 {
            fire::advance(&mut h, 0, 0, Some(3 * 4), 0, false);
        }
        let grid = h.render_grid(2, 2, |x, y| NodeId(u32::from(y * 2 + x)));
        let rows: Vec<&str> = grid.lines().collect();
        assert_eq!(rows.len(), 2);
        // Node 3 = (x=1, y=1) -> top row, right column is the hot spot.
        assert_eq!(rows[0].len(), 2);
        assert_eq!(&rows[0][1..2], "@");
        assert_eq!(&rows[1][0..1], " ");
    }
}
