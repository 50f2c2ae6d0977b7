//! A labeled metrics registry with Prometheus-style text exposition and
//! key-ordered JSON snapshots.
//!
//! Metrics are named series of counters, gauges, or streaming histograms,
//! each optionally labeled. Storage is `BTreeMap`-backed and label sets
//! are canonicalized (sorted by key), so both expositions are
//! byte-deterministic: the same recorded values render the same bytes, no
//! matter in what order code touched the registry.

use crate::artifact;
use std::collections::BTreeMap;
use turnroute_sim::obs::{ChannelHeatmap, StreamingHistogram, TurnCensus};
use turnroute_sim::{Alert, SimReport, TelemetryFrame};

/// One recorded value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(StreamingHistogram),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Metric {
    help: String,
    /// Keyed by the canonical label rendering (`k="v",k2="v2"`), which
    /// sorts series deterministically.
    series: BTreeMap<String, Value>,
}

/// A registry of labeled metrics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

/// Canonical label rendering: sorted by key, Prometheus-style quoting.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut labels: Vec<&(&str, &str)> = labels.iter().collect();
    labels.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// Render a float for both expositions: Rust's shortest-round-trip
/// `Display` is deterministic and never uses scientific notation in the
/// ranges these metrics occupy.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn entry(&mut self, name: &str, help: &str) -> &mut Metric {
        debug_assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {name:?}"
        );
        self.metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric {
                help: help.to_string(),
                series: BTreeMap::new(),
            })
    }

    /// Add `v` to a counter series, creating it at zero if absent.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different type.
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        let slot = self
            .entry(name, help)
            .series
            .entry(label_key(labels))
            .or_insert(Value::Counter(0));
        match slot {
            Value::Counter(c) => *c += v,
            other => panic!("{name} is a {}, not a counter", other.type_name()),
        }
    }

    /// Set a gauge series to `v`.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different type.
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        let slot = self
            .entry(name, help)
            .series
            .entry(label_key(labels))
            .or_insert(Value::Gauge(0.0));
        match slot {
            Value::Gauge(g) => *g = v,
            other => panic!("{name} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Record one sample into a histogram series.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different type.
    pub fn histogram_record(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        let slot = self
            .entry(name, help)
            .series
            .entry(label_key(labels))
            .or_insert_with(|| Value::Histogram(StreamingHistogram::new()));
        match slot {
            Value::Histogram(h) => h.record(v),
            other => panic!("{name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Merge a whole [`StreamingHistogram`] into a histogram series.
    ///
    /// # Panics
    ///
    /// Panics if the series already exists with a different type.
    pub fn histogram_merge(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        other: &StreamingHistogram,
    ) {
        let slot = self
            .entry(name, help)
            .series
            .entry(label_key(labels))
            .or_insert_with(|| Value::Histogram(StreamingHistogram::new()));
        match slot {
            Value::Histogram(h) => h.merge(other),
            other => panic!("{name} is a {}, not a histogram", other.type_name()),
        }
    }

    /// Number of registered metric names.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Prometheus text exposition (`# HELP` / `# TYPE` / samples).
    /// Histograms expose cumulative `_bucket{le=...}`, `_sum`, and
    /// `_count` samples using the streaming histogram's own bucket upper
    /// bounds.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let type_name = m.series.values().next().map_or("gauge", Value::type_name);
            out.push_str(&format!("# HELP {name} {}\n", m.help.replace('\n', " ")));
            out.push_str(&format!("# TYPE {name} {type_name}\n"));
            for (labels, value) in &m.series {
                match value {
                    Value::Counter(c) => {
                        out.push_str(&sample(name, labels, &c.to_string()));
                    }
                    Value::Gauge(g) => {
                        out.push_str(&sample(name, labels, &fmt_f64(*g)));
                    }
                    Value::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (_, hi, c) in h.buckets() {
                            cumulative += c;
                            let le = format!("le=\"{hi}\"");
                            let all = if labels.is_empty() {
                                le
                            } else {
                                format!("{labels},{le}")
                            };
                            out.push_str(&sample(
                                &format!("{name}_bucket"),
                                &all,
                                &cumulative.to_string(),
                            ));
                        }
                        let le = "le=\"+Inf\"".to_string();
                        let all = if labels.is_empty() {
                            le
                        } else {
                            format!("{labels},{le}")
                        };
                        out.push_str(&sample(
                            &format!("{name}_bucket"),
                            &all,
                            &h.count().to_string(),
                        ));
                        out.push_str(&sample(
                            &format!("{name}_sum"),
                            labels,
                            &h.sum().to_string(),
                        ));
                        out.push_str(&sample(
                            &format!("{name}_count"),
                            labels,
                            &h.count().to_string(),
                        ));
                    }
                }
            }
        }
        out
    }

    /// The registry as one key-ordered JSON object.
    pub fn json_snapshot(&self) -> String {
        let mut metrics = artifact::JsonObject::new();
        for (name, m) in &self.metrics {
            let mut series = String::from("[");
            for (i, (labels, value)) in m.series.iter().enumerate() {
                if i > 0 {
                    series.push(',');
                }
                let value_json = match value {
                    Value::Counter(c) => c.to_string(),
                    Value::Gauge(g) => fmt_f64(*g),
                    Value::Histogram(h) => h.to_json(),
                };
                series.push_str(&format!(
                    "{{\"labels\":{},\"value\":{}}}",
                    artifact::string(labels),
                    value_json
                ));
            }
            series.push(']');
            let mut obj = artifact::JsonObject::new();
            obj.set_str("help", &m.help);
            obj.set_str(
                "type",
                m.series.values().next().map_or("gauge", Value::type_name),
            );
            obj.set("series", series);
            metrics.set(name, obj.render());
        }
        let mut root = artifact::JsonObject::new();
        root.set("metrics", metrics.render());
        root.render()
    }
}

fn sample(name: &str, labels: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{labels}}} {value}\n")
    }
}

/// Export a [`ChannelHeatmap`] onto `reg`: total and per-channel load and
/// stall counters labeled by channel name.
pub fn export_heatmap(reg: &mut Registry, heatmap: &ChannelHeatmap) {
    let layout = heatmap.layout();
    reg.counter_add(
        "turnroute_flits_total",
        "Flits that entered any channel buffer",
        &[],
        heatmap.total_load(),
    );
    reg.counter_add(
        "turnroute_stall_cycles_total",
        "Cycles any occupied channel failed to advance",
        &[],
        heatmap.total_stall_cycles(),
    );
    for slot in 0..layout.num_channels {
        let load = heatmap.load(slot);
        let stalls = heatmap.stall_cycles(slot);
        if load == 0 && stalls == 0 {
            continue;
        }
        let name = layout.describe(slot);
        if load > 0 {
            reg.counter_add(
                "turnroute_channel_load_total",
                "Flits that entered this channel's buffer",
                &[("channel", &name)],
                load,
            );
        }
        if heatmap.stall_not_routed(slot) > 0 {
            reg.counter_add(
                "turnroute_channel_stall_cycles_total",
                "Stall cycles on this channel, by cause",
                &[("channel", &name), ("reason", "not_routed")],
                heatmap.stall_not_routed(slot),
            );
        }
        if heatmap.stall_backpressure(slot) > 0 {
            reg.counter_add(
                "turnroute_channel_stall_cycles_total",
                "Stall cycles on this channel, by cause",
                &[("channel", &name), ("reason", "backpressure")],
                heatmap.stall_backpressure(slot),
            );
        }
    }
}

/// Export a [`TurnCensus`] onto `reg`: totals by kind and per-turn
/// counters labeled by the turn's rendering.
pub fn export_census(reg: &mut Registry, census: &TurnCensus) {
    let (straight, ninety, one_eighty) = census.by_kind();
    for (kind, n) in [
        ("straight", straight),
        ("ninety", ninety),
        ("one_eighty", one_eighty),
    ] {
        reg.counter_add(
            "turnroute_turns_total",
            "Turns taken by headers, by turn kind",
            &[("kind", kind)],
            n,
        );
    }
    for (turn, n) in census.nonzero() {
        reg.counter_add(
            "turnroute_turn_taken_total",
            "Times this direction pair was taken",
            &[("turn", &turn.to_string())],
            n,
        );
    }
}

/// Export a latency histogram onto `reg` as `turnroute_latency_cycles`.
pub fn export_latency(reg: &mut Registry, hist: &StreamingHistogram) {
    reg.histogram_merge(
        "turnroute_latency_cycles",
        "Packet latency, creation to tail consumption, in cycles",
        &[],
        hist,
    );
}

/// Export a telemetry frame stream onto `reg` as *windowed* series:
/// per-frame gauges and latency histograms labeled by frame `seq`, plus
/// alert counters by detector kind. This is the `turnstat frames --prom`
/// exposition — one sample per window, so a scraper (or a human with
/// grep) can see the congestion trajectory, not just run totals.
pub fn export_frames(reg: &mut Registry, frames: &[TelemetryFrame], alerts: &[Alert]) {
    for f in frames {
        let seq = f.seq.to_string();
        let labels: [(&str, &str); 1] = [("seq", seq.as_str())];
        for (name, help, v) in [
            (
                "turnroute_frame_injected_packets",
                "Packets injected during the frame window",
                f.injected_packets,
            ),
            (
                "turnroute_frame_delivered_packets",
                "Packets delivered during the frame window",
                f.delivered_packets,
            ),
            (
                "turnroute_frame_dropped_packets",
                "Packets dropped during the frame window",
                f.dropped_packets,
            ),
            (
                "turnroute_frame_in_flight_packets",
                "Packets in flight at frame seal time",
                f.in_flight_packets,
            ),
            (
                "turnroute_frame_open_heal_epochs",
                "Healing epochs open at frame seal time",
                f.open_heal_epochs,
            ),
            (
                "turnroute_frame_blocked_mass",
                "Blocked-cycle mass across all channels in the window",
                f.blocked_mass(),
            ),
            (
                "turnroute_frame_window_end",
                "Last cycle the frame window covers",
                f.window_end,
            ),
        ] {
            reg.gauge_set(name, help, &labels, v as f64);
        }
        if f.latency.count() > 0 {
            reg.histogram_merge(
                "turnroute_frame_latency_cycles",
                "Latency of deliveries inside the frame window, in cycles",
                &labels,
                &f.latency,
            );
        }
    }
    reg.counter_add(
        "turnroute_frames_exported_total",
        "Telemetry frames in this exposition",
        &[],
        frames.len() as u64,
    );
    for a in alerts {
        reg.counter_add(
            "turnroute_alerts_by_kind_total",
            "Early-warning alerts, by detector kind",
            &[("kind", a.kind.name())],
            1,
        );
    }
}

/// Export a [`SimReport`]'s headline numbers onto `reg` as gauges.
pub fn export_report(reg: &mut Registry, report: &SimReport) {
    let g = [
        (
            "turnroute_report_generated_packets",
            "Packets generated",
            report.generated_packets as f64,
        ),
        (
            "turnroute_report_delivered_packets",
            "Packets delivered",
            report.delivered_packets as f64,
        ),
        (
            "turnroute_report_dropped_packets",
            "Packets dropped",
            report.dropped_packets as f64,
        ),
        (
            "turnroute_report_avg_latency_cycles",
            "Mean packet latency in cycles",
            report.avg_latency_cycles,
        ),
        (
            "turnroute_report_p99_latency_cycles",
            "p99 packet latency in cycles",
            report.p99_latency_cycles,
        ),
        (
            "turnroute_report_avg_hops",
            "Mean hops per delivered packet",
            report.avg_hops,
        ),
        (
            "turnroute_report_deadlocked",
            "1 when the run ended in deadlock",
            f64::from(u8::from(report.deadlocked)),
        ),
    ];
    for (name, help, v) in g {
        reg.gauge_set(name, help, &[], v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_deterministic_under_insertion_order() {
        let mut a = Registry::new();
        a.counter_add("z_total", "z", &[("b", "2"), ("a", "1")], 5);
        a.gauge_set("a_gauge", "a", &[], 1.5);
        let mut b = Registry::new();
        b.gauge_set("a_gauge", "a", &[], 1.5);
        b.counter_add("z_total", "z", &[("a", "1"), ("b", "2")], 5);
        assert_eq!(a.prometheus_text(), b.prometheus_text());
        assert_eq!(a.json_snapshot(), b.json_snapshot());
        assert!(a.prometheus_text().starts_with("# HELP a_gauge a\n"));
        assert!(a.prometheus_text().contains("z_total{a=\"1\",b=\"2\"} 5\n"));
    }

    #[test]
    fn histogram_exposes_cumulative_buckets() {
        let mut r = Registry::new();
        for v in [1u64, 1, 5, 40] {
            r.histogram_record("lat", "latency", &[], v);
        }
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"5\"} 3\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("lat_sum 47\n"));
        assert!(text.contains("lat_count 4\n"));
        assert!(turnroute_sim::obs::json::validate(&r.json_snapshot()));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = Registry::new();
        r.counter_add("c_total", "c", &[("name", "a\"b\\c")], 1);
        assert!(r
            .prometheus_text()
            .contains("c_total{name=\"a\\\"b\\\\c\"} 1\n"));
        assert!(turnroute_sim::obs::json::validate(&r.json_snapshot()));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut r = Registry::new();
        r.gauge_set("m", "m", &[], 1.0);
        r.counter_add("m", "m", &[], 1);
    }

    #[test]
    fn collector_exports_land_on_the_registry() {
        use turnroute_sim::obs::{ChannelLayout, Event};
        use turnroute_sim::{PacketId, SimObserver};
        use turnroute_topology::Direction;
        let layout = ChannelLayout::new(4, 2);
        let mut heatmap = ChannelHeatmap::new(layout);
        let packet = PacketId(0);
        let (from, to, is_tail) = (0, Some(5), false);
        heatmap.on_event(
            0,
            &Event::FlitAdvance {
                from,
                to,
                packet,
                is_tail,
            },
        );
        let mut census = TurnCensus::new(2);
        let at = turnroute_topology::NodeId(0);
        let turn = turnroute_model::Turn::new(Direction::EAST, Direction::NORTH);
        census.on_event(0, &Event::Turn { packet, at, turn });
        let mut hist = StreamingHistogram::new();
        hist.record(10);
        let mut reg = Registry::new();
        export_heatmap(&mut reg, &heatmap);
        export_census(&mut reg, &census);
        export_latency(&mut reg, &hist);
        let text = reg.prometheus_text();
        assert!(text.contains("turnroute_flits_total 1"));
        assert!(text.contains("turnroute_turns_total{kind=\"ninety\"} 1"));
        assert!(text.contains("turnroute_latency_cycles_count 1"));
    }

    #[test]
    fn empty_registry_exposes_empty_but_valid_documents() {
        let r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.prometheus_text(), "");
        assert_eq!(r.json_snapshot(), "{\"metrics\":{}}");
        assert!(turnroute_sim::obs::json::validate(&r.json_snapshot()));
    }

    #[test]
    fn every_escapable_label_character_is_escaped() {
        // Backslash, double quote, and newline each have a dedicated
        // escape in the Prometheus exposition; all three must survive a
        // round trip through one label value without colliding.
        let mut r = Registry::new();
        r.counter_add("esc_total", "e", &[("v", "back\\slash")], 1);
        r.counter_add("esc_total", "e", &[("v", "quo\"te")], 2);
        r.counter_add("esc_total", "e", &[("v", "new\nline")], 3);
        let text = r.prometheus_text();
        assert!(text.contains("esc_total{v=\"back\\\\slash\"} 1\n"));
        assert!(text.contains("esc_total{v=\"quo\\\"te\"} 2\n"));
        assert!(text.contains("esc_total{v=\"new\\nline\"} 3\n"));
        // The raw newline must NOT appear inside any sample line.
        for line in text.lines() {
            assert!(!line.contains("new\nline"));
        }
        assert!(turnroute_sim::obs::json::validate(&r.json_snapshot()));
    }

    #[test]
    fn zero_observation_histogram_exposes_consistent_zeros() {
        let mut r = Registry::new();
        r.histogram_merge("lat", "latency", &[], &StreamingHistogram::new());
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("lat_sum 0\n"));
        assert!(text.contains("lat_count 0\n"));
        // No finite bucket may claim observations.
        for line in text.lines() {
            if line.starts_with("lat_bucket") {
                assert!(line.ends_with(" 0"), "nonzero bucket in {line}");
            }
        }
        assert!(turnroute_sim::obs::json::validate(&r.json_snapshot()));
    }

    #[test]
    fn frame_stream_exports_windowed_series() {
        use turnroute_sim::obs::ChannelWindow;
        use turnroute_sim::{Alert, AlertKind};
        let mut latency = StreamingHistogram::new();
        latency.record(12);
        let frames = [
            TelemetryFrame {
                seq: 0,
                window_start: 0,
                window_end: 99,
                injected_packets: 4,
                delivered_packets: 3,
                dropped_packets: 0,
                in_flight_packets: 1,
                open_heal_epochs: 0,
                latency,
                channels: vec![ChannelWindow {
                    slot: 2,
                    util: 7,
                    blocked: 40,
                }],
            },
            TelemetryFrame {
                seq: 1,
                window_start: 100,
                window_end: 199,
                injected_packets: 0,
                delivered_packets: 0,
                dropped_packets: 0,
                in_flight_packets: 1,
                open_heal_epochs: 0,
                latency: StreamingHistogram::new(),
                channels: Vec::new(),
            },
        ];
        let alerts = [Alert {
            kind: AlertKind::BlockedMassGrowth,
            seq: 1,
            cycle: 199,
            slot: None,
            value: 999,
            threshold: 512,
        }];
        let mut reg = Registry::new();
        export_frames(&mut reg, &frames, &alerts);
        let text = reg.prometheus_text();
        assert!(text.contains("turnroute_frame_blocked_mass{seq=\"0\"} 40\n"));
        assert!(text.contains("turnroute_frame_blocked_mass{seq=\"1\"} 0\n"));
        assert!(text.contains("turnroute_frame_delivered_packets{seq=\"0\"} 3\n"));
        assert!(text.contains("turnroute_frame_latency_cycles_count{seq=\"0\"} 1\n"));
        assert!(text.contains("turnroute_frames_exported_total 2\n"));
        assert!(text.contains("turnroute_alerts_by_kind_total{kind=\"blocked_mass_growth\"} 1\n"));
        assert!(turnroute_sim::obs::json::validate(&reg.json_snapshot()));
    }
}
