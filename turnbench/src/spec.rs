//! The metric tables: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// Metrics a user of the system sees; printed by the untraced run, for
/// every workload, never zero.
pub const END_TO_END: &[(&str, &str)] = &[
    // Host seconds of one repetition's timed body (median over repetitions).
    ("wall_s", "s"),
    // Engine cycles simulated in the timed body per host second.
    ("sim_cycles_per_s", "1/s"),
    // Host seconds to build what the timed body needs (median of several).
    ("setup_s", "s"),
    // VmHWM when the run ends.
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers, named after the module measured; printed by
/// the traced run. A metric reads 0 on a workload whose timed body never
/// enters that layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.engine.ns_per_cycle", "ns"),
    ("sim.engine.ns_per_flit_hop", "ns"),
    ("sim.engine.window_ns_per_cycle_p50", "ns"),
    ("sim.engine.window_ns_per_cycle_p90", "ns"),
    ("sim.engine.flit_hops", "count"),
    ("sim.engine.delivered_packets", "count"),
    ("sim.engine.max_queue_len", "count"),
    ("sim.engine.phase.injection_ns_per_cycle", "ns"),
    ("sim.engine.phase.routing_ns_per_cycle", "ns"),
    ("sim.engine.phase.arbitration_ns_per_cycle", "ns"),
    ("sim.engine.phase.traversal_ns_per_cycle", "ns"),
    ("sim.engine.phase.drain_ns_per_cycle", "ns"),
    ("sim.engine.new_ms", "ms"),
    ("sim.engine.snapshot_ns", "ns"),
    ("sim.engine.restore_ns", "ns"),
    ("routing.mesh_wf_ns_per_decision", "ns"),
    ("routing.cube_pcube_ns_per_decision", "ns"),
    ("topology.min_hops_ns", "ns"),
    ("traffic.ns_per_destination", "ns"),
    ("vc.sim.ns_per_cycle", "ns"),
    ("vc.sim.ns_per_flit_hop", "ns"),
    ("vc.sim.new_ms", "ms"),
    ("vc.table.from_function_ms", "ms"),
    ("experiments.sweep.mesh_s", "s"),
    ("experiments.sweep.cube_s", "s"),
    ("experiments.sweep.render_ms", "ms"),
    ("experiments.sweep.points", "count"),
    ("experiments.sweep.cpu_s", "s"),
    ("experiments.sweep.core_utilisation", "ratio"),
    ("sim.obs.ladder.noop_ns_per_cycle", "ns"),
    ("sim.obs.ladder.armed_ns_per_cycle", "ns"),
    ("sim.obs.ladder.frames_ns_per_cycle", "ns"),
    ("sim.obs.ladder.sanitizer_ns_per_cycle", "ns"),
    ("sim.obs.ladder.log_ns_per_cycle", "ns"),
    ("obslog.record_s", "s"),
    ("obslog.replay_s", "s"),
    ("obslog.log.record_mb_per_s", "MB/s"),
    ("obslog.log.ns_per_event", "ns"),
    ("obslog.log.bytes", "count"),
    ("obslog.log.events", "count"),
    ("obslog.replay.mb_per_s", "MB/s"),
    ("obslog.replay.ns_per_event", "ns"),
    ("obslog.replay.verify_mb_per_s", "MB/s"),
    ("analysis.prove.matrix_s", "s"),
    ("analysis.mc.matrix_s", "s"),
    ("analysis.mc.states_per_s", "1/s"),
    ("analysis.synth.matrix_s", "s"),
    ("analysis.synth.ms_per_entry", "ms"),
    ("analysis.lint.matrix_s", "s"),
    ("analysis.extract.ms", "ms"),
    ("analysis.prove.edges_per_s", "1/s"),
    ("analysis.check.ms", "ms"),
    ("model.cdg_build_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::stats::{valid_name, valid_unit};
    use crate::workloads::WORKLOADS;

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let second = if key == "workloads" { "why" } else { "unit" };
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect("string field");
                (field("name").to_string(), field(second).to_string())
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    /// The contract file at the repository root names exactly what the
    /// benchmark prints.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<_> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed(&doc, "workloads"), owned(&workloads));
        assert!(doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .all(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                bound > 0.0 && bound <= 0.25
            }));
    }
}
