//! The benchmark's metric tables: every name it can print, with its unit,
//! its better direction and the clock it is read from. `BENCHMARK.json`
//! mirrors these tables; a test keeps the two in step.

/// Which clock or counter a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Elapsed real time.
    Wall,
    /// Process user + system CPU time.
    Cpu,
    /// The platform simulator's modelled time (exact, not measured).
    Sim,
    /// Resident memory.
    Mem,
    /// An exact count or a ratio of counts.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Sim => "sim",
            Clock::Mem => "mem",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub clock: Clock,
}

const fn m(name: &'static str, unit: &'static str, higher: bool, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        clock,
    }
}

use Clock::*;

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", false, Wall),
    m("latency_p50_ms", "ms", false, Wall),
    m("latency_p90_ms", "ms", false, Wall),
    m("throughput_rps", "req/s", true, Wall),
    m("cpu_ms_per_req", "ms", false, Cpu),
    m("peak_rss_mb", "MB", false, Mem),
];

/// Printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("threshold.plan_ms", "ms", false, Wall),
    m("hetsim.widths_ms", "ms", false, Wall),
    m("phase1.build_ms", "ms", false, Wall),
    m("scalefree.gen_ms", "ms", false, Wall),
    m("serve.gen_ms", "ms", false, Wall),
    m("registry.insert_ms", "ms", false, Wall),
    m("registry.evictions_per_req", "count", false, Count),
    m("artifacts.hit_ratio", "count", true, Count),
    m("artifacts.lookup_us", "us", false, Wall),
    m("registry.resolve_us", "us", false, Wall),
    m("wire.decode_us", "us", false, Wall),
    m("context.build_ms", "ms", false, Wall),
    m("hhcpu.run_ms", "ms", false, Wall),
    m("hetsim.claim_cost_ms", "ms", false, Wall),
    m("schedule.execute_ms", "ms", false, Wall),
    m("schedule.mflops", "Mflop/s", true, Wall),
    m("hhcpu.flops", "count", false, Count),
    m("hhcpu.c_nnz", "count", false, Count),
    m("hhcpu.tuples_merged", "count", false, Count),
    m("hhcpu.sim_total_ms", "sim_ms", false, Sim),
    m("wire.encode_ms", "ms", false, Wall),
    m("shard.run_ms", "ms", false, Wall),
    m("shard.spilled_bands", "count", false, Count),
    m("shard.peak_resident_mb", "MB", false, Mem),
    m("shard.spill_wait_ms", "ms", false, Wall),
    m("shard.admit_wait_ms", "ms", false, Wall),
    m("shard.workers", "count", true, Count),
    m("shard.stitch_ms", "ms", false, Wall),
    m("io.spill_write_mb_s", "MB/s", true, Wall),
    m("io.spill_read_mb_s", "MB/s", true, Wall),
    m("request.self_ms", "ms", false, Wall),
    m("trace.overhead_pct", "%", false, Wall),
];

pub fn find(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_spmm::serve::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names");
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_table(doc: &Json, key: &str, table: &[MetricDef]) {
        let entries = doc.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(entries.len(), table.len(), "{key}: metric count");
        for (entry, def) in entries.iter().zip(table) {
            assert_eq!(entry.str_field("name"), Some(def.name), "{key}");
            assert_eq!(entry.str_field("unit"), Some(def.unit), "{}", def.name);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.str_field("better"), Some(better), "{}", def.name);
        }
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let doc = benchmark_json();
        check_table(&doc, "end_to_end", END_TO_END);
        check_table(&doc, "per_layer", PER_LAYER);
        for w in doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
        {
            let name = w.str_field("name").expect("workload name");
            assert!(
                crate::workload::Workload::parse(name).is_some(),
                "BENCHMARK.json names unknown workload {name}"
            );
        }
    }
}
