//! The metrics `BENCHMARK.json` declares, and which end-to-end metric
//! each per-layer metric should move on which workload.

/// `(name, unit, better)` of every end-to-end metric, reported by every
/// workload with `--trace 0`.
///
/// `op_p50_ms` is the median of the workload's unit of work: one batch
/// solve on `batch_stock`, one acknowledged ingest everywhere else.
/// `claims_per_s` counts claims solved or acknowledged per second; on
/// the ingest workloads, in the median window of the run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("claims_per_s", "claims/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, reported by every
/// workload with `--trace 1` (0 where the workload does not reach the
/// layer). Per-operation times are means over the traced operations, so
/// the serve ledger adds up.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.table.build_ms", "ms", "lower"),
    ("core.columnar.prepare_ms", "ms", "lower"),
    ("core.solver.run_ms", "ms", "lower"),
    ("core.solver.iterations", "count", "lower"),
    ("core.kernels.sweep_ms", "ms", "lower"),
    ("stream.icrh.process_chunk_ms", "ms", "lower"),
    ("stream.icrh.weight_history_len", "count", "lower"),
    ("serve.proto.encode_ms", "ms", "lower"),
    ("serve.proto.decode_ms", "ms", "lower"),
    ("serve.proto.frame_bytes_per_claim", "bytes", "lower"),
    ("serve.wal.append_ms", "ms", "lower"),
    ("serve.wal.bytes_per_claim", "bytes", "lower"),
    ("serve.core.snapshot_ms", "ms", "lower"),
    ("serve.core.snapshot_bytes", "bytes", "lower"),
    ("serve.core.ingest_ms", "ms", "lower"),
    ("serve.core.unattributed_ms", "ms", "lower"),
    ("serve.core.truth_ms", "ms", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.server.ack_overhead_ms", "ms", "lower"),
    ("serve.server.read_wait_ms", "ms", "lower"),
    ("serve.replicate.stage_ms", "ms", "lower"),
    ("serve.replicate.commit_wait_ms", "ms", "lower"),
    ("serve.replicate.steps_per_commit", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
];

/// `(layer metric, end-to-end metrics it should move, workloads)`; the
/// gated workloads come first, then the ungated `ingest_small`, where
/// the per-chunk fixed costs are largest.
/// End-to-end names in this table include the per-workload values of
/// the report line (`ack_p99_ms`, `read_p50_ms`, ...); `op_p50_ms` is
/// `solve_s` on `batch_stock` and `ack_p50_ms` on the ingest workloads.
pub const LAYER_MAP: &[(&str, &str, &str)] = &[
    (
        "core.table.build_ms",
        "solve_s; ack_p50_ms",
        "batch_stock; ingest_large_reads",
    ),
    ("core.columnar.prepare_ms", "solve_s", "batch_stock"),
    ("core.solver.run_ms", "solve_s", "batch_stock"),
    ("core.solver.iterations", "solve_s", "batch_stock"),
    (
        "core.kernels.sweep_ms",
        "solve_s; ack_p50_ms",
        "batch_stock; ingest_large_reads",
    ),
    (
        "stream.icrh.process_chunk_ms",
        "ack_p50_ms; read_p99_ms",
        "ingest_large_reads",
    ),
    (
        "stream.icrh.weight_history_len",
        "rss_growth_mb",
        "ingest_large_reads; ingest_small",
    ),
    (
        "serve.proto.encode_ms",
        "ack_p50_ms; claims_per_s",
        "ingest_large_reads",
    ),
    (
        "serve.proto.decode_ms",
        "ack_p50_ms; claims_per_s",
        "ingest_large_reads",
    ),
    (
        "serve.proto.frame_bytes_per_claim",
        "ack_p50_ms; claims_per_s",
        "ingest_large_reads",
    ),
    (
        "serve.wal.append_ms",
        "ack_p50_ms",
        "ingest_large_reads; ingest_small",
    ),
    (
        "serve.wal.bytes_per_claim",
        "ack_p50_ms",
        "ingest_large_reads; ingest_small",
    ),
    (
        "serve.core.snapshot_ms",
        "ack_p99_ms",
        "ingest_large_reads; ingest_small",
    ),
    (
        "serve.core.snapshot_bytes",
        "ack_p99_ms",
        "ingest_large_reads; ingest_small",
    ),
    (
        "serve.core.ingest_ms",
        "ack_p50_ms",
        "ingest_large_reads; ingest_replicated; ingest_small",
    ),
    (
        "serve.core.unattributed_ms",
        "ack_p50_ms",
        "ingest_large_reads; ingest_replicated; ingest_small",
    ),
    ("serve.core.truth_ms", "read_p50_ms", "ingest_large_reads"),
    ("serve.cache.hit_ratio", "read_p50_ms", "ingest_large_reads"),
    (
        "serve.server.ack_overhead_ms",
        "ack_p50_ms",
        "ingest_large_reads; ingest_small",
    ),
    (
        "serve.server.read_wait_ms",
        "read_p99_ms",
        "ingest_large_reads",
    ),
    (
        "serve.replicate.stage_ms",
        "ack_p50_ms",
        "ingest_replicated",
    ),
    (
        "serve.replicate.commit_wait_ms",
        "ack_p50_ms; claims_per_s",
        "ingest_replicated",
    ),
    (
        "serve.replicate.steps_per_commit",
        "ack_p50_ms",
        "ingest_replicated",
    ),
    (
        "trace.overhead_ms",
        "none (cost of the spans themselves)",
        "all",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn declared_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("value opens") + 1..];
                s[..s.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.extend(crate::WORKLOADS);
        all.extend(crate::UNGATED_WORKLOADS);
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate names");
    }

    #[test]
    fn every_layer_metric_is_mapped() {
        let mapped: Vec<&str> = LAYER_MAP.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(mapped, declared);
    }

    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |list: &[(&str, &str, &str)]| -> Vec<String> {
            list.iter().map(|m| m.0.to_string()).collect()
        };
        assert_eq!(declared_names(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(declared_names(&json, "per_layer"), names(PER_LAYER));
        assert_eq!(
            declared_names(&json, "workloads"),
            crate::WORKLOADS.to_vec()
        );
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let needle =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&needle), "{needle}");
        }
    }
}
