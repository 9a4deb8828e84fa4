//! Schema guard for the checked-in `BENCH_*.json` snapshots.
//!
//! `paper_tables --json` writes machine-readable snapshots that are
//! committed at the repo root so the performance trajectory is tracked
//! per PR. The *numbers* are machine-dependent and free to drift; the
//! *shape* is not — downstream tooling (and EXPERIMENTS.md) reads these
//! files by field name. This test fails when a snapshot is stale
//! relative to the table schema: a renamed table, a renamed or removed
//! field, or a missing snapshot for a table that writes one. Regenerate
//! with:
//!
//! ```text
//! cargo run --release -p monsem-bench --bin paper_tables -- --table all --json .
//! ```

use std::path::PathBuf;

/// Repo root: two levels up from this crate's manifest.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

/// Every snapshot `paper_tables --json` writes, with the field names its
/// schema promises. Keep in sync with the `write_snapshot` calls in
/// `src/bin/paper_tables.rs` — a rename there must rename here *and*
/// regenerate the snapshot.
const SCHEMAS: &[(&str, &str, &[&str])] = &[
    (
        "BENCH_spec_levels.json",
        "spec_levels",
        &[
            "\"unit\"",
            "\"statistic\"",
            "\"main\"",
            "\"fully_traced\"",
            "\"workload\"",
            "\"standard_interpreter\"",
            "\"monitored_interpreter\"",
            "\"instrumented_compiled\"",
            "\"compiled_no_monitor\"",
        ],
    ),
    (
        "BENCH_fig11.json",
        "fig11",
        &[
            "\"unit\"",
            "\"iterations\"",
            "\"points\"",
            "\"traced\"",
            "\"standard\"",
            "\"monitored\"",
        ],
    ),
    (
        "BENCH_tspec.json",
        "tspec_overhead",
        &[
            "\"unit\"",
            "\"workload\"",
            "\"spec\"",
            "\"standard_interpreter\"",
            "\"tspec_safety\"",
            "\"tspec_specialized\"",
        ],
    ),
    (
        "BENCH_tspec_levels.json",
        "tspec_levels",
        &[
            "\"unit\"",
            "\"workload\"",
            "\"spec\"",
            "\"levels\"",
            "\"points\"",
            "\"n\"",
            "\"standard_interpreter\"",
            "\"level1_interpreted_spec\"",
            "\"compiled_no_monitor\"",
            "\"level2_specialized_sites\"",
            "\"level3_self_monitoring\"",
            "\"overhead_level2\"",
            "\"overhead_level3\"",
        ],
    ),
    (
        "BENCH_tiered.json",
        "tiered",
        &[
            "\"unit\"",
            "\"workload\"",
            "\"spec\"",
            "\"policy\"",
            "\"laziness\"",
            "\"cold_runs\"",
            "\"residuals_compiled\"",
            "\"points\"",
            "\"n\"",
            "\"level1_interpreted_spec\"",
            "\"level2_specialized_sites\"",
            "\"level3_self_monitoring\"",
            "\"tiered_steady_state\"",
            "\"tiered_over_level2\"",
            "\"tiered_over_level3\"",
        ],
    ),
    (
        "BENCH_parallel.json",
        "parallel",
        &[
            "\"unit\"",
            "\"host_cpus\"",
            "\"workloads\"",
            "\"shards_merged\"",
            "\"sequential_ms\"",
            "\"points\"",
            "\"threads\"",
            "\"wall_ms\"",
            "\"speedup\"",
        ],
    ),
    (
        "BENCH_stream.json",
        "stream",
        &[
            "\"unit\"",
            "\"workload\"",
            "\"steady_state_allocations\"",
            "\"points\"",
            "\"label\"",
            "\"streams\"",
            "\"window\"",
            "\"memory_bytes\"",
            "\"pass_ms\"",
            "\"events_per_ms\"",
        ],
    ),
    (
        "BENCH_tape.json",
        "tape",
        &[
            "\"unit\"",
            "\"workload\"",
            "\"spec\"",
            "\"events\"",
            "\"bytes_per_event\"",
            "\"live_ms\"",
            "\"record_ms\"",
            "\"encode_ms\"",
            "\"encode_batched_ms\"",
            "\"decode_ms\"",
            "\"check_ms\"",
            "\"check_events_per_ms\"",
            "\"stream_spec\"",
            "\"stream_check_ms\"",
            "\"owned_check_ms\"",
            "\"view_check_ms\"",
            "\"view_check_events_per_ms\"",
            "\"owned_over_view\"",
            "\"server_ingest_ms\"",
            "\"server_events_per_ms\"",
        ],
    ),
    (
        "BENCH_server_scale.json",
        "server_scale",
        &[
            "\"unit\"",
            "\"host_cpus\"",
            "\"shards\"",
            "\"spec\"",
            "\"events_per_producer\"",
            "\"default_batch\"",
            "\"verdicts_asserted_against_offline_oracle\"",
            "\"offline_check\"",
            "\"points\"",
            "\"transport\"",
            "\"producers\"",
            "\"total_events\"",
            "\"wall_ms\"",
            "\"events_per_ms\"",
            "\"batch_ablation\"",
            "\"whole_tape_image\"",
            "\"sync_per_event\"",
            "\"checkpoint\"",
            "\"checkpoint_every\"",
            "\"full_check_ms\"",
            "\"seeded_check_ms\"",
            "\"resumed_at\"",
            "\"replayed\"",
            "\"speedup\"",
        ],
    ),
    (
        "BENCH_server_conns.json",
        "server_conns",
        &[
            "\"unit\"",
            "\"host_cpus\"",
            "\"shards\"",
            "\"io_threads\"",
            "\"drivers\"",
            "\"spec\"",
            "\"verdicts_asserted_against_offline_oracle\"",
            "\"points\"",
            "\"backend\"",
            "\"conns\"",
            "\"events_per_conn\"",
            "\"total_events\"",
            "\"wall_ms\"",
            "\"events_per_ms\"",
            "\"peak_threads\"",
            "\"peak_rss_kb\"",
        ],
    ),
    (
        "BENCH_ablations.json",
        "ablations",
        &["\"rows\"", "\"name\"", "\"wall_ms\""],
    ),
    (
        "BENCH_monitor_overhead.json",
        "monitor_overhead",
        &["\"workload\"", "\"rows\"", "\"monitor\"", "\"wall_ms\""],
    ),
    (
        "BENCH_cascade.json",
        "cascade",
        &[
            "\"workload\"",
            "\"depths\"",
            "\"depth\"",
            "\"language_modules\"",
            "\"module\"",
            "\"wall_ms\"",
        ],
    ),
];

#[test]
fn checked_in_snapshots_match_the_table_schemas() {
    let root = root();
    let mut problems: Vec<String> = Vec::new();
    for (file, table, fields) in SCHEMAS {
        let path = root.join(file);
        let Ok(body) = std::fs::read_to_string(&path) else {
            problems.push(format!("{file}: missing — regenerate with --table {table}"));
            continue;
        };
        let tag = format!("\"table\": \"{table}\"");
        if !body.contains(&tag) {
            problems.push(format!("{file}: expected {tag}"));
        }
        for field in *fields {
            if !body.contains(field) {
                problems.push(format!(
                    "{file}: field {field} missing — snapshot stale vs the {table} schema"
                ));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "stale BENCH snapshots:\n  {}",
        problems.join("\n  ")
    );
}

/// Every snapshot says where and how it was measured, and every timed
/// field in it is a spread from the one harness.
#[test]
fn every_snapshot_records_its_provenance_and_the_harness_statistic() {
    let statistic = format!("\"statistic\": {:?}", monsem_bench::harness::statistic());
    let mut problems: Vec<String> = Vec::new();
    for (file, _, _) in SCHEMAS {
        let Ok(body) = std::fs::read_to_string(root().join(file)) else {
            problems.push(format!("{file}: missing"));
            continue;
        };
        for field in [
            "\"host_cpus\"",
            "\"revision\"",
            "\"q10\"",
            "\"q50\"",
            "\"q90\"",
        ] {
            if !body.contains(field) {
                problems.push(format!("{file}: field {field} missing"));
            }
        }
        if !body.contains(&statistic) {
            problems.push(format!("{file}: not measured with the harness's statistic"));
        }
    }
    assert!(
        problems.is_empty(),
        "snapshots without provenance:\n  {}",
        problems.join("\n  ")
    );
}

/// `SCHEMAS` and the checked-in snapshots list the same files: a new
/// table's snapshot cannot go unchecked, and a schema cannot outlive its
/// table.
#[test]
fn every_checked_in_snapshot_has_a_schema() {
    let mut on_disk: Vec<String> = std::fs::read_dir(root())
        .expect("repo root lists")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    on_disk.sort();
    let mut schemas: Vec<String> = SCHEMAS
        .iter()
        .map(|(file, _, _)| file.to_string())
        .collect();
    schemas.sort();
    assert_eq!(on_disk, schemas, "checked-in BENCH_*.json vs SCHEMAS");
}

/// The static-memory claim in the stream snapshot is load-bearing (the
/// bench asserts it with a counting global allocator before writing):
/// steady-state stream evaluation performs zero heap allocations.
#[test]
fn stream_snapshot_records_allocation_free_steady_state() {
    let body = std::fs::read_to_string(root().join("BENCH_stream.json"))
        .expect("BENCH_stream.json is checked in");
    assert!(
        body.contains("\"steady_state_allocations\": 0"),
        "the stream snapshot must record an allocation-free steady state"
    );
}

/// The honesty claim in the server-scale snapshot is load-bearing (the
/// bench asserts every timed point's verdict against the offline oracle
/// before the clock starts): a fast number with a wrong verdict is not
/// a number.
#[test]
fn server_scale_snapshot_records_oracle_checked_verdicts() {
    let body = std::fs::read_to_string(root().join("BENCH_server_scale.json"))
        .expect("BENCH_server_scale.json is checked in");
    assert!(
        body.contains("\"verdicts_asserted_against_offline_oracle\": true"),
        "the server-scale snapshot must record oracle-checked verdicts"
    );
}

/// Same honesty claim for the connection sweep, plus the snapshot must
/// actually hold reactor rows up to the C=1024 point — a sweep that
/// silently dropped its points would still have valid fields.
#[test]
fn server_conns_snapshot_covers_the_reactor_with_oracle_checked_verdicts() {
    let body = std::fs::read_to_string(root().join("BENCH_server_conns.json"))
        .expect("BENCH_server_conns.json is checked in");
    assert!(
        body.contains("\"verdicts_asserted_against_offline_oracle\": true"),
        "the server-conns snapshot must record oracle-checked verdicts"
    );
    assert!(
        body.contains("\"backend\": \"reactor"),
        "the server-conns snapshot must hold reactor rows"
    );
    assert!(
        body.contains("\"conns\": 1024"),
        "the server-conns snapshot must include the C=1024 point"
    );
}

/// The forking claim in the parallel snapshot is load-bearing (the bench
/// asserts it before timing): every workload's run merged its 8 shards,
/// so the thread axis times fork-join evaluation, not the sequential
/// machine.
#[test]
fn parallel_snapshot_records_forked_workloads() {
    let body = std::fs::read_to_string(root().join("BENCH_parallel.json"))
        .expect("BENCH_parallel.json is checked in");
    let workloads = body.matches("\"workload\":").count();
    assert!(workloads > 0, "the parallel snapshot must hold workloads");
    assert_eq!(
        body.matches("\"shards_merged\": 8").count(),
        workloads,
        "every parallel workload must record its 8 merged shards"
    );
}

/// The laziness claim in the tiered snapshot is load-bearing (the bench
/// asserts it before writing): a cold session compiles zero residuals.
#[test]
fn tiered_snapshot_records_lazy_compilation() {
    let body = std::fs::read_to_string(root().join("BENCH_tiered.json"))
        .expect("BENCH_tiered.json is checked in");
    assert!(
        body.contains("\"residuals_compiled\": 0"),
        "the tiered snapshot must record zero cold-session compilations"
    );
}
