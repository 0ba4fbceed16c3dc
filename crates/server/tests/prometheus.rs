//! Prometheus exposition tests.
//!
//! 1. **Golden file** — a fully deterministic `Metrics` + store +
//!    persistence snapshot rendered through `to_prometheus` must match
//!    `tests/golden/metrics.prom` byte for byte: family ordering, `# HELP`
//!    / `# TYPE` lines, label rendering, and cumulative histogram buckets
//!    are all pinned.
//! 2. **Reconciliation** — drive a live server over real sockets, then
//!    render the *same* frozen snapshots as JSON and as Prometheus text
//!    and walk every JSON field (scalars, per-shard counters, every
//!    histogram bucket) asserting the text agrees exactly. Unknown JSON
//!    keys fail the walk, so a counter added to one rendering but not the
//!    other cannot slip through.
//! 3. **Negotiation** — `?format=prometheus` and `Accept: text/plain`
//!    serve the text form with its content type; `?format=json` keeps
//!    JSON; an unknown format is a 400.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use routes_model::JoinSnapshot;
use routes_server::json::{parse, Json};
use routes_server::metrics::{Metrics, Phase, LATENCY_BUCKETS_US};
use routes_server::session::LOCK_WAIT_BUCKETS_US;
use routes_server::{Server, ServerConfig, ShardSnapshot, StoreSnapshot};
use routes_store::testutil::TempDir;
use routes_store::{PersistSnapshot, FSYNC_BUCKETS_US};

/// A deterministic store snapshot with two distinguishable shards.
fn fixed_store() -> StoreSnapshot {
    let shard = |base: u64| {
        let mut read = vec![0u64; LOCK_WAIT_BUCKETS_US.len() + 1];
        let mut write = vec![0u64; LOCK_WAIT_BUCKETS_US.len() + 1];
        read[0] = base;
        read[LOCK_WAIT_BUCKETS_US.len()] = 1;
        write[1] = base + 1;
        ShardSnapshot {
            sessions: base as usize,
            capacity: 8,
            hits: 10 + base,
            misses: base,
            inserts: 3 + base,
            removes: base,
            evictions: 1,
            demotions: 2,
            evict_scan_steps: 5 + base,
            write_locks: 7 + base,
            lock_wait_read_us: read,
            lock_wait_write_us: write,
        }
    };
    StoreSnapshot {
        capacity: 16,
        shards: vec![shard(1), shard(2)],
    }
}

fn fixed_persist() -> PersistSnapshot {
    let mut fsync = vec![0u64; FSYNC_BUCKETS_US.len() + 1];
    fsync[0] = 4;
    fsync[2] = 2;
    fsync[FSYNC_BUCKETS_US.len()] = 1;
    PersistSnapshot {
        wal_gen: 3,
        wal_appends: 41,
        wal_bytes: 8_192,
        wal_records_since_checkpoint: 9,
        fsync_batches: 7,
        fsync_records: 40,
        fsync_latency_us: fsync,
        snapshots_written: 2,
        replayed_records: 12,
        restored_sessions: 5,
        recovery_us: 1_234,
    }
}

fn fixed_join() -> JoinSnapshot {
    JoinSnapshot {
        batches: 11,
        rows_probed: 230,
        index_probes: 57,
        hash_builds: 6,
        hash_build_rows: 92,
    }
}

#[test]
fn exposition_matches_the_golden_file() {
    let m = Metrics::new();
    m.record_response(200, Duration::from_micros(80), Some("gold01"));
    m.record_response(201, Duration::from_micros(600), None);
    m.record_response(404, Duration::from_millis(2), None);
    m.record_response(500, Duration::from_secs(2), None);
    m.record_phase(Phase::Chase, Duration::from_micros(90));
    m.record_phase(Phase::Chase, Duration::from_micros(450));
    m.record_phase(Phase::Forest, Duration::from_millis(3));
    m.record_phase(Phase::Route, Duration::from_micros(40));
    m.record_phase(Phase::Print, Duration::from_micros(20));
    m.record_phase(Phase::Edit, Duration::from_micros(700));
    use std::sync::atomic::Ordering::Relaxed;
    m.bad_requests.store(2, Relaxed);
    m.connections_accepted.store(6, Relaxed);
    m.admission_queue_capacity.store(64, Relaxed);
    m.admission_queue_depth.store(1, Relaxed);
    m.admission_admitted.store(5, Relaxed);
    m.admission_shed.store(2, Relaxed);
    m.admission_timeouts.store(1, Relaxed);
    m.admission_reaped.store(1, Relaxed);
    m.record_queue_wait(Duration::from_micros(40));
    m.record_queue_wait(Duration::from_millis(8));
    m.sessions_created.store(5, Relaxed);
    m.sessions_deleted.store(1, Relaxed);
    m.sessions_evicted.store(2, Relaxed);
    m.one_routes_computed.store(3, Relaxed);
    m.all_routes_computed.store(4, Relaxed);
    m.forest_cache_hits.store(2, Relaxed);
    m.forest_cache_misses.store(2, Relaxed);
    m.edits_applied.store(3, Relaxed);
    m.edits_rejected.store(1, Relaxed);
    m.edit_ops_applied.store(9, Relaxed);
    m.edit_forests_kept.store(4, Relaxed);
    m.edit_forests_invalidated.store(2, Relaxed);
    m.pipeline_sessions_created.store(2, Relaxed);
    m.pipeline_stage_chases.store(5, Relaxed);
    m.pipeline_core_runs.store(3, Relaxed);
    m.pipeline_core_tuples_removed.store(7, Relaxed);
    m.pipeline_stitched_routes.store(4, Relaxed);
    m.pipeline_stitched_hops.store(10, Relaxed);

    let text = m.to_prometheus(&fixed_store(), Some(&fixed_persist()), &fixed_join(), 4);
    // Uptime is the only wall-clock-dependent sample; normalize it so the
    // golden stays byte-stable.
    let normalized: String = text
        .lines()
        .map(|line| {
            if line.starts_with("routes_uptime_seconds ") {
                "routes_uptime_seconds 0".to_owned()
            } else {
                line.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &normalized).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file exists");
    assert_eq!(
        normalized, golden,
        "to_prometheus drifted from tests/golden/metrics.prom \
         (set UPDATE_GOLDEN=1 to regenerate, then review the diff)"
    );
}

/// The `Metrics` fixture of [`exposition_matches_the_golden_file`], for
/// the JSON golden.
fn golden_metrics() -> Metrics {
    use std::sync::atomic::Ordering::Relaxed;
    let m = Metrics::new();
    m.record_response(200, Duration::from_micros(80), Some("gold01"));
    m.record_response(201, Duration::from_micros(600), None);
    m.record_response(404, Duration::from_millis(2), None);
    m.record_response(500, Duration::from_secs(2), None);
    m.record_phase(Phase::Chase, Duration::from_micros(90));
    m.record_phase(Phase::Chase, Duration::from_micros(450));
    m.record_phase(Phase::Forest, Duration::from_millis(3));
    m.record_phase(Phase::Route, Duration::from_micros(40));
    m.record_phase(Phase::Print, Duration::from_micros(20));
    m.record_phase(Phase::Edit, Duration::from_micros(700));
    m.record_queue_wait(Duration::from_micros(40));
    m.record_queue_wait(Duration::from_millis(8));
    for (counter, value) in [
        (&m.bad_requests, 2),
        (&m.connections_accepted, 6),
        (&m.admission_queue_capacity, 64),
        (&m.admission_queue_depth, 1),
        (&m.admission_admitted, 5),
        (&m.admission_shed, 2),
        (&m.admission_timeouts, 1),
        (&m.admission_reaped, 1),
        (&m.sessions_created, 5),
        (&m.sessions_deleted, 1),
        (&m.sessions_evicted, 2),
        (&m.one_routes_computed, 3),
        (&m.all_routes_computed, 4),
        (&m.forest_cache_hits, 2),
        (&m.forest_cache_misses, 2),
        (&m.edits_applied, 3),
        (&m.edits_rejected, 1),
        (&m.edit_ops_applied, 9),
        (&m.edit_forests_kept, 4),
        (&m.edit_forests_invalidated, 2),
        (&m.pipeline_sessions_created, 2),
        (&m.pipeline_stage_chases, 5),
        (&m.pipeline_core_runs, 3),
        (&m.pipeline_core_tuples_removed, 7),
        (&m.pipeline_stitched_routes, 4),
        (&m.pipeline_stitched_hops, 10),
    ] {
        counter.store(value, Relaxed);
    }
    m
}

/// `json` with every object's keys sorted, recursively: objects then
/// compare as maps while arrays keep their order.
fn sorted_keys(json: &Json) -> Json {
    match json {
        Json::Object(fields) => {
            let mut fields: Vec<(String, Json)> = fields
                .iter()
                .map(|(k, v)| (k.clone(), sorted_keys(v)))
                .collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(fields)
        }
        Json::Array(items) => Json::Array(items.iter().map(sorted_keys).collect()),
        other => other.clone(),
    }
}

#[test]
fn json_snapshot_matches_the_golden_file() {
    let m = golden_metrics();
    let mut json = m.to_json_with_store(&fixed_store(), Some(&fixed_persist()), &fixed_join(), 4);
    // Uptime is the only wall-clock-dependent value; normalize it.
    if let Json::Object(fields) = &mut json {
        for (key, value) in fields.iter_mut() {
            if key == "uptime_seconds" {
                *value = Json::from(0u64);
            }
        }
    }
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.json");
    let golden = std::fs::read_to_string(golden_path).expect("golden file exists");
    let golden = parse(&golden).expect("golden file is JSON");
    assert_eq!(
        sorted_keys(&json),
        sorted_keys(&golden),
        "to_json_with_store drifted from tests/golden/metrics.json"
    );
}

/// Parse an exposition into `series-with-labels -> value` plus
/// `series -> (exemplar trace_id, exemplar value)` for bucket lines
/// carrying an OpenMetrics-style ` # {trace_id="…"} N` annotation,
/// checking `# HELP` precedes `# TYPE` and every sample's base name was
/// announced.
fn parse_prom(text: &str) -> (HashMap<String, u64>, HashMap<String, (String, u64)>) {
    let mut series = HashMap::new();
    let mut exemplars = HashMap::new();
    let mut announced: Vec<String> = Vec::new();
    let mut pending_help: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_owned();
            pending_help = Some(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap().to_owned();
            let kind = it.next().unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown family kind in {line:?}"
            );
            assert_eq!(
                pending_help.take().as_deref(),
                Some(name.as_str()),
                "# TYPE for {name} not directly preceded by its # HELP"
            );
            announced.push(name);
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        // Split off an exemplar annotation before the value parse.
        let (sample, exemplar) = match line.split_once(" # ") {
            Some((sample, rest)) => (sample, Some(rest)),
            None => (line, None),
        };
        let (key, value) = sample.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let base = key.split('{').next().unwrap();
        let family = announced.iter().any(|name| {
            base == name
                || base == format!("{name}_bucket")
                || base == format!("{name}_count")
                || base == format!("{name}_sum")
        });
        assert!(family, "sample {base} has no announced family");
        if let Some(rest) = exemplar {
            let (labels, ex_value) = rest.rsplit_once(' ').unwrap();
            let trace = labels
                .strip_prefix("{trace_id=\"")
                .and_then(|l| l.strip_suffix("\"}"))
                .unwrap_or_else(|| panic!("malformed exemplar labels in {line:?}"));
            exemplars.insert(
                key.to_owned(),
                (trace.to_owned(), ex_value.parse::<u64>().unwrap()),
            );
        }
        let prior = series.insert(key.to_owned(), value.parse::<u64>().unwrap());
        assert!(prior.is_none(), "duplicate series {key}");
    }
    (series, exemplars)
}

struct PromCheck {
    series: HashMap<String, u64>,
    exemplars: HashMap<String, (String, u64)>,
}

impl PromCheck {
    /// Assert a series exists with `value`, consuming it.
    fn eat(&mut self, key: &str, value: u64) {
        match self.series.remove(key) {
            Some(v) => assert_eq!(v, value, "series {key} disagrees with JSON"),
            None => panic!("series {key} missing from exposition"),
        }
    }

    /// Assert a JSON per-bucket histogram matches the cumulative prom
    /// form: every `_bucket` including `+Inf`, and `_count`.
    fn eat_histogram(&mut self, name: &str, labels: &str, hist: &Json, bounds: &[u64]) {
        let buckets = hist.as_array().expect("histogram is an array");
        assert_eq!(buckets.len(), bounds.len() + 1);
        let mut cumulative = 0u64;
        for (i, bucket) in buckets.iter().enumerate() {
            let le = bucket.get("le_us").unwrap().as_str().unwrap();
            let expected_le = bounds
                .get(i)
                .map_or_else(|| "inf".to_owned(), |b| b.to_string());
            assert_eq!(le, expected_le, "JSON bucket bound order drifted");
            cumulative += bucket.get("count").unwrap().as_u64().unwrap();
            let prom_le = bounds
                .get(i)
                .map_or_else(|| "+Inf".to_owned(), |b| b.to_string());
            let key = if labels.is_empty() {
                format!("{name}_bucket{{le=\"{prom_le}\"}}")
            } else {
                format!("{name}_bucket{{{labels},le=\"{prom_le}\"}}")
            };
            self.eat(&key, cumulative);
        }
        let count_key = if labels.is_empty() {
            format!("{name}_count")
        } else {
            format!("{name}_count{{{labels}}}")
        };
        self.eat(&count_key, cumulative);
    }
}

fn obj_fields(json: &Json) -> &[(String, Json)] {
    match json {
        Json::Object(fields) => fields,
        other => panic!("expected object, got {other:?}"),
    }
}

fn as_u64(v: &Json) -> u64 {
    v.as_u64().expect("numeric JSON field")
}

/// Walk every field of the JSON snapshot, consuming the matching prom
/// series. Unknown keys panic, so the two renderings cannot drift apart
/// silently.
fn reconcile(json: &Json, check: &mut PromCheck) {
    for (key, value) in obj_fields(json) {
        match key.as_str() {
            "version" => check.eat(
                &format!(
                    "routes_build_info{{version=\"{}\"}}",
                    value.as_str().unwrap()
                ),
                1,
            ),
            "uptime_seconds" => check.eat("routes_uptime_seconds", as_u64(value)),
            "threads" => check.eat("routes_threads", as_u64(value)),
            "requests_total" => check.eat("routes_requests_total", as_u64(value)),
            "responses_2xx" => check.eat("routes_responses_total{class=\"2xx\"}", as_u64(value)),
            "responses_4xx" => check.eat("routes_responses_total{class=\"4xx\"}", as_u64(value)),
            "responses_5xx" => check.eat("routes_responses_total{class=\"5xx\"}", as_u64(value)),
            "bad_requests" => check.eat("routes_bad_requests_total", as_u64(value)),
            "connections_accepted" => {
                check.eat("routes_connections_accepted_total", as_u64(value));
            }
            "admission" => {
                for (adm_key, v) in obj_fields(value) {
                    match adm_key.as_str() {
                        "queue_capacity" => {
                            check.eat("routes_admission_queue_capacity", as_u64(v));
                        }
                        "queue_depth" => check.eat("routes_admission_queue_depth", as_u64(v)),
                        "admitted" => check.eat("routes_admission_admitted_total", as_u64(v)),
                        "shed" => check.eat("routes_admission_shed_total", as_u64(v)),
                        "timeouts" => check.eat("routes_admission_timeouts_total", as_u64(v)),
                        "reaped" => check.eat("routes_admission_reaped_total", as_u64(v)),
                        "queue_wait_us" => check.eat_histogram(
                            "routes_admission_queue_wait_us",
                            "",
                            v,
                            &LATENCY_BUCKETS_US,
                        ),
                        other => panic!("unknown admission field `{other}`"),
                    }
                }
            }
            "live_sessions" => check.eat("routes_live_sessions", as_u64(value)),
            "sessions_created" => check.eat("routes_sessions_created_total", as_u64(value)),
            "sessions_deleted" => check.eat("routes_sessions_deleted_total", as_u64(value)),
            "sessions_evicted" => check.eat("routes_sessions_evicted_total", as_u64(value)),
            "one_routes_computed" => {
                check.eat("routes_one_routes_computed_total", as_u64(value));
            }
            "all_routes_computed" => {
                check.eat("routes_all_routes_computed_total", as_u64(value));
            }
            "forest_cache_hits" => check.eat("routes_forest_cache_hits_total", as_u64(value)),
            "forest_cache_misses" => {
                check.eat("routes_forest_cache_misses_total", as_u64(value));
            }
            "edits" => {
                for (edit_key, v) in obj_fields(value) {
                    match edit_key.as_str() {
                        "applied" => check.eat("routes_edits_applied_total", as_u64(v)),
                        "rejected" => check.eat("routes_edits_rejected_total", as_u64(v)),
                        "ops_applied" => check.eat("routes_edit_ops_applied_total", as_u64(v)),
                        "forests_kept" => {
                            check.eat("routes_edit_forests_kept_total", as_u64(v));
                        }
                        "forests_invalidated" => {
                            check.eat("routes_edit_forests_invalidated_total", as_u64(v));
                        }
                        other => panic!("unknown edits field `{other}`"),
                    }
                }
            }
            "pipeline" => {
                for (pipe_key, v) in obj_fields(value) {
                    match pipe_key.as_str() {
                        "sessions_created" => {
                            check.eat("routes_pipeline_sessions_created_total", as_u64(v));
                        }
                        "stage_chases" => {
                            check.eat("routes_pipeline_stage_chases_total", as_u64(v));
                        }
                        "core_runs" => check.eat("routes_pipeline_core_runs_total", as_u64(v)),
                        "core_tuples_removed" => {
                            check.eat("routes_pipeline_core_tuples_removed_total", as_u64(v));
                        }
                        "stitched_routes" => {
                            check.eat("routes_pipeline_stitched_routes_total", as_u64(v));
                        }
                        "stitched_hops" => {
                            check.eat("routes_pipeline_stitched_hops_total", as_u64(v));
                        }
                        other => panic!("unknown pipeline field `{other}`"),
                    }
                }
            }
            "latency_us" => {
                check.eat_histogram("routes_request_latency_us", "", value, &LATENCY_BUCKETS_US)
            }
            "window" => {
                for (win_key, v) in obj_fields(value) {
                    match win_key.as_str() {
                        "seconds" => check.eat("routes_window_seconds", as_u64(v)),
                        "requests" => check.eat("routes_window_requests", as_u64(v)),
                        "errors" => check.eat("routes_window_errors", as_u64(v)),
                        "rps_milli" => check.eat("routes_window_rps_milli", as_u64(v)),
                        "error_rate_milli" => {
                            check.eat("routes_window_error_rate_milli", as_u64(v));
                        }
                        "p50_us" => check.eat("routes_window_latency_p50_us", as_u64(v)),
                        "p90_us" => check.eat("routes_window_latency_p90_us", as_u64(v)),
                        "p99_us" => check.eat("routes_window_latency_p99_us", as_u64(v)),
                        other => panic!("unknown window field `{other}`"),
                    }
                }
            }
            "exemplars" => {
                // Each JSON exemplar must match the text annotation on the
                // same latency bucket: trace id and duration agree.
                for entry in value.as_array().expect("exemplars is an array") {
                    let le = entry.get("le_us").unwrap().as_str().unwrap();
                    let trace = entry.get("trace_id").unwrap().as_str().unwrap();
                    let dur = as_u64(entry.get("dur_us").unwrap());
                    let prom_le = if le == "inf" { "+Inf" } else { le };
                    let key = format!("routes_request_latency_us_bucket{{le=\"{prom_le}\"}}");
                    match check.exemplars.remove(&key) {
                        Some((text_trace, text_dur)) => {
                            assert_eq!(text_trace, trace, "exemplar trace drifted on {key}");
                            assert_eq!(text_dur, dur, "exemplar duration drifted on {key}");
                        }
                        None => panic!("JSON exemplar on {key} missing from the text form"),
                    }
                }
            }
            "phases" => {
                for (phase, stats) in obj_fields(value) {
                    let labels = format!("phase=\"{phase}\"");
                    for (stat_key, stat) in obj_fields(stats) {
                        match stat_key.as_str() {
                            "count" => { /* == the histogram's _count, checked below */ }
                            "total_us" => check.eat(
                                &format!("routes_phase_latency_us_sum{{{labels}}}"),
                                as_u64(stat),
                            ),
                            "latency_us" => check.eat_histogram(
                                "routes_phase_latency_us",
                                &labels,
                                stat,
                                &LATENCY_BUCKETS_US,
                            ),
                            other => panic!("unknown phase stat `{other}`"),
                        }
                    }
                }
            }
            "join" => {
                for (join_key, v) in obj_fields(value) {
                    match join_key.as_str() {
                        "batches" => check.eat("routes_join_batches_total", as_u64(v)),
                        "rows_probed" => check.eat("routes_join_rows_probed_total", as_u64(v)),
                        "index_probes" => {
                            check.eat("routes_join_index_probes_total", as_u64(v));
                        }
                        "hash_builds" => check.eat("routes_join_hash_builds_total", as_u64(v)),
                        "hash_build_rows" => {
                            check.eat("routes_join_hash_build_rows_total", as_u64(v));
                        }
                        other => panic!("unknown join field `{other}`"),
                    }
                }
            }
            "session_store" => reconcile_store(value, check),
            "persistence" => reconcile_persist(value, check),
            other => panic!("unknown /metrics JSON field `{other}` — extend the walker"),
        }
    }
}

fn reconcile_store(json: &Json, check: &mut PromCheck) {
    for (key, value) in obj_fields(json) {
        match key.as_str() {
            "capacity" => check.eat("routes_session_store_capacity", as_u64(value)),
            "shard_count" => check.eat("routes_session_store_shards", as_u64(value)),
            "live_sessions" => { /* duplicate of the top-level gauge */ }
            "hits" => check.eat("routes_session_store_hits_total", as_u64(value)),
            "misses" => check.eat("routes_session_store_misses_total", as_u64(value)),
            "inserts" => check.eat("routes_session_store_inserts_total", as_u64(value)),
            "removes" => check.eat("routes_session_store_removes_total", as_u64(value)),
            "evictions" => check.eat("routes_session_store_evictions_total", as_u64(value)),
            "evict_scan_steps" => {
                check.eat("routes_session_store_evict_scan_steps_total", as_u64(value));
            }
            "write_locks" => check.eat("routes_session_store_write_locks_total", as_u64(value)),
            "shards" => {
                for (i, shard) in value.as_array().unwrap().iter().enumerate() {
                    let labels = format!("shard=\"{i}\"");
                    for (shard_key, v) in obj_fields(shard) {
                        let gauge =
                            |suffix: &str| format!("routes_session_shard_{suffix}{{{labels}}}");
                        let counter = |suffix: &str| {
                            format!("routes_session_shard_{suffix}_total{{{labels}}}")
                        };
                        match shard_key.as_str() {
                            "sessions" => check.eat(&gauge("sessions"), as_u64(v)),
                            "capacity" => check.eat(&gauge("capacity"), as_u64(v)),
                            "hits" => check.eat(&counter("hits"), as_u64(v)),
                            "misses" => check.eat(&counter("misses"), as_u64(v)),
                            "inserts" => check.eat(&counter("inserts"), as_u64(v)),
                            "removes" => check.eat(&counter("removes"), as_u64(v)),
                            "evictions" => check.eat(&counter("evictions"), as_u64(v)),
                            "demotions" => check.eat(&counter("demotions"), as_u64(v)),
                            "evict_scan_steps" => {
                                check.eat(&counter("evict_scan_steps"), as_u64(v));
                            }
                            "write_locks" => check.eat(&counter("write_locks"), as_u64(v)),
                            "lock_wait_read_us" => check.eat_histogram(
                                "routes_session_shard_lock_wait_us",
                                &format!("{labels},mode=\"read\""),
                                v,
                                &LOCK_WAIT_BUCKETS_US,
                            ),
                            "lock_wait_write_us" => check.eat_histogram(
                                "routes_session_shard_lock_wait_us",
                                &format!("{labels},mode=\"write\""),
                                v,
                                &LOCK_WAIT_BUCKETS_US,
                            ),
                            other => panic!("unknown shard field `{other}`"),
                        }
                    }
                }
            }
            other => panic!("unknown session_store field `{other}`"),
        }
    }
}

fn reconcile_persist(json: &Json, check: &mut PromCheck) {
    for (key, value) in obj_fields(json) {
        match key.as_str() {
            "wal_gen" => check.eat("routes_wal_generation", as_u64(value)),
            "wal_appends" => check.eat("routes_wal_appends_total", as_u64(value)),
            "wal_bytes" => check.eat("routes_wal_bytes_total", as_u64(value)),
            "wal_records_since_checkpoint" => {
                check.eat("routes_wal_records_since_checkpoint", as_u64(value));
            }
            "fsync_batches" => check.eat("routes_fsync_batches_total", as_u64(value)),
            "fsync_records" => check.eat("routes_fsync_records_total", as_u64(value)),
            "fsync_latency_us" => {
                check.eat_histogram("routes_fsync_latency_us", "", value, &FSYNC_BUCKETS_US)
            }
            "snapshots_written" => check.eat("routes_snapshots_written_total", as_u64(value)),
            "replayed_records" => check.eat("routes_wal_replayed_records", as_u64(value)),
            "restored_sessions" => check.eat("routes_wal_restored_sessions", as_u64(value)),
            "recovery_us" => check.eat("routes_recovery_us", as_u64(value)),
            other => panic!("unknown persistence field `{other}`"),
        }
    }
}

fn scenario_json(tag: i64) -> String {
    let text = format!(
        "source schema:\n  S(a, b)\ntarget schema:\n  T(a, b)\n\
         dependencies:\n  m: S(x, y) -> T(x, y)\nsource data:\n  S({tag}, {})\n",
        tag + 1
    );
    format!("{{\"scenario\": {}}}", Json::from(text).encode())
}

/// One raw HTTP exchange returning status, headers, and body.
fn raw_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let body = body.unwrap_or("");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes()).unwrap();
    writer.write_all(body.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut response_headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (k, v) = line.split_once(':').unwrap();
        response_headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).unwrap();
    (status, response_headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn text_and_json_expositions_reconcile_exactly_under_live_traffic() {
    let tmp = TempDir::new("prom-reconcile");
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 3,
            max_sessions: 4,
            session_shards: 2,
            data_dir: Some(tmp.path().to_path_buf()),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let app = server.app();
    let (addr, handle) = server.spawn().expect("spawn");

    // Live traffic across every counter family: creates past capacity
    // (evictions), gets, a delete, both forest paths, one-route, errors.
    let mut ids = Vec::new();
    for tag in 0..6 {
        let (status, _, body) =
            raw_request(addr, "POST", "/sessions", &[], Some(&scenario_json(tag)));
        assert_eq!(status, 201, "create failed: {body}");
        ids.push(as_u64(parse(&body).unwrap().get("session").unwrap()));
    }
    let select = r#"{"tuples": [{"relation": "T", "row": 0}]}"#;
    let live = *ids.last().unwrap();
    for _ in 0..2 {
        let (status, _, _) = raw_request(
            addr,
            "POST",
            &format!("/sessions/{live}/all-routes"),
            &[],
            Some(select),
        );
        assert_eq!(status, 200);
    }
    let (status, _, _) = raw_request(
        addr,
        "POST",
        &format!("/sessions/{live}/one-route"),
        &[],
        Some(select),
    );
    assert_eq!(status, 200);
    // An edit far from T(…, row 0): the cached forest survives, and the
    // post-edit all-routes is still a cache hit.
    let edit = r#"{"ops": [{"op": "insert_tuple", "line": "S(100, 101)"}]}"#;
    let (status, _, body) = raw_request(
        addr,
        "POST",
        &format!("/sessions/{live}/edit"),
        &[],
        Some(edit),
    );
    assert_eq!(status, 200, "edit failed: {body}");
    let edit_json = parse(&body).unwrap();
    assert_eq!(as_u64(edit_json.get("edit_seq").unwrap()), 1);
    assert_eq!(as_u64(edit_json.get("forests_kept").unwrap()), 1);
    let (status, _, body) = raw_request(
        addr,
        "POST",
        &format!("/sessions/{live}/all-routes"),
        &[],
        Some(select),
    );
    assert_eq!(status, 200);
    assert_eq!(
        parse(&body).unwrap().get("cached").unwrap().as_bool(),
        Some(true),
        "surviving forest keeps serving cached answers"
    );
    // A malformed edit feeds edits_rejected.
    let (status, _, _) = raw_request(
        addr,
        "POST",
        &format!("/sessions/{live}/edit"),
        &[],
        Some(r#"{"ops": [{"op": "delete_tuple", "relation": "S", "row": 99}]}"#),
    );
    assert_eq!(status, 422);
    raw_request(addr, "GET", &format!("/sessions/{live}"), &[], None);
    raw_request(addr, "DELETE", &format!("/sessions/{live}"), &[], None);
    raw_request(addr, "GET", "/sessions/999999", &[], None); // 404
    let (status, headers, _) = raw_request(addr, "PATCH", "/metrics", &[], None);
    assert_eq!(status, 405, "known route, unsupported method");
    assert_eq!(header(&headers, "allow"), Some("GET"));

    // Quiesce, then reconcile from one frozen snapshot pair. Uptime is
    // read per rendering; retry if the second boundary lands between.
    let store = app.store.snapshot();
    let persist = app.persistence().map(|p| p.metrics.snapshot());
    let join = routes_model::joinstats::snapshot();
    let threads = app.pool.threads();
    let (json, text) = loop {
        let json = app
            .metrics
            .to_json_with_store(&store, persist.as_ref(), &join, threads);
        let text = app
            .metrics
            .to_prometheus(&store, persist.as_ref(), &join, threads);
        let json_uptime = as_u64(json.get("uptime_seconds").unwrap());
        let text_uptime = text
            .lines()
            .find_map(|l| l.strip_prefix("routes_uptime_seconds "))
            .unwrap()
            .parse::<u64>()
            .unwrap();
        if json_uptime == text_uptime {
            break (json, text);
        }
    };
    let (series, exemplars) = parse_prom(&text);
    let mut check = PromCheck { series, exemplars };
    reconcile(&json, &mut check);
    assert!(
        check.series.is_empty(),
        "exposition has series the JSON never produced: {:?}",
        check.series.keys().collect::<Vec<_>>()
    );
    assert!(
        check.exemplars.is_empty(),
        "text exemplars the JSON never produced: {:?}",
        check.exemplars.keys().collect::<Vec<_>>()
    );

    // Sanity: the traffic actually exercised the interesting families.
    assert!(
        as_u64(json.get("sessions_evicted").unwrap()) >= 1,
        "wanted evictions"
    );
    // hits: second pre-edit all-routes + the post-edit surviving-forest hit.
    assert_eq!(as_u64(json.get("forest_cache_hits").unwrap()), 2);
    assert_eq!(as_u64(json.get("forest_cache_misses").unwrap()), 1);
    let join_block = json.get("join").unwrap();
    assert!(
        as_u64(join_block.get("batches").unwrap()) >= 1,
        "the session chases must have run the batch executor"
    );
    assert!(
        as_u64(join_block.get("hash_builds").unwrap()) >= 1,
        "chasing indexes the source relations"
    );
    let edits = json.get("edits").unwrap();
    assert_eq!(as_u64(edits.get("applied").unwrap()), 1);
    assert_eq!(as_u64(edits.get("rejected").unwrap()), 1);
    assert_eq!(as_u64(edits.get("forests_kept").unwrap()), 1);
    assert!(
        as_u64(
            json.get("persistence")
                .unwrap()
                .get("fsync_batches")
                .unwrap()
        ) >= 1,
        "synced creates must have fsynced"
    );

    // Negotiation over the live socket.
    let (status, headers, body) = raw_request(addr, "GET", "/metrics?format=prometheus", &[], None);
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(body.contains("# TYPE routes_requests_total counter"));
    assert!(body.contains(
        "routes_session_shard_lock_wait_us_bucket{shard=\"1\",mode=\"write\",le=\"+Inf\"}"
    ));

    let (status, headers, _) = raw_request(
        addr,
        "GET",
        "/metrics",
        &[("accept", "text/plain; version=0.0.4")],
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );

    let (status, headers, body) = raw_request(addr, "GET", "/metrics?format=json", &[], None);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    assert!(parse(&body).is_ok());

    let (status, _, body) = raw_request(addr, "GET", "/metrics?format=xml", &[], None);
    assert_eq!(status, 400);
    assert!(body.contains("unknown metrics format"));

    // Exemplar → trace round-trip: every latency exemplar's trace id is
    // accepted by the trace endpoint (spans, when still in the ring, all
    // belong to it), and `?limit=` caps and validates the dump.
    let exemplar_entries = json.get("exemplars").unwrap().as_array().unwrap();
    assert!(
        !exemplar_entries.is_empty(),
        "live traffic must leave latency exemplars"
    );
    for entry in exemplar_entries {
        let trace = entry.get("trace_id").unwrap().as_str().unwrap();
        let (status, _, body) =
            raw_request(addr, "GET", &format!("/trace?trace_id={trace}"), &[], None);
        assert_eq!(status, 200);
        for span in parse(&body)
            .unwrap()
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap()
        {
            assert_eq!(span.get("trace_id").unwrap().as_str().unwrap(), trace);
        }
    }
    let (status, _, body) = raw_request(addr, "GET", "/trace?limit=2", &[], None);
    assert_eq!(status, 200);
    assert!(
        parse(&body)
            .unwrap()
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap()
            .len()
            <= 2,
        "limit caps the span dump"
    );
    let (status, _, body) = raw_request(addr, "GET", "/trace?limit=nope", &[], None);
    assert_eq!(status, 400);
    assert!(body.contains("malformed limit"));

    let (status, _, _) = raw_request(addr, "POST", "/shutdown", &[], None);
    assert_eq!(status, 200);
    handle.join().expect("server exits");
}

/// An in-process app for the `/profile` endpoint (the profiler's state is
/// process-global; no sockets needed).
fn bare_app() -> routes_server::App {
    routes_server::App::with_observability(
        routes_server::SessionStore::with_shards(4, 1),
        routes_pool::Pool::sequential(),
        None,
        std::sync::Arc::new(routes_obs::Tracer::disabled()),
        Duration::from_millis(500),
    )
}

fn get(path: &str, query: &str, accept: Option<&str>) -> routes_server::http::Request {
    routes_server::http::Request {
        method: "GET".to_owned(),
        path: path.to_owned(),
        query: query.to_owned(),
        headers: accept
            .map(|a| ("accept".to_owned(), a.to_owned()))
            .into_iter()
            .collect(),
        body: Vec::new(),
        keep_alive: false,
    }
}

#[test]
fn profile_endpoint_negotiates_content_types() {
    let app = bare_app();

    // Default (no Accept) and */* serve JSON.
    let resp = app.handle_traced(&get("/profile", "", None));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "application/json");
    let json = parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert!(json.get("enabled").is_some());
    let resp = app.handle_traced(&get("/profile", "", Some("*/*")));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "application/json");

    // text/plain negotiates the flamegraph-collapsed form; `?format=`
    // overrides negotiation in both directions.
    let resp = app.handle_traced(&get("/profile", "", Some("text/plain")));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.content_type, "text/plain; charset=utf-8");
    let resp = app.handle_traced(&get(
        "/profile",
        "format=collapsed",
        Some("application/json"),
    ));
    assert_eq!(resp.content_type, "text/plain; charset=utf-8");
    let resp = app.handle_traced(&get("/profile", "format=json", Some("text/plain")));
    assert_eq!(resp.content_type, "application/json");

    // An Accept the endpoint cannot satisfy is 406; a bogus format or
    // delta value is the caller's error.
    let resp = app.handle_traced(&get("/profile", "", Some("application/xml")));
    assert_eq!(resp.status, 406);
    let resp = app.handle_traced(&get("/profile", "format=svg", None));
    assert_eq!(resp.status, 400);
    let resp = app.handle_traced(&get("/profile", "delta=maybe", None));
    assert_eq!(resp.status, 400);

    // Only GET is served.
    let mut post = get("/profile", "", None);
    post.method = "POST".to_owned();
    let resp = app.handle_traced(&post);
    assert_eq!(resp.status, 405);
}

#[test]
fn profile_samples_render_as_phases_and_a_weighted_tree() {
    let app = bare_app();

    // Deterministic samples: open a request→chase frame stack by hand and
    // tick the sampler five times (no ticker thread involved).
    let _on = routes_obs::manual_profile();
    {
        let _request = routes_obs::profile_frame("profreq");
        let _chase = routes_obs::profile_frame("profchase");
        for _ in 0..5 {
            routes_obs::sample_once();
        }
    }

    let resp = app.handle_traced(&get("/profile", "", None));
    assert_eq!(resp.status, 200);
    let json = parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    // Inclusive per-phase totals: the parent frame covers its child.
    let phases = json.get("phases").unwrap();
    assert!(as_u64(phases.get("profreq").unwrap()) >= 5);
    assert!(as_u64(phases.get("profchase").unwrap()) >= 5);
    // The tree nests profchase under profreq with the same weight.
    let tree = json.get("tree").unwrap().as_array().unwrap();
    let node = tree
        .iter()
        .find(|n| n.get("name").unwrap().as_str() == Some("profreq"))
        .expect("profreq root in tree");
    let child = node
        .get("children")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|n| n.get("name").unwrap().as_str() == Some("profchase"))
        .expect("profchase nested under profreq");
    assert!(as_u64(child.get("samples").unwrap()) >= 5);

    // The collapsed form carries the same stack as `a;b N` lines.
    let resp = app.handle_traced(&get("/profile", "format=collapsed", None));
    let text = String::from_utf8(resp.body).unwrap();
    assert!(
        text.lines().any(|l| l.starts_with("profreq;profchase ")),
        "collapsed output missing the sampled stack: {text:?}"
    );
}
