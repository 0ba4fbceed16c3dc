//! Service counters, lock-free via atomics, and the `/metrics` registry.
//!
//! One [`Metrics`] instance is shared by every worker thread; all updates
//! are relaxed (counters tolerate reordering, they only need to not lose
//! increments). `GET /metrics` renders a snapshot.
//!
//! ## One table, two renderings
//!
//! Every family `/metrics` serves is declared once, as a row of
//! [`FAMILIES`]: its Prometheus name, kind, help text, JSON path, and a
//! reader that emits its series from one [`Sources`] snapshot. Two walkers
//! render the table: [`Metrics::to_json_with_store`] places every series
//! at its JSON path, and [`Metrics::to_prometheus`] writes it through
//! [`PromText`]. Adding a metric is adding a row, and the two forms cannot
//! drift apart. The table's order is the exposition's family order and
//! the JSON key order.
//!
//! A JSON path is dot-separated object keys. `{label}` stands for the
//! series' value of that label (`responses_{class}` for `class="2xx"`),
//! and a `[{label}]` suffix indexes an array
//! (`session_store.shards[{shard}].hits`). A histogram renders as
//! `[{le_us, count}, ...]`; one that tracks a sum renders as
//! `{count, total_us, latency_us}`, its `count` summed from the same
//! bucket snapshot Prometheus turns into `_count`. Exemplars, which
//! Prometheus prints on bucket lines, go to the top-level `exemplars` list
//! of `{le_us, trace_id, dur_us}`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use routes_model::JoinSnapshot;
use routes_obs::PromText;
use routes_store::{PersistSnapshot, FSYNC_BUCKETS_US};

use crate::json::Json;
use crate::session::{ShardSnapshot, StoreSnapshot, LOCK_WAIT_BUCKETS_US};
use crate::window::{WindowRing, WindowSnapshot};

/// Upper bounds (µs) of the request-latency histogram buckets; the last
/// bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 7] = [100, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// A work phase whose wall time is tracked separately from whole-request
/// latency: the chase materializing `J`, route-forest construction
/// (`ComputeAllRoutes`), single-route enumeration (`ComputeOneRoute` +
/// replay), result rendering ("print": view building + JSON encoding), and
/// edit-batch application (the whole incremental pipeline; the replayed
/// chase inside it is also sampled under `chase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Chase,
    Forest,
    Route,
    Print,
    Edit,
}

impl Phase {
    /// All phases, in the order they appear in the `/metrics` JSON.
    pub const ALL: [Phase; 5] = [
        Phase::Chase,
        Phase::Forest,
        Phase::Route,
        Phase::Print,
        Phase::Edit,
    ];

    /// The JSON key of this phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Chase => "chase",
            Phase::Forest => "forest",
            Phase::Route => "route",
            Phase::Print => "print",
            Phase::Edit => "edit",
        }
    }
}

/// Per-phase wall-time accounting: total microseconds and a latency
/// histogram over [`LATENCY_BUCKETS_US`], whose bucket sum is the sample
/// count.
#[derive(Default)]
pub struct PhaseStats {
    pub total_us: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
}

impl PhaseStats {
    fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.total_us.fetch_add(us, Relaxed);
        self.latency[bucket_of(us)].fetch_add(1, Relaxed);
    }
}

/// Shared service counters.
#[derive(Default)]
pub struct Metrics {
    pub requests_total: AtomicU64,
    pub responses_2xx: AtomicU64,
    pub responses_4xx: AtomicU64,
    pub responses_5xx: AtomicU64,
    pub bad_requests: AtomicU64,
    pub connections_accepted: AtomicU64,
    /// Bound of the acceptor's connection queue (0 until a server stores
    /// its resolved `--max-queue`; `Metrics` alone has no front door).
    pub admission_queue_capacity: AtomicU64,
    /// Connections currently parked in the acceptor's queue.
    pub admission_queue_depth: AtomicU64,
    /// Connections admitted into the queue (later popped by a worker).
    pub admission_admitted: AtomicU64,
    /// Connections shed at the door with `429 Too Many Requests`.
    pub admission_shed: AtomicU64,
    /// Requests answered `408 Request Timeout` after their wall-clock
    /// deadline expired mid-parse.
    pub admission_timeouts: AtomicU64,
    /// Connections force-closed by a deadline (every 408 plus write-side
    /// stalls that never got a response).
    pub admission_reaped: AtomicU64,
    admission_queue_wait: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    pub sessions_created: AtomicU64,
    pub sessions_deleted: AtomicU64,
    pub sessions_evicted: AtomicU64,
    pub one_routes_computed: AtomicU64,
    pub all_routes_computed: AtomicU64,
    pub forest_cache_hits: AtomicU64,
    pub forest_cache_misses: AtomicU64,
    pub edits_applied: AtomicU64,
    pub edits_rejected: AtomicU64,
    pub edit_ops_applied: AtomicU64,
    pub edit_forests_kept: AtomicU64,
    pub edit_forests_invalidated: AtomicU64,
    /// Multi-stage pipeline sessions created (subset of `sessions_created`).
    pub pipeline_sessions_created: AtomicU64,
    /// Stage chases run while creating pipeline sessions (hops summed).
    pub pipeline_stage_chases: AtomicU64,
    /// Core minimization passes run (one per hop when core mode is on).
    pub pipeline_core_runs: AtomicU64,
    /// Tuples removed by core minimization, summed over hops and sessions.
    pub pipeline_core_tuples_removed: AtomicU64,
    /// Stitched end-to-end routes answered.
    pub pipeline_stitched_routes: AtomicU64,
    /// Per-hop routes inside answered stitched routes (hops summed).
    pub pipeline_stitched_hops: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    phases: [PhaseStats; Phase::ALL.len()],
    /// Rolling one-second traffic windows (live rps / error rate / tail
    /// latency); its clock, started with this instance, is also the
    /// uptime clock.
    window: WindowRing,
    /// Per-latency-bucket exemplar: the trace id and duration of the
    /// slowest recent request that landed in the bucket, linking a
    /// `/metrics` scrape to `GET /trace?trace_id=` evidence.
    exemplars: [Mutex<Option<Exemplar>>; LATENCY_BUCKETS_US.len() + 1],
}

/// One retained bucket occupant; see [`Metrics::exemplars`].
struct Exemplar {
    trace: String,
    dur_us: u64,
    at: Instant,
}

/// How long a bucket exemplar stays authoritative: after this, any new
/// occupant replaces it even if faster, so exemplars keep pointing at
/// traces the ring buffer still holds.
const EXEMPLAR_TTL: Duration = Duration::from_secs(10);

fn bucket_of(us: u64) -> usize {
    LATENCY_BUCKETS_US
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(LATENCY_BUCKETS_US.len())
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Seconds since this metrics instance (the serving process) started.
    pub fn uptime_seconds(&self) -> u64 {
        self.window.epoch()
    }

    /// Count one handled request with its response status and latency.
    /// `trace`, when the tracer minted one, becomes the request's latency
    /// bucket exemplar if it is the slowest recent occupant.
    pub fn record_response(&self, status: u16, latency: Duration, trace: Option<&str>) {
        self.requests_total.fetch_add(1, Relaxed);
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Relaxed);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = bucket_of(us);
        self.latency[bucket].fetch_add(1, Relaxed);
        self.window.record(status, us);
        if let Some(trace) = trace {
            // Never block the request path on a scrape holding the lock:
            // on contention the exemplar is simply not updated (the next
            // slow request in this bucket will be).
            if let Ok(mut slot) = self.exemplars[bucket].try_lock() {
                let replace = match slot.as_ref() {
                    None => true,
                    Some(e) => us >= e.dur_us || e.at.elapsed() > EXEMPLAR_TTL,
                };
                if replace {
                    *slot = Some(Exemplar {
                        trace: trace.to_owned(),
                        dur_us: us,
                        at: Instant::now(),
                    });
                }
            }
        }
    }

    /// Aggregated view over the rolling traffic window.
    pub fn window(&self) -> WindowSnapshot {
        self.window.snapshot()
    }

    /// Current latency-bucket exemplars: `(trace_id, dur_us)` per bucket
    /// (one entry per bound plus the unbounded tail), `None` where no
    /// traced request has landed yet.
    pub fn exemplars(&self) -> Vec<Option<(String, u64)>> {
        self.exemplars
            .iter()
            .map(|slot| {
                slot.lock()
                    .ok()
                    .and_then(|e| e.as_ref().map(|e| (e.trace.clone(), e.dur_us)))
            })
            .collect()
    }

    /// Record one sample of a work phase's wall time.
    pub fn record_phase(&self, phase: Phase, latency: Duration) {
        self.phases[phase as usize].record(latency);
    }

    /// Record how long a connection waited in the admission queue before a
    /// worker popped it.
    pub fn record_queue_wait(&self, wait: Duration) {
        let us = wait.as_micros().min(u128::from(u64::MAX)) as u64;
        self.admission_queue_wait[bucket_of(us)].fetch_add(1, Relaxed);
    }

    /// Snapshot of the queue-wait histogram (one count per latency bucket
    /// plus the unbounded tail).
    pub fn queue_wait_counts(&self) -> Vec<u64> {
        load_all(&self.admission_queue_wait)
    }

    /// The accounting of one phase (snapshot reads).
    pub fn phase(&self, phase: Phase) -> &PhaseStats {
        &self.phases[phase as usize]
    }

    /// The snapshot `GET /metrics` serves as JSON: every row of
    /// [`FAMILIES`] at its JSON path. The join counters are process-wide
    /// ([`routes_model::joinstats`]) and the store and persistence
    /// counters live elsewhere; the caller passes explicit snapshots so
    /// both renderings of one request agree and tests stay deterministic.
    /// `threads` is the worker pool width used for parallel chase / forest
    /// construction.
    pub fn to_json_with_store(
        &self,
        store: &StoreSnapshot,
        persist: Option<&PersistSnapshot>,
        join: &JoinSnapshot,
        threads: usize,
    ) -> Json {
        let sources = self.sources(store, persist, join, threads);
        let mut root = Json::Object(Vec::new());
        for family in FAMILIES {
            family.series(&sources, &mut |labels, value| {
                let path = fill(family.json, labels);
                let bounds = family.bounds();
                match value {
                    Value::Int(n) => *slot(&mut root, &path) = Json::from(n),
                    Value::Info(text) => *slot(&mut root, &path) = Json::from(text),
                    Value::Hist {
                        counts,
                        sum,
                        exemplars,
                    } => {
                        let buckets = buckets_json(bounds, &counts);
                        *slot(&mut root, &path) = match sum {
                            None => buckets,
                            Some(sum) => Json::obj([
                                ("count", Json::from(counts.iter().sum::<u64>())),
                                ("total_us", Json::from(sum)),
                                ("latency_us", buckets),
                            ]),
                        };
                        if let Some(exemplars) = exemplars {
                            *slot(&mut root, "exemplars") = exemplars_json(bounds, exemplars);
                        }
                    }
                }
            });
        }
        root
    }

    /// The same snapshot [`Metrics::to_json_with_store`] serves, in
    /// Prometheus text exposition format: every row of [`FAMILIES`] with
    /// at least one series, announced once, in table order.
    pub fn to_prometheus(
        &self,
        store: &StoreSnapshot,
        persist: Option<&PersistSnapshot>,
        join: &JoinSnapshot,
        threads: usize,
    ) -> String {
        let sources = self.sources(store, persist, join, threads);
        let mut w = PromText::new();
        for family in FAMILIES {
            let kind = match family.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Histogram(_) => "histogram",
                Kind::JsonOnly => continue,
            };
            let mut announced = false;
            family.series(&sources, &mut |labels, value| {
                if !std::mem::replace(&mut announced, true) {
                    w.family(family.name, kind, family.help);
                }
                let (name, bounds) = (family.name, family.bounds());
                match value {
                    Value::Int(n) => w.sample(name, labels, n),
                    Value::Info(_) => w.sample(name, labels, 1),
                    Value::Hist {
                        counts,
                        sum,
                        exemplars: None,
                    } => w.histogram(name, labels, bounds, &counts, sum),
                    Value::Hist {
                        counts,
                        sum,
                        exemplars: Some(exemplars),
                    } => w.histogram_with_exemplars(name, labels, bounds, &counts, sum, &exemplars),
                }
            });
        }
        w.finish()
    }

    fn sources<'a>(
        &'a self,
        store: &'a StoreSnapshot,
        persist: Option<&'a PersistSnapshot>,
        join: &'a JoinSnapshot,
        threads: usize,
    ) -> Sources<'a> {
        Sources {
            m: self,
            store,
            persist,
            join,
            threads,
            window: self.window(),
        }
    }
}

fn load_all(counters: &[AtomicU64]) -> Vec<u64> {
    counters.iter().map(|c| c.load(Relaxed)).collect()
}

/// Everything one `/metrics` render reads: the live counters, the
/// snapshots the caller froze, and the traffic window aggregated once.
struct Sources<'a> {
    m: &'a Metrics,
    store: &'a StoreSnapshot,
    persist: Option<&'a PersistSnapshot>,
    join: &'a JoinSnapshot,
    threads: usize,
    window: WindowSnapshot,
}

#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    /// Per-bucket counts over these upper bounds (µs) plus an unbounded
    /// tail.
    Histogram(&'static [u64]),
    /// A JSON-only repetition of a value another family exposes.
    JsonOnly,
}

/// One series' value.
enum Value {
    Int(u64),
    /// An info gauge: Prometheus samples `1` under the labels, JSON serves
    /// the text.
    Info(&'static str),
    /// Per-bucket counts (one per bound plus the unbounded tail), the
    /// `_sum` when tracked, and per-bucket `(trace_id, dur_us)` exemplars.
    Hist {
        counts: Vec<u64>,
        sum: Option<u64>,
        exemplars: Option<Vec<Option<(String, u64)>>>,
    },
}

impl Value {
    fn hist(counts: Vec<u64>) -> Value {
        Value::Hist {
            counts,
            sum: None,
            exemplars: None,
        }
    }
}

/// Receives a family's series as `(labels, value)`.
type Emit<'e> = dyn FnMut(&[(&str, &str)], Value) + 'e;

/// Where a family's series come from.
enum Read {
    /// One unlabeled sample: a [`Metrics`] counter.
    Atomic(fn(&Metrics) -> &AtomicU64),
    /// One unlabeled sample computed from the sources.
    Scalar(fn(&Sources<'_>) -> u64),
    /// One unlabeled sample, present only with a data directory.
    Persist(fn(&PersistSnapshot) -> u64),
    /// One `shard`-labeled sample per session-store shard.
    Shard(fn(&ShardSnapshot) -> u64),
    /// Whatever series the function emits.
    Series(fn(&Sources<'_>, &mut Emit<'_>)),
}

/// One `/metrics` family: see the module docs.
struct Family {
    name: &'static str,
    kind: Kind,
    json: &'static str,
    read: Read,
    help: &'static str,
}

impl Family {
    fn bounds(&self) -> &'static [u64] {
        match self.kind {
            Kind::Histogram(bounds) => bounds,
            _ => &[],
        }
    }

    /// Feed this family's series to `out`, in exposition order.
    fn series(&self, s: &Sources<'_>, out: &mut Emit<'_>) {
        match self.read {
            Read::Atomic(counter) => out(&[], Value::Int(counter(s.m).load(Relaxed))),
            Read::Scalar(read) => out(&[], Value::Int(read(s))),
            Read::Persist(read) => {
                if let Some(p) = s.persist {
                    out(&[], Value::Int(read(p)));
                }
            }
            Read::Shard(read) => {
                for (i, shard) in s.store.shards.iter().enumerate() {
                    out(&[("shard", &i.to_string())], Value::Int(read(shard)));
                }
            }
            Read::Series(read) => read(s, out),
        }
    }
}

const fn row(
    name: &'static str,
    kind: Kind,
    json: &'static str,
    read: Read,
    help: &'static str,
) -> Family {
    Family {
        name,
        kind,
        json,
        read,
        help,
    }
}

use Kind::{Counter, Gauge, Histogram, JsonOnly};
use Read::{Atomic, Persist, Scalar, Series, Shard};

/// Every `/metrics` family, in exposition order.
#[rustfmt::skip]
static FAMILIES: &[Family] = &[
    row("routes_build_info", Gauge, "version", Series(build_info),
        "Build metadata; the value is always 1."),
    row("routes_uptime_seconds", Gauge, "uptime_seconds", Scalar(|s| s.m.uptime_seconds()),
        "Seconds since the serving process started."),
    row("routes_threads", Gauge, "threads", Scalar(|s| s.threads as u64),
        "Worker pool width for parallel chase and forest construction."),
    row("routes_requests_total", Counter, "requests_total", Atomic(|m| &m.requests_total),
        "Requests handled (any status)."),
    row("routes_responses_total", Counter, "responses_{class}", Series(responses),
        "Responses by status class."),
    row("routes_bad_requests_total", Counter, "bad_requests", Atomic(|m| &m.bad_requests),
        "Requests rejected before dispatch (parse errors, limits)."),
    row("routes_connections_accepted_total", Counter, "connections_accepted",
        Atomic(|m| &m.connections_accepted),
        "TCP connections accepted."),
    row("routes_admission_queue_capacity", Gauge, "admission.queue_capacity",
        Atomic(|m| &m.admission_queue_capacity),
        "Bound of the acceptor's connection queue (--max-queue)."),
    row("routes_admission_queue_depth", Gauge, "admission.queue_depth",
        Atomic(|m| &m.admission_queue_depth),
        "Connections currently waiting in the admission queue."),
    row("routes_admission_admitted_total", Counter, "admission.admitted",
        Atomic(|m| &m.admission_admitted),
        "Connections admitted into the acceptor's queue."),
    row("routes_admission_shed_total", Counter, "admission.shed", Atomic(|m| &m.admission_shed),
        "Connections shed at the door with 429 Too Many Requests."),
    row("routes_admission_timeouts_total", Counter, "admission.timeouts",
        Atomic(|m| &m.admission_timeouts),
        "Requests answered 408 after the request deadline expired."),
    row("routes_admission_reaped_total", Counter, "admission.reaped",
        Atomic(|m| &m.admission_reaped),
        "Connections force-closed by a deadline (stalled readers/writers)."),
    row("routes_admission_queue_wait_us", Histogram(&LATENCY_BUCKETS_US), "admission.queue_wait_us",
        Series(|s, out| out(&[], Value::hist(s.m.queue_wait_counts()))),
        "Time connections spent queued before a worker popped them, in microseconds."),
    row("routes_live_sessions", Gauge, "live_sessions", Scalar(|s| s.store.live() as u64),
        "Sessions currently resident in the store."),
    row("routes_sessions_created_total", Counter, "sessions_created",
        Atomic(|m| &m.sessions_created),
        "Sessions created."),
    row("routes_sessions_deleted_total", Counter, "sessions_deleted",
        Atomic(|m| &m.sessions_deleted),
        "Sessions deleted by clients."),
    row("routes_sessions_evicted_total", Counter, "sessions_evicted",
        Atomic(|m| &m.sessions_evicted),
        "Sessions evicted at capacity."),
    row("routes_one_routes_computed_total", Counter, "one_routes_computed",
        Atomic(|m| &m.one_routes_computed),
        "ComputeOneRoute invocations."),
    row("routes_all_routes_computed_total", Counter, "all_routes_computed",
        Atomic(|m| &m.all_routes_computed),
        "ComputeAllRoutes invocations."),
    row("routes_forest_cache_hits_total", Counter, "forest_cache_hits",
        Atomic(|m| &m.forest_cache_hits),
        "Route-forest memo hits."),
    row("routes_forest_cache_misses_total", Counter, "forest_cache_misses",
        Atomic(|m| &m.forest_cache_misses),
        "Route-forest memo misses (forest built)."),
    row("routes_edits_applied_total", Counter, "edits.applied", Atomic(|m| &m.edits_applied),
        "Edit batches applied."),
    row("routes_edits_rejected_total", Counter, "edits.rejected", Atomic(|m| &m.edits_rejected),
        "Edit batches rejected by validation."),
    row("routes_edit_ops_applied_total", Counter, "edits.ops_applied",
        Atomic(|m| &m.edit_ops_applied),
        "Individual edit ops applied (across batches)."),
    row("routes_edit_forests_kept_total", Counter, "edits.forests_kept",
        Atomic(|m| &m.edit_forests_kept),
        "Cached route forests surviving an edit batch."),
    row("routes_edit_forests_invalidated_total", Counter, "edits.forests_invalidated",
        Atomic(|m| &m.edit_forests_invalidated),
        "Cached route forests invalidated by an edit batch."),
    row("routes_pipeline_sessions_created_total", Counter, "pipeline.sessions_created",
        Atomic(|m| &m.pipeline_sessions_created),
        "Multi-stage pipeline sessions created."),
    row("routes_pipeline_stage_chases_total", Counter, "pipeline.stage_chases",
        Atomic(|m| &m.pipeline_stage_chases),
        "Stage chases run while creating pipeline sessions."),
    row("routes_pipeline_core_runs_total", Counter, "pipeline.core_runs",
        Atomic(|m| &m.pipeline_core_runs),
        "Core minimization passes run on chased stage instances."),
    row("routes_pipeline_core_tuples_removed_total", Counter, "pipeline.core_tuples_removed",
        Atomic(|m| &m.pipeline_core_tuples_removed),
        "Tuples removed by core minimization."),
    row("routes_pipeline_stitched_routes_total", Counter, "pipeline.stitched_routes",
        Atomic(|m| &m.pipeline_stitched_routes),
        "Stitched end-to-end routes answered."),
    row("routes_pipeline_stitched_hops_total", Counter, "pipeline.stitched_hops",
        Atomic(|m| &m.pipeline_stitched_hops),
        "Per-hop routes inside answered stitched routes."),
    row("routes_join_batches_total", Counter, "join.batches", Scalar(|s| s.join.batches),
        "Binding batches pushed through the vectorized join executor."),
    row("routes_join_rows_probed_total", Counter, "join.rows_probed",
        Scalar(|s| s.join.rows_probed),
        "Candidate rows examined while extending binding batches."),
    row("routes_join_index_probes_total", Counter, "join.index_probes",
        Scalar(|s| s.join.index_probes),
        "Hash-index probe operations issued by the batch executor."),
    row("routes_join_hash_builds_total", Counter, "join.hash_builds",
        Scalar(|s| s.join.hash_builds),
        "Hash-index builds, including incremental catch-ups."),
    row("routes_join_hash_build_rows_total", Counter, "join.hash_build_rows",
        Scalar(|s| s.join.hash_build_rows),
        "Rows inserted into hash indexes by builds and catch-ups."),
    row("routes_request_latency_us", Histogram(&LATENCY_BUCKETS_US), "latency_us",
        Series(request_latency),
        "Whole-request latency in microseconds."),
    row("routes_window_seconds", Gauge, "window.seconds", Scalar(|s| s.window.seconds as u64),
        "Length of the rolling traffic window, in seconds."),
    row("routes_window_requests", Gauge, "window.requests", Scalar(|s| s.window.requests),
        "Requests recorded in the rolling window."),
    row("routes_window_errors", Gauge, "window.errors", Scalar(|s| s.window.errors),
        "5xx responses recorded in the rolling window."),
    row("routes_window_rps_milli", Gauge, "window.rps_milli", Scalar(|s| s.window.rps_milli),
        "Requests per second over the window, times 1000."),
    row("routes_window_error_rate_milli", Gauge, "window.error_rate_milli",
        Scalar(|s| s.window.error_rate_milli),
        "Errors per request over the window, times 1000."),
    row("routes_window_latency_p50_us", Gauge, "window.p50_us", Scalar(|s| s.window.p50_us),
        "Interpolated p50 request latency over the window, in microseconds."),
    row("routes_window_latency_p90_us", Gauge, "window.p90_us", Scalar(|s| s.window.p90_us),
        "Interpolated p90 request latency over the window, in microseconds."),
    row("routes_window_latency_p99_us", Gauge, "window.p99_us", Scalar(|s| s.window.p99_us),
        "Interpolated p99 request latency over the window, in microseconds."),
    row("routes_phase_latency_us", Histogram(&LATENCY_BUCKETS_US), "phases.{phase}",
        Series(phases),
        "Per-phase wall time in microseconds (chase, forest, route, print, edit)."),
    row("routes_session_store_capacity", Gauge, "session_store.capacity",
        Scalar(|s| s.store.capacity as u64),
        "Session-store capacity (sessions)."),
    row("routes_session_store_shards", Gauge, "session_store.shard_count",
        Scalar(|s| s.store.shards.len() as u64),
        "Session-store shard count."),
    row("", JsonOnly, "session_store.live_sessions", Scalar(|s| s.store.live() as u64), ""),
    row("routes_session_store_hits_total", Counter, "session_store.hits",
        Scalar(|s| s.store.hits()),
        "Store-wide lookup hits."),
    row("routes_session_store_misses_total", Counter, "session_store.misses",
        Scalar(|s| s.store.misses()),
        "Store-wide lookup misses."),
    row("routes_session_store_inserts_total", Counter, "session_store.inserts",
        Scalar(|s| s.store.inserts()),
        "Store-wide inserts."),
    row("routes_session_store_removes_total", Counter, "session_store.removes",
        Scalar(|s| s.store.removes()),
        "Store-wide removes."),
    row("routes_session_store_evictions_total", Counter, "session_store.evictions",
        Scalar(|s| s.store.evictions()),
        "Store-wide evictions."),
    row("routes_session_store_evict_scan_steps_total", Counter, "session_store.evict_scan_steps",
        Scalar(|s| s.store.evict_scan_steps()),
        "Entries examined while hunting eviction victims."),
    row("routes_session_store_write_locks_total", Counter, "session_store.write_locks",
        Scalar(|s| s.store.write_locks()),
        "Store-wide shard write-lock acquisitions."),
    row("routes_session_shard_sessions", Gauge, "session_store.shards[{shard}].sessions",
        Shard(|s| s.sessions as u64),
        "Sessions resident per shard."),
    row("routes_session_shard_capacity", Gauge, "session_store.shards[{shard}].capacity",
        Shard(|s| s.capacity as u64),
        "Per-shard session capacity."),
    row("routes_session_shard_hits_total", Counter, "session_store.shards[{shard}].hits",
        Shard(|s| s.hits),
        "Per-shard lookup hits."),
    row("routes_session_shard_misses_total", Counter, "session_store.shards[{shard}].misses",
        Shard(|s| s.misses),
        "Per-shard lookup misses."),
    row("routes_session_shard_inserts_total", Counter, "session_store.shards[{shard}].inserts",
        Shard(|s| s.inserts),
        "Per-shard inserts."),
    row("routes_session_shard_removes_total", Counter, "session_store.shards[{shard}].removes",
        Shard(|s| s.removes),
        "Per-shard removes."),
    row("routes_session_shard_evictions_total", Counter, "session_store.shards[{shard}].evictions",
        Shard(|s| s.evictions),
        "Per-shard evictions."),
    row("routes_session_shard_demotions_total", Counter, "session_store.shards[{shard}].demotions",
        Shard(|s| s.demotions),
        "Segmented-LRU demotions from protected to probation."),
    row("routes_session_shard_evict_scan_steps_total", Counter,
        "session_store.shards[{shard}].evict_scan_steps",
        Shard(|s| s.evict_scan_steps),
        "Per-shard entries examined while hunting eviction victims."),
    row("routes_session_shard_write_locks_total", Counter,
        "session_store.shards[{shard}].write_locks",
        Shard(|s| s.write_locks),
        "Per-shard write-lock acquisitions."),
    row("routes_session_shard_lock_wait_us", Histogram(&LOCK_WAIT_BUCKETS_US),
        "session_store.shards[{shard}].lock_wait_{mode}_us",
        Series(lock_waits),
        "Shard lock-acquisition wait in microseconds, by shard and mode."),
    row("routes_wal_generation", Gauge, "persistence.wal_gen", Persist(|p| p.wal_gen),
        "Current WAL generation number."),
    row("routes_wal_appends_total", Counter, "persistence.wal_appends", Persist(|p| p.wal_appends),
        "WAL records appended."),
    row("routes_wal_bytes_total", Counter, "persistence.wal_bytes", Persist(|p| p.wal_bytes),
        "WAL bytes written."),
    row("routes_fsync_batches_total", Counter, "persistence.fsync_batches",
        Persist(|p| p.fsync_batches),
        "Group-commit fsync batches."),
    row("routes_fsync_records_total", Counter, "persistence.fsync_records",
        Persist(|p| p.fsync_records),
        "WAL records made durable by fsync batches."),
    row("routes_snapshots_written_total", Counter, "persistence.snapshots_written",
        Persist(|p| p.snapshots_written),
        "Checkpoint snapshots written."),
    row("routes_wal_records_since_checkpoint", Gauge, "persistence.wal_records_since_checkpoint",
        Persist(|p| p.wal_records_since_checkpoint),
        "WAL records appended since the last checkpoint."),
    row("routes_fsync_latency_us", Histogram(&FSYNC_BUCKETS_US), "persistence.fsync_latency_us",
        Series(fsync_latency),
        "Group-commit fsync latency in microseconds."),
    row("routes_wal_replayed_records", Gauge, "persistence.replayed_records",
        Persist(|p| p.replayed_records),
        "WAL records replayed during the last recovery."),
    row("routes_wal_restored_sessions", Gauge, "persistence.restored_sessions",
        Persist(|p| p.restored_sessions),
        "Sessions restored during the last recovery."),
    row("routes_recovery_us", Gauge, "persistence.recovery_us", Persist(|p| p.recovery_us),
        "Wall time of the last recovery in microseconds."),
];

fn build_info(_: &Sources<'_>, out: &mut Emit<'_>) {
    let version = env!("CARGO_PKG_VERSION");
    out(&[("version", version)], Value::Info(version));
}

fn responses(s: &Sources<'_>, out: &mut Emit<'_>) {
    for (class, counter) in [
        ("2xx", &s.m.responses_2xx),
        ("4xx", &s.m.responses_4xx),
        ("5xx", &s.m.responses_5xx),
    ] {
        out(&[("class", class)], Value::Int(counter.load(Relaxed)));
    }
}

fn request_latency(s: &Sources<'_>, out: &mut Emit<'_>) {
    let value = Value::Hist {
        counts: load_all(&s.m.latency),
        sum: None,
        exemplars: Some(s.m.exemplars()),
    };
    out(&[], value);
}

fn phases(s: &Sources<'_>, out: &mut Emit<'_>) {
    for p in Phase::ALL {
        let stats = s.m.phase(p);
        let value = Value::Hist {
            counts: load_all(&stats.latency),
            sum: Some(stats.total_us.load(Relaxed)),
            exemplars: None,
        };
        out(&[("phase", p.name())], value);
    }
}

fn lock_waits(s: &Sources<'_>, out: &mut Emit<'_>) {
    for (i, shard) in s.store.shards.iter().enumerate() {
        let shard_label = i.to_string();
        for (mode, counts) in [
            ("read", &shard.lock_wait_read_us),
            ("write", &shard.lock_wait_write_us),
        ] {
            let labels = [("shard", shard_label.as_str()), ("mode", mode)];
            out(&labels, Value::hist(counts.clone()));
        }
    }
}

fn fsync_latency(s: &Sources<'_>, out: &mut Emit<'_>) {
    if let Some(p) = s.persist {
        out(&[], Value::hist(p.fsync_latency_us.clone()));
    }
}

/// `template` with every `{label}` replaced by that label's value.
fn fill(template: &str, labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .fold(template.to_owned(), |path, (label, value)| {
            path.replace(&format!("{{{label}}}"), value)
        })
}

/// The value at `path` under the object `root`, created (as an empty
/// object, or an array padded with them) on the way down.
fn slot<'j>(root: &'j mut Json, path: &str) -> &'j mut Json {
    path.split('.').fold(root, |node, segment| {
        let (key, index) = match segment.strip_suffix(']').and_then(|s| s.split_once('[')) {
            Some((key, i)) => (
                key,
                Some(i.parse::<usize>().expect("array index in a JSON path")),
            ),
            None => (segment, None),
        };
        let Json::Object(fields) = node else {
            unreachable!("JSON path `{path}` crosses a non-object")
        };
        let at = match fields.iter().position(|(k, _)| k == key) {
            Some(at) => at,
            None => {
                let empty = match index {
                    Some(_) => Json::Array(Vec::new()),
                    None => Json::Object(Vec::new()),
                };
                fields.push((key.to_owned(), empty));
                fields.len() - 1
            }
        };
        match (index, &mut fields[at].1) {
            (None, child) => child,
            (Some(i), Json::Array(items)) => {
                if items.len() <= i {
                    items.resize(i + 1, Json::Object(Vec::new()));
                }
                &mut items[i]
            }
            (Some(_), _) => unreachable!("JSON path `{path}` indexes a non-array"),
        }
    })
}

/// A histogram bucket's `le_us` in JSON: its bound, `inf` for the tail.
fn le_us(bounds: &[u64], i: usize) -> Json {
    Json::from(
        bounds
            .get(i)
            .map_or_else(|| "inf".to_owned(), |b| b.to_string()),
    )
}

fn buckets_json(bounds: &[u64], counts: &[u64]) -> Json {
    Json::Array(
        counts
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                Json::obj([("le_us", le_us(bounds, i)), ("count", Json::from(count))])
            })
            .collect(),
    )
}

fn exemplars_json(bounds: &[u64], exemplars: Vec<Option<(String, u64)>>) -> Json {
    Json::Array(
        exemplars
            .into_iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .map(|(i, (trace, dur))| {
                Json::obj([
                    ("le_us", le_us(bounds, i)),
                    ("trace_id", Json::from(trace)),
                    ("dur_us", Json::from(dur)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionStore;

    /// What `GET /metrics` serves for `m` over a one-shard store holding
    /// `live` sessions, without persistence or join counters.
    fn json(m: &Metrics, live: usize, threads: usize) -> Json {
        let mut store = SessionStore::with_shards(1, 1).snapshot();
        store.shards[0].sessions = live;
        m.to_json_with_store(&store, None, &JoinSnapshot::default(), threads)
    }

    #[test]
    fn responses_land_in_class_and_latency_buckets() {
        let m = Metrics::new();
        m.record_response(200, Duration::from_micros(50), None);
        m.record_response(201, Duration::from_micros(400), None);
        m.record_response(404, Duration::from_millis(2), None);
        m.record_response(500, Duration::from_secs(5), None);
        assert_eq!(m.requests_total.load(Relaxed), 4);
        assert_eq!(m.responses_2xx.load(Relaxed), 2);
        assert_eq!(m.responses_4xx.load(Relaxed), 1);
        assert_eq!(m.responses_5xx.load(Relaxed), 1);
        let snapshot = json(&m, 3, 2);
        assert_eq!(
            snapshot.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION")),
            "the crate version leads the snapshot"
        );
        assert!(snapshot.get("uptime_seconds").unwrap().as_u64().is_some());
        assert_eq!(snapshot.get("requests_total").unwrap().as_u64(), Some(4));
        assert_eq!(snapshot.get("live_sessions").unwrap().as_u64(), Some(3));
        assert_eq!(snapshot.get("threads").unwrap().as_u64(), Some(2));
        let hist = snapshot.get("latency_us").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), LATENCY_BUCKETS_US.len() + 1);
        let total: u64 = hist
            .iter()
            .map(|b| b.get("count").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 4);
        // The 5 s response falls in the unbounded bucket.
        assert_eq!(hist.last().unwrap().get("count").unwrap().as_u64(), Some(1));
        // The rolling window saw the same four requests, one of them 5xx.
        let window = snapshot.get("window").unwrap();
        assert_eq!(window.get("requests").unwrap().as_u64(), Some(4));
        assert_eq!(window.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(window.get("error_rate_milli").unwrap().as_u64(), Some(250));
        // No traced request yet: the exemplar list is empty.
        let exemplars = snapshot.get("exemplars").unwrap().as_array().unwrap();
        assert!(exemplars.is_empty());
    }

    #[test]
    fn traced_requests_become_bucket_exemplars() {
        let m = Metrics::new();
        m.record_response(200, Duration::from_micros(40), Some("fast"));
        // Slower occupant of the same bucket replaces the exemplar…
        m.record_response(200, Duration::from_micros(80), Some("slow"));
        // …a faster one does not.
        m.record_response(200, Duration::from_micros(60), Some("mid"));
        // A different bucket keeps its own exemplar.
        m.record_response(500, Duration::from_micros(300), Some("err"));
        let exemplars = m.exemplars();
        assert_eq!(exemplars[0], Some(("slow".to_owned(), 80)));
        assert_eq!(exemplars[1], Some(("err".to_owned(), 300)));
        assert!(exemplars[2..].iter().all(|e| e.is_none()));
        let rendered = json(&m, 0, 1);
        let rendered = rendered.get("exemplars").unwrap().as_array().unwrap();
        assert_eq!(rendered.len(), 2);
        assert_eq!(rendered[0].get("trace_id").unwrap().as_str(), Some("slow"));
        assert_eq!(rendered[0].get("le_us").unwrap().as_str(), Some("100"));
        assert_eq!(rendered[0].get("dur_us").unwrap().as_u64(), Some(80));
    }

    #[test]
    fn empty_window_renders_zero_gauges_at_boot() {
        let m = Metrics::new();
        let store = SessionStore::with_shards(1, 1);
        let text = m.to_prometheus(&store.snapshot(), None, &JoinSnapshot::default(), 1);
        for gauge in [
            "routes_window_requests 0",
            "routes_window_errors 0",
            "routes_window_rps_milli 0",
            "routes_window_error_rate_milli 0",
            "routes_window_latency_p50_us 0",
            "routes_window_latency_p90_us 0",
            "routes_window_latency_p99_us 0",
        ] {
            assert!(text.contains(gauge), "missing `{gauge}` in:\n{text}");
        }
        assert!(text.contains(&format!(
            "routes_window_seconds {}",
            crate::window::WINDOW_SECONDS
        )));
    }

    #[test]
    fn prometheus_buckets_carry_the_exemplar_annotation() {
        let m = Metrics::new();
        m.record_response(200, Duration::from_micros(70), Some("abc123"));
        let store = SessionStore::with_shards(1, 1);
        let text = m.to_prometheus(&store.snapshot(), None, &JoinSnapshot::default(), 1);
        assert!(
            text.contains(
                "routes_request_latency_us_bucket{le=\"100\"} 1 # {trace_id=\"abc123\"} 70"
            ),
            "exemplar annotation missing in:\n{text}"
        );
    }

    #[test]
    fn store_snapshot_renders_totals_shards_and_lock_wait_histograms() {
        use routes_chase::ChaseOptions;
        use routes_cli::{load_scenario_str, prepare_scenario};
        use routes_pool::Pool;

        let text = "source schema:\n  S(a)\ntarget schema:\n  T(a)\n\
                    dependencies:\n  m: S(x) -> T(x)\nsource data:\n  S(1)\n";
        let scenario =
            || prepare_scenario(load_scenario_str(text).unwrap(), ChaseOptions::fresh()).unwrap();
        let store = SessionStore::with_shards(4, 2);
        let workers = Pool::sequential();
        let (a, _) = store.insert(scenario(), &workers);
        let (b, _) = store.insert(scenario(), &workers);
        for _ in 0..3 {
            assert!(store.get(a).is_found());
        }
        assert!(store.get(b).is_found());
        assert!(!store.get(999).is_found());

        let snap = store.snapshot();
        let m = Metrics::new();
        let json = m.to_json_with_store(&snap, None, &JoinSnapshot::default(), 1);
        assert!(
            json.get("persistence").is_none(),
            "no persistence block without a data dir"
        );
        assert_eq!(json.get("live_sessions").unwrap().as_u64(), Some(2));
        let sj = json.get("session_store").unwrap();
        assert_eq!(sj.get("shard_count").unwrap().as_u64(), Some(2));
        assert_eq!(sj.get("capacity").unwrap().as_u64(), Some(4));
        assert_eq!(sj.get("hits").unwrap().as_u64(), Some(4));
        assert_eq!(sj.get("misses").unwrap().as_u64(), Some(1));
        let shards = sj.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 2);
        let bucket_total = |hist: &Json| -> u64 {
            hist.as_array()
                .unwrap()
                .iter()
                .map(|b| b.get("count").unwrap().as_u64().unwrap())
                .sum()
        };
        // Every lock acquisition lands in exactly one wait bucket: reads
        // are the five lookups, writes match the write_locks counter.
        let read_waits: u64 = shards
            .iter()
            .map(|s| bucket_total(s.get("lock_wait_read_us").unwrap()))
            .sum();
        let write_waits: u64 = shards
            .iter()
            .map(|s| bucket_total(s.get("lock_wait_write_us").unwrap()))
            .sum();
        assert_eq!(read_waits, 5);
        assert_eq!(write_waits, snap.write_locks());
        assert!(snap.write_locks() >= 2, "two inserts write-locked");
    }

    #[test]
    fn persistence_block_renders_counters_and_fsync_histogram() {
        let p = PersistSnapshot {
            wal_gen: 2,
            wal_appends: 7,
            fsync_latency_us: {
                let mut h = vec![0; FSYNC_BUCKETS_US.len() + 1];
                h[0] = 3;
                h
            },
            ..PersistSnapshot::default()
        };
        let m = Metrics::new();
        let store = SessionStore::with_shards(1, 1);
        let json = m.to_json_with_store(&store.snapshot(), Some(&p), &JoinSnapshot::default(), 1);
        let pj = json.get("persistence").unwrap();
        assert_eq!(pj.get("wal_gen").unwrap().as_u64(), Some(2));
        assert_eq!(pj.get("wal_appends").unwrap().as_u64(), Some(7));
        let hist = pj.get("fsync_latency_us").unwrap().as_array().unwrap();
        assert_eq!(hist.len(), FSYNC_BUCKETS_US.len() + 1);
        assert_eq!(hist[0].get("count").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn join_block_renders_the_batch_executor_counters() {
        let j = JoinSnapshot {
            batches: 5,
            rows_probed: 40,
            index_probes: 12,
            hash_builds: 3,
            hash_build_rows: 30,
        };
        let m = Metrics::new();
        let store = SessionStore::with_shards(1, 1);
        let json = m.to_json_with_store(&store.snapshot(), None, &j, 1);
        let jj = json.get("join").unwrap();
        assert_eq!(jj.get("batches").unwrap().as_u64(), Some(5));
        assert_eq!(jj.get("rows_probed").unwrap().as_u64(), Some(40));
        assert_eq!(jj.get("index_probes").unwrap().as_u64(), Some(12));
        assert_eq!(jj.get("hash_builds").unwrap().as_u64(), Some(3));
        assert_eq!(jj.get("hash_build_rows").unwrap().as_u64(), Some(30));
        let text = m.to_prometheus(&store.snapshot(), None, &j, 1);
        assert!(text.contains("routes_join_batches_total 5"));
        assert!(text.contains("routes_join_rows_probed_total 40"));
        assert!(text.contains("routes_join_hash_build_rows_total 30"));
    }

    #[test]
    fn phase_samples_accumulate_count_total_and_histogram() {
        let m = Metrics::new();
        m.record_phase(Phase::Chase, Duration::from_micros(90));
        m.record_phase(Phase::Chase, Duration::from_micros(400));
        m.record_phase(Phase::Forest, Duration::from_millis(2));
        let count = |p| load_all(&m.phase(p).latency).iter().sum::<u64>();
        assert_eq!(count(Phase::Chase), 2);
        assert_eq!(m.phase(Phase::Chase).total_us.load(Relaxed), 490);
        assert_eq!(count(Phase::Route), 0);
        let snapshot = json(&m, 0, 1);
        let phases = snapshot.get("phases").unwrap();
        for p in Phase::ALL {
            let entry = phases.get(p.name()).unwrap();
            let hist_total: u64 = entry
                .get("latency_us")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|b| b.get("count").unwrap().as_u64().unwrap())
                .sum();
            assert_eq!(Some(hist_total), entry.get("count").unwrap().as_u64());
        }
        assert_eq!(
            phases.get("forest").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
    }
}
