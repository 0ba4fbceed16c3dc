//! Metric definitions and their computation from a run's samples and
//! spans.

use std::collections::BTreeMap;

use routes_server::Json;

use crate::e2e::Sample;
use crate::replay::{Counts, Span};
use crate::workload::{Kind, Workload};

/// The end-to-end metrics every `--trace 0` run prints, with units.
/// `primary_*` / `secondary_*` are the latencies of the two ops each
/// workload exists to measure (see [`Workload::roles`]).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("primary_p50_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_tail_ms", "ms"),
    ("server_rss_mb", "MB"),
];

/// The layers, as span-name prefixes; `op` is an op's own self time.
pub const LAYERS: [&str; 8] = [
    "server", "store", "cli", "chase", "core", "pipeline", "incr", "op",
];

/// The per-layer metrics every `--trace 1` run prints, with units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("server.transport_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.json_parse_us", "us"),
    ("server.json_encode_us", "us"),
    ("server.response_bytes", "B"),
    ("server.store_us", "us"),
    ("server.scrape_us", "us"),
    ("store.wal_append_us", "us"),
    ("store.wal_bytes_per_body_byte", "B/B"),
    ("store.fsyncs_per_mutation", "count"),
    ("cli.load_us", "us"),
    ("chase.busy_us", "us"),
    ("chase.rounds", "count"),
    ("chase.fired_per_match", "ratio"),
    ("query.rows_probed_per_match", "ratio"),
    ("query.index_probes", "count"),
    ("query.hash_build_rows", "count"),
    ("core.one_route_us", "us"),
    ("core.validate_us", "us"),
    ("core.route_steps", "count"),
    ("core.forest_us", "us"),
    ("core.forest_nodes", "count"),
    ("core.forest_hit_ratio", "ratio"),
    ("core.view_us", "us"),
    ("pipeline.prepare_us", "us"),
    ("pipeline.core_share", "ratio"),
    ("pipeline.core_shrink", "ratio"),
    ("pipeline.stitch_us", "us"),
    ("incr.apply_us", "us"),
    ("incr.memo_hit_ratio", "ratio"),
    ("incr.survive_us", "us"),
    ("incr.apply_vs_rechase", "ratio"),
    ("incr.forests_kept_ratio", "ratio"),
    ("trace.op_vs_e2e", "ratio"),
    ("self.server_share", "ratio"),
    ("self.store_share", "ratio"),
    ("self.cli_share", "ratio"),
    ("self.chase_share", "ratio"),
    ("self.core_share", "ratio"),
    ("self.pipeline_share", "ratio"),
    ("self.incr_share", "ratio"),
    ("self.op_share", "ratio"),
    ("trace.spans", "count"),
];

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0
}

/// Latencies in ms of the verified answers sent after the warm-up, per op
/// kind, ascending.
pub fn latencies_ms(samples: &[Sample], ok: &[bool]) -> BTreeMap<Kind, Vec<f64>> {
    let mut out: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for (s, &good) in samples.iter().zip(ok) {
        if good && !s.warmup {
            out.entry(s.kind)
                .or_default()
                .push(s.latency.as_secs_f64() * 1e3);
        }
    }
    for v in out.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    out
}

/// One named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run's per-span-name totals: (count, Σ duration ns).
fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    out
}

/// Self time per layer, summed over all ops, in ns. Also checks that
/// every child lies inside its op and that siblings do not overlap, so
/// that each op's layer self times plus its own self time equal its span;
/// returns the number of ops where that fails.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, usize) {
    let mut totals: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    let mut children: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut broken = 0;
    for (i, op) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let mut kids = children.remove(&i).unwrap_or_default();
        kids.sort_by_key(|s| s.start_ns);
        let mut cursor = op.start_ns;
        let mut layer_sum = 0u64;
        let mut ok = true;
        for k in &kids {
            ok &= k.start_ns >= cursor && k.end_ns <= op.end_ns && k.op_id == op.op_id;
            cursor = k.end_ns;
            *totals.entry(k.layer()).or_default() += k.dur_ns();
            layer_sum += k.dur_ns();
        }
        let own = op.dur_ns().saturating_sub(layer_sum);
        *totals.entry("op").or_default() += own;
        if !ok || layer_sum + own != op.dur_ns() {
            broken += 1;
        }
    }
    (totals, broken)
}

/// Traced op durations of one kind, in ms, ascending.
pub fn traced_ms(spans: &[Span], kind: Kind) -> Vec<f64> {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == kind.name())
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Inputs of the per-layer metrics beyond spans and counts.
pub struct LayerInputs<'a> {
    pub workload: Workload,
    pub spans: &'a [Span],
    pub counts: &'a Counts,
    /// (WAL bytes, fsync batches) appended by the replay.
    pub wal: (u64, u64),
    /// Ops the replay ran.
    pub ops: u64,
    /// Verified socket latencies per kind, ms ascending.
    pub e2e_ms: &'a BTreeMap<Kind, Vec<f64>>,
    /// Mean admission queue wait over the socket run, µs.
    pub queue_wait_us: f64,
}

pub fn per_layer(input: &LayerInputs) -> Vec<Metric> {
    let names = by_name(input.spans);
    let mean_us = |which: &[&str]| {
        let (n, ns) = which
            .iter()
            .filter_map(|w| names.get(w))
            .fold((0u64, 0u64), |(n, t), &(c, d)| (n + c, t + d));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e3
        }
    };
    let c = input.counts;
    let primary = input.workload.roles()[0].0;
    let e2e_p50 = input
        .e2e_ms
        .get(&primary)
        .map_or(0.0, |v| percentile(v, 50.0));
    let traced_p50 = percentile(&traced_ms(input.spans, primary), 50.0);
    let (self_ns, _) = self_times(input.spans);
    let self_total: u64 = self_ns.values().sum();
    let stitch_calls = names.get("pipeline.stitch").map_or(0, |e| e.0);
    let stitch_ns = ["pipeline.stitch", "pipeline.stitch_validate"]
        .iter()
        .filter_map(|n| names.get(n))
        .map(|e| e.1)
        .sum::<u64>();
    let mut values: BTreeMap<&str, f64> = BTreeMap::from([
        ("server.transport_us", (e2e_p50 - traced_p50) * 1e3),
        ("server.queue_wait_us", input.queue_wait_us),
        ("server.json_parse_us", mean_us(&["server.json_parse"])),
        ("server.json_encode_us", mean_us(&["server.json_encode"])),
        (
            "server.response_bytes",
            ratio(c.response_bytes, c.responses),
        ),
        ("server.store_us", mean_us(&["server.store"])),
        ("server.scrape_us", mean_us(&["server.scrape"])),
        ("store.wal_append_us", mean_us(&["store.wal_append"])),
        (
            "store.wal_bytes_per_body_byte",
            ratio(input.wal.0, c.mutation_body_bytes),
        ),
        ("store.fsyncs_per_mutation", ratio(input.wal.1, c.mutations)),
        ("cli.load_us", mean_us(&["cli.load"])),
        ("chase.busy_us", mean_us(&["chase.prepare"])),
        ("chase.rounds", ratio(c.chase_rounds, c.chases)),
        (
            "chase.fired_per_match",
            ratio(c.chase_fired, c.chase_matches),
        ),
        (
            "query.rows_probed_per_match",
            ratio(c.chase_rows_probed, c.chase_matches),
        ),
        ("query.index_probes", ratio(c.index_probes, input.ops)),
        ("query.hash_build_rows", ratio(c.hash_build_rows, input.ops)),
        ("core.one_route_us", mean_us(&["core.one_route"])),
        ("core.validate_us", mean_us(&["core.validate"])),
        ("core.route_steps", ratio(c.route_steps, c.routes)),
        ("core.forest_us", mean_us(&["core.forest"])),
        ("core.forest_nodes", ratio(c.forest_nodes, c.forests_built)),
        (
            "core.forest_hit_ratio",
            ratio(c.forest_hits, c.forest_lookups),
        ),
        ("core.view_us", mean_us(&["core.view"])),
        ("pipeline.prepare_us", mean_us(&["pipeline.prepare"])),
        (
            "pipeline.core_share",
            ratio(c.stage_core_us, c.stage_core_us + c.stage_chase_us),
        ),
        (
            "pipeline.core_shrink",
            ratio(c.core_tuples_after, c.core_tuples_before),
        ),
        (
            "pipeline.stitch_us",
            if stitch_calls == 0 {
                0.0
            } else {
                stitch_ns as f64 / stitch_calls as f64 / 1e3
            },
        ),
        ("incr.apply_us", mean_us(&["incr.apply"])),
        (
            "incr.memo_hit_ratio",
            ratio(c.memo_hits, c.memo_hits + c.memo_misses),
        ),
        ("incr.survive_us", mean_us(&["incr.survive"])),
        ("incr.apply_vs_rechase", ratio(c.apply_ns, c.rechase_ns)),
        (
            "incr.forests_kept_ratio",
            ratio(c.forests_kept, c.forests_kept + c.forests_invalidated),
        ),
        (
            "trace.op_vs_e2e",
            if e2e_p50 > 0.0 {
                traced_p50 / e2e_p50
            } else {
                0.0
            },
        ),
        ("trace.spans", input.spans.len() as f64),
    ]);
    for layer in LAYERS {
        let key: &'static str = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == format!("self.{layer}_share"))
            .expect("every layer has a share metric");
        values.insert(key, ratio(self_ns[layer], self_total));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_owned(),
            value: values[name],
            unit,
        })
        .collect()
}
