//! `spiderbench`: the repository's benchmark.
//!
//! ```text
//! spiderbench --spiderd PATH --workload probe|evolve|pipeline --seed N
//!             --seconds S --trace 0|1
//! spiderbench --spiderd PATH --selftest
//! ```
//!
//! One run boots a real release `spiderd`, creates the workload's seed
//! sessions (set-up, timed several times), drives two closed-loop
//! keep-alive clients through their seeded op scripts for a short
//! untimed warm-up and then for `--seconds`, then replays the same scripts
//! in-process to check every answer. With `--trace 0` the last stdout
//! line carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of the traced replay.
//! Everything the run writes goes under `.bench_out/` in the working
//! directory. See `spiderbench/README.md` for the workloads and metrics.

mod answer;
mod e2e;
mod http;
mod render;
mod replay;
mod report;
mod selftest;
mod workload;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use routes_server::Json;

use crate::answer::Answer;
use crate::e2e::{Spiderd, SPIDERD_FLAGS};
use crate::replay::Replay;
use crate::report::{percentile, supports, Metric};
use crate::workload::{Kind, Size, Step, Target, Workload, CLIENTS};

/// Where runs write logs, data directories, spans and results.
const OUT_DIR: &str = ".bench_out";

/// Seconds the clients run their scripts before the measured window: long
/// enough for `probe` to fill its forest memo (one pass of its scripts) and
/// for every workload's allocator and WAL file to reach a steady size.
const WARMUP_S: f64 = 3.0;

pub struct Args {
    pub spiderd: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Untimed lead-in before the measured window, in seconds.
    pub warmup: f64,
    pub trace: bool,
    pub size: Size,
}

/// One run's outcome.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Identifies the generated inputs.
    pub fingerprint: u64,
    /// Human-readable report (printed before the result line).
    pub report: String,
}

impl RunResult {
    pub fn line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", report::metrics_json(&self.metrics)),
        ])
        .encode()
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!(
        "spiderbench: {message}\nusage: spiderbench --spiderd PATH --workload probe|evolve|pipeline \
         --seed N --seconds S --trace 0|1\n       spiderbench --spiderd PATH --selftest"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut spiderd = None;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut selftest = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            selftest = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--spiderd" => spiderd = Some(PathBuf::from(value)),
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(spiderd) = spiderd.filter(|p| p.is_file()) else {
        return usage("--spiderd must name the built spiderd binary");
    };
    if selftest {
        return match selftest::run_selftest(&spiderd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("spiderbench selftest FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let args = Args {
        spiderd,
        workload,
        seed,
        seconds,
        warmup: WARMUP_S,
        trace,
        size: Size::full(),
    };
    match run(&args) {
        Ok(result) => {
            print!("{}", result.report);
            println!("{}", result.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("spiderbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Mean of the admission queue-wait histogram delta, each bucket counted
/// at its upper bound (the open bucket at the last finite bound).
fn queue_wait_mean(before: &[(u64, u64)], after: &[(u64, u64)]) -> f64 {
    let last_finite = after
        .iter()
        .map(|b| b.0)
        .filter(|&b| b != u64::MAX)
        .max()
        .unwrap_or(0);
    let (mut n, mut sum) = (0u64, 0f64);
    for (i, &(le, count)) in after.iter().enumerate() {
        let delta = count - before.get(i).map_or(0, |b| b.1);
        let at = if le == u64::MAX { last_finite } else { le };
        n += delta;
        sum += delta as f64 * at as f64;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The per-op end-to-end metrics the report prints: name, op, percentile.
const NAMED_OPS: [(&str, Kind, f64); 11] = [
    ("one_route_p50_ms", Kind::OneRoute, 50.0),
    ("one_route_p99_ms", Kind::OneRoute, 99.0),
    ("all_routes_p50_ms", Kind::AllRoutes, 50.0),
    ("all_routes_p99_ms", Kind::AllRoutes, 99.0),
    ("create_p50_ms", Kind::Create, 50.0),
    ("create_p90_ms", Kind::Create, 90.0),
    ("edit_p50_ms", Kind::Edit, 50.0),
    ("edit_p90_ms", Kind::Edit, 90.0),
    ("stitched_p50_ms", Kind::Stitched, 50.0),
    ("stitched_p99_ms", Kind::Stitched, 99.0),
    ("scrape_p50_ms", Kind::Scrape, 50.0),
];

pub fn run(args: &Args) -> Result<RunResult, String> {
    let out = Path::new(OUT_DIR);
    fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let tag = format!(
        "{}-s{}-t{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let size = &args.size;
    let replay_dir = out.join(format!("replay-{tag}"));
    let mut replay = Replay::new(&replay_dir, args.trace)?;

    // Inputs. `probe`'s selections are drawn from its seed sessions' chased
    // sizes, so the replay creates those first (traced, like any create).
    let mut seed_bodies = Vec::new();
    let mut replay_seed_ids = Vec::new();
    let mut seed_answers = Vec::new();
    let scripts = match args.workload {
        Workload::Probe => {
            seed_bodies = workload::probe_seed_bodies(args.seed, size)?;
            for body in &seed_bodies {
                let step = Step::new(Kind::Create, Target::Service, body.clone());
                seed_answers.push(replay.run(0, &step, &[])?);
                replay_seed_ids.push(replay.created(0).expect("create answered an id"));
            }
            let sizes: Vec<_> = replay_seed_ids
                .iter()
                .map(|&id| replay.group_sizes(id))
                .collect();
            workload::probe_scripts(args.seed, size, &sizes)
        }
        Workload::Evolve => workload::evolve_scripts(args.seed, size),
        Workload::Pipeline => workload::pipeline_scripts(args.seed, size)?,
    };
    let fingerprint = workload::fingerprint(&seed_bodies, &scripts);

    // Set-up: spawn to ready with the seed sessions created, several times.
    let setups = if seed_bodies.is_empty() { 9 } else { 5 };
    let mut setup_s = Vec::with_capacity(setups);
    let mut seeds_match = true;
    let mut server: Option<Spiderd> = None;
    let mut seed_ids = Vec::new();
    for _ in 0..setups {
        if let Some(previous) = server.take() {
            previous.shutdown()?;
        }
        let started = Instant::now();
        let spawned = Spiderd::spawn(
            &args.spiderd,
            out.join(format!("data-{tag}")),
            &out.join(format!("spiderd-{tag}.log")),
        )?;
        let created = e2e::create_seed_sessions(spawned.addr, &seed_bodies)?;
        setup_s.push(started.elapsed().as_secs_f64());
        seeds_match &= created.iter().map(|(_, a)| a).eq(seed_answers.iter());
        seed_ids = created.iter().map(|(id, _)| *id).collect();
        server = Some(spawned);
    }
    let server = server.expect("at least one set-up ran");

    let queue_before = e2e::queue_wait_histogram(server.addr)?;
    let window = e2e::run_window(server.addr, &scripts, &seed_ids, args.warmup, args.seconds);
    let queue_after = e2e::queue_wait_histogram(server.addr)?;
    let rss_kib = server.peak_rss_kib().ok_or("cannot read spiderd's VmHWM")?;
    server.shutdown()?;

    // Replay every script step the socket run reached, clients in turn.
    let mut reach = [0usize; CLIENTS];
    for s in &window.samples {
        reach[s.client] = reach[s.client].max(s.step + 1);
    }
    let mut expected: Vec<Vec<Option<Result<Answer, String>>>> =
        scripts.iter().map(|s| vec![None; s.len()]).collect();
    let replay_ops_before = replay
        .trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .count();
    for i in 0..reach.iter().copied().max().unwrap_or(0) {
        for c in 0..CLIENTS {
            if i < reach[c] {
                expected[c][i] = Some(replay.run(c, &scripts[c][i], &replay_seed_ids));
            }
        }
    }
    let replay_ops = replay
        .trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .count() as u64;

    // Check every socket answer against its replay.
    let mut failures: Vec<String> = Vec::new();
    let ok: Vec<bool> = window
        .samples
        .iter()
        .map(|s| {
            let want = expected[s.client][s.step]
                .as_ref()
                .expect("reached steps are replayed");
            let good = matches!((&s.outcome, want), (Ok(got), Ok(want)) if got == want);
            if !good && failures.len() < 5 {
                failures.push(format!(
                    "client {} step {} ({}): got {:?}, replay {:?}",
                    s.client,
                    s.step,
                    s.kind.name(),
                    s.outcome,
                    want
                ));
            }
            good
        })
        .collect();
    let attempted = window.samples.len();
    let verified = ok.iter().filter(|&&g| g).count();
    let failed = attempted - verified;
    let warmup_n = window.samples.iter().filter(|s| s.warmup).count();
    let measured_verified = window
        .samples
        .iter()
        .zip(&ok)
        .filter(|(s, &good)| good && !s.warmup)
        .count();
    let latencies = report::latencies_ms(&window.samples, &ok);
    write_samples(
        &out.join(format!("samples-{tag}.tsv")),
        &window.samples,
        &ok,
    )?;
    let (self_ns, broken_ops) = report::self_times(&replay.trace.spans);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "# spiderbench {} seed={} seconds={} trace={} size={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if size.probe_blocks == Size::full().probe_blocks {
            "full"
        } else {
            "tiny"
        }
    );
    let config = format!(
        "nproc={} rustc=\"{}\" spiderd=\"{} --data-dir <fresh dir>\" flush=\"default WAL group \
         commit: creates, edits and deletes fsynced before the answer; touches and forest memos \
         buffered\" clients={CLIENTS} closed-loop keep-alive inputs={fingerprint:016x}",
        nproc(),
        rustc_version(),
        SPIDERD_FLAGS.join(" ")
    );
    let _ = writeln!(text, "# host/config: {config}");
    let _ = writeln!(
        text,
        "# warm-up {:.1} s ({warmup_n} requests, checked, not timed); window {:.3} s; \
         {attempted} requests in all, {verified} verified, {failed} failed; replay ran {} ops",
        args.warmup,
        window.elapsed.as_secs_f64(),
        replay_ops - replay_ops_before as u64
    );
    for f in &failures {
        let _ = writeln!(text, "# FAILED {f}");
    }
    let _ = writeln!(
        text,
        "# {:<10} {:>7} {:>10} {:>10} {:>10}",
        "op", "n", "p50_ms", "p90_ms", "p99_ms"
    );
    for (kind, v) in &latencies {
        let pct = |p: f64| {
            if supports(v.len(), p) || p == 50.0 {
                format!("{:.3}", percentile(v, p))
            } else {
                "-".to_owned()
            }
        };
        let _ = writeln!(
            text,
            "# {:<10} {:>7} {:>10} {:>10} {:>10}",
            kind.name(),
            v.len(),
            pct(50.0),
            pct(90.0),
            pct(99.0)
        );
    }
    let _ = writeln!(text, "# per-op metrics (ms, with sample count):");
    for (name, kind, p) in NAMED_OPS {
        let line = match latencies.get(&kind) {
            None => "not run by this workload".to_owned(),
            Some(v) if p > 50.0 && !supports(v.len(), p) => format!(
                "dropped: n={} leaves fewer than 10 samples beyond p{p}",
                v.len()
            ),
            Some(v) => format!("{:.3} ms (n={}, p{p})", percentile(v, p), v.len()),
        };
        let _ = writeln!(text, "#   {name:<18} {line}");
    }
    let _ = writeln!(
        text,
        "#   {:<18} {:.6} ({failed}/{attempted})",
        "error_rate",
        failed as f64 / attempted.max(1) as f64
    );

    let mut setup_sorted = setup_s.clone();
    setup_sorted.sort_by(f64::total_cmp);
    let mut correct = failed == 0 && seeds_match && broken_ops == 0 && attempted > 0;
    if !seeds_match {
        let _ = writeln!(
            text,
            "# FAILED seed-session creates disagree with the replay"
        );
    }
    if broken_ops > 0 {
        let _ = writeln!(
            text,
            "# FAILED {broken_ops} traced ops whose spans do not add up"
        );
    }

    let metrics = if args.trace {
        let layer = report::per_layer(&report::LayerInputs {
            workload: args.workload,
            spans: &replay.trace.spans,
            counts: &replay.counts,
            wal: replay.wal_totals(),
            ops: replay_ops,
            e2e_ms: &latencies,
            queue_wait_us: queue_wait_mean(&queue_before, &queue_after),
        });
        let total: u64 = self_ns.values().sum();
        let mut ranked: Vec<(&str, u64)> = self_ns.iter().map(|(l, ns)| (*l, *ns)).collect();
        ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
        let _ = writeln!(text, "# traced replay: self time by layer (top first)");
        for (layer, ns) in &ranked {
            let _ = writeln!(
                text,
                "#   {layer:<9} {:>10.3} ms  {:>5.1}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        let primary = args.workload.roles()[0].0;
        let traced = report::traced_ms(&replay.trace.spans, primary);
        let _ = writeln!(
            text,
            "# tracing overhead: traced {} total {:.3} ms over {} ops (p50 {:.3} ms) vs untraced \
             socket p50 {:.3} ms",
            primary.name(),
            traced.iter().sum::<f64>(),
            traced.len(),
            percentile(&traced, 50.0),
            latencies.get(&primary).map_or(0.0, |v| percentile(v, 50.0))
        );
        write_spans(&out.join(format!("spans-{tag}.jsonl")), &replay.trace.spans)?;
        layer
    } else {
        let mut m = vec![
            Metric {
                name: "setup_s".into(),
                value: percentile(&setup_sorted, 50.0),
                unit: "s",
            },
            Metric {
                name: "throughput_rps".into(),
                value: measured_verified as f64 / window.elapsed.as_secs_f64(),
                unit: "1/s",
            },
        ];
        for ((kind, tail), role) in args
            .workload
            .roles()
            .into_iter()
            .zip(["primary", "secondary"])
        {
            let v = latencies.get(&kind).map_or(&[][..], Vec::as_slice);
            correct &= !v.is_empty();
            if !supports(v.len(), tail) {
                let _ = writeln!(
                    text,
                    "# NOTE {role}_tail_ms: n={} leaves fewer than 10 samples beyond p{tail}",
                    v.len()
                );
            }
            let _ = writeln!(
                text,
                "# {role} = {} (tail = p{tail}, n={})",
                kind.name(),
                v.len()
            );
            m.push(Metric {
                name: format!("{role}_p50_ms"),
                value: percentile(v, 50.0),
                unit: "ms",
            });
            m.push(Metric {
                name: format!("{role}_tail_ms"),
                value: percentile(v, tail),
                unit: "ms",
            });
        }
        m.push(Metric {
            name: "server_rss_mb".into(),
            value: rss_kib as f64 / 1024.0,
            unit: "MB",
        });
        let _ = writeln!(
            text,
            "# setup_s samples: {}",
            setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        m
    };
    for m in &metrics {
        let _ = writeln!(text, "#   {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    drop(replay);
    let _ = fs::remove_dir_all(&replay_dir);
    let result = RunResult {
        correct,
        attempted,
        failed,
        metrics,
        fingerprint,
        report: text,
    };
    fs::write(
        out.join(format!("result-{tag}.txt")),
        format!("{}{}\n", result.report, result.line()),
    )
    .map_err(|e| format!("result file: {e}"))?;
    Ok(result)
}

/// Write the socket samples as `sent_ms kind latency_ms verified warmup`
/// lines (`sent_ms` from the start of the warm-up).
fn write_samples(path: &Path, samples: &[e2e::Sample], ok: &[bool]) -> Result<(), String> {
    let mut body = String::new();
    for (s, &good) in samples.iter().zip(ok) {
        let _ = writeln!(
            body,
            "{:.3}\t{}\t{:.4}\t{}\t{}",
            s.sent.as_secs_f64() * 1e3,
            s.kind.name(),
            s.latency.as_secs_f64() * 1e3,
            u8::from(good),
            u8::from(s.warmup)
        );
    }
    fs::write(path, body).map_err(|e| format!("samples file: {e}"))
}

/// Write the traced spans as JSON lines: `{name, start, end, parent, op_id}`.
fn write_spans(path: &Path, spans: &[replay::Span]) -> Result<(), String> {
    let mut body = String::new();
    for s in spans {
        let line = Json::obj([
            ("name", Json::from(s.name)),
            ("start", Json::from(s.start_ns)),
            ("end", Json::from(s.end_ns)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("op_id", Json::from(s.op_id)),
        ]);
        body.push_str(&line.encode());
        body.push('\n');
    }
    fs::write(path, body).map_err(|e| format!("spans file: {e}"))
}
