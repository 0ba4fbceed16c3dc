//! The three workloads: seeded inputs and the fixed op script each client
//! replays.
//!
//! Everything here is a pure function of `(workload, seed, size)` (plus,
//! for `probe`, the chased seed sessions' relation sizes, which are
//! themselves a deterministic function of the seed). `spiderd` only ever
//! sees the rendered scenario text and the request bodies built here.

use std::sync::Arc;

use routes_gen::{pipeline_scenario, relational_scenario, sized_edit_campaign, Rng, TpchRows};
use routes_server::Json;
use routes_store::EditOp;

use crate::render;

/// Closed-loop keep-alive client connections per run.
pub const CLIENTS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Probe,
    Evolve,
    Pipeline,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Probe, Workload::Evolve, Workload::Pipeline];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Probe => "probe",
            Workload::Evolve => "evolve",
            Workload::Pipeline => "pipeline",
        }
    }

    /// The op behind `primary_*` and `secondary_*`, with the percentile
    /// reported as each one's tail. The percentiles are fixed per workload
    /// so that every run has at least ten samples beyond them.
    pub fn roles(self) -> [(Kind, f64); 2] {
        match self {
            Workload::Probe => [(Kind::OneRoute, 99.0), (Kind::AllRoutes, 90.0)],
            Workload::Evolve => [(Kind::Edit, 90.0), (Kind::Create, 90.0)],
            Workload::Pipeline => [(Kind::Create, 90.0), (Kind::Stitched, 99.0)],
        }
    }
}

/// One request kind of the REST surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Create,
    Edit,
    OneRoute,
    AllRoutes,
    Stitched,
    GetSession,
    Delete,
    Scrape,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Create => "create",
            Kind::Edit => "edit",
            Kind::OneRoute => "one_route",
            Kind::AllRoutes => "all_routes",
            Kind::Stitched => "stitched",
            Kind::GetSession => "session",
            Kind::Delete => "delete",
            Kind::Scrape => "scrape",
        }
    }

    /// Whether the op changes server state (and so appends a synced WAL
    /// record).
    pub fn mutates(self) -> bool {
        matches!(self, Kind::Create | Kind::Edit | Kind::Delete)
    }
}

/// Which session an op addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// No session (create, scrape).
    Service,
    /// The `k`-th session created at set-up.
    Seed(usize),
    /// The session this client created most recently.
    Current,
}

/// One scripted request.
#[derive(Clone, Debug)]
pub struct Step {
    pub kind: Kind,
    pub target: Target,
    /// JSON request body (empty for GET and DELETE).
    pub body: Arc<str>,
}

impl Step {
    pub fn new(kind: Kind, target: Target, body: String) -> Step {
        Step {
            kind,
            target,
            body: Arc::from(body),
        }
    }

    /// HTTP method and path, given the addressed session's id.
    pub fn request_line(&self, id: u64) -> (&'static str, String) {
        match self.kind {
            Kind::Create => ("POST", "/sessions".to_owned()),
            Kind::Edit => ("POST", format!("/sessions/{id}/edit")),
            Kind::OneRoute => ("POST", format!("/sessions/{id}/one-route")),
            Kind::AllRoutes => ("POST", format!("/sessions/{id}/all-routes")),
            Kind::Stitched => ("POST", format!("/sessions/{id}/stitched-route")),
            Kind::GetSession => ("GET", format!("/sessions/{id}")),
            Kind::Delete => ("DELETE", format!("/sessions/{id}")),
            Kind::Scrape => ("GET", "/metrics?format=prometheus".to_owned()),
        }
    }
}

/// Input sizes. `full` is what the benchmark measures; `tiny` is the
/// self-test's seconds-long version of the same shapes.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// TPC-H scale factor of the `probe` seed sessions.
    pub probe_sf: f64,
    /// Blocks of 24 ops per `probe` client script.
    pub probe_blocks: usize,
    /// `evolve` base instance: source nodes and out-degree.
    pub evolve_sources: usize,
    pub evolve_degree: usize,
    /// `/edit` batches per `evolve` lifecycle, and ops per batch.
    pub evolve_batches: usize,
    pub evolve_batch_ops: usize,
    /// Source rows of each `pipeline` scenario.
    pub pipeline_rows: usize,
    /// `stitched-route` probes per `pipeline` lifecycle.
    pub stitched_per_lifecycle: usize,
    /// Distinct session lifecycles per client script.
    pub evolve_lifecycles: usize,
    pub pipeline_lifecycles: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            probe_sf: 0.001,
            probe_blocks: 16,
            evolve_sources: 400,
            evolve_degree: 16,
            evolve_batches: 4,
            evolve_batch_ops: 2,
            pipeline_rows: 192,
            stitched_per_lifecycle: 6,
            evolve_lifecycles: 12,
            pipeline_lifecycles: 6,
        }
    }

    pub fn tiny() -> Size {
        Size {
            probe_sf: 0.0002,
            probe_blocks: 3,
            evolve_sources: 48,
            evolve_degree: 4,
            evolve_batches: 2,
            evolve_batch_ops: 3,
            pipeline_rows: 32,
            stitched_per_lifecycle: 3,
            evolve_lifecycles: 3,
            pipeline_lifecycles: 3,
        }
    }
}

/// Derive an independent sub-seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut rng = Rng::seed_from_u64(
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    rng.next_u64()
}

fn create_body(text: &str) -> String {
    Json::obj([("scenario", Json::from(text))]).encode()
}

fn selection_body(tuples: &[(String, u32)]) -> String {
    let items = tuples
        .iter()
        .map(|(rel, row)| {
            Json::obj([
                ("relation", Json::from(rel.as_str())),
                ("row", Json::from(*row)),
            ])
        })
        .collect();
    Json::obj([("tuples", Json::Array(items))]).encode()
}

fn edit_body(ops: &[EditOp]) -> String {
    let items = ops
        .iter()
        .map(|op| match op {
            EditOp::InsertTuple { line } => Json::obj([
                ("op", Json::from("insert_tuple")),
                ("line", Json::from(line.as_str())),
            ]),
            EditOp::DeleteTuple { relation, row } => Json::obj([
                ("op", Json::from("delete_tuple")),
                ("relation", Json::from(relation.as_str())),
                ("row", Json::from(*row)),
            ]),
            EditOp::AddTgd { line } => Json::obj([
                ("op", Json::from("add_tgd")),
                ("line", Json::from(line.as_str())),
            ]),
            EditOp::DropTgd { name } => Json::obj([
                ("op", Json::from("drop_tgd")),
                ("name", Json::from(name.as_str())),
            ]),
        })
        .collect();
    Json::obj([("ops", Json::Array(items))]).encode()
}

/// `probe`'s seed sessions: M1 and M2 of the paper's relational scenario
/// (Fig. 9), as create bodies. Each rendering is round-trip checked.
pub fn probe_seed_bodies(seed: u64, size: &Size) -> Result<Vec<String>, String> {
    let rows = TpchRows::scale(size.probe_sf);
    [1usize, 2]
        .iter()
        .map(|&joins| {
            let sc = relational_scenario(joins, &rows, mix(seed, 1, joins as u64));
            let text = render::relational_text(&sc);
            render::check_relational_round_trip(&sc, &text)?;
            Ok(create_body(&text))
        })
        .collect()
}

/// The chased size of one `probe` seed session: for each M/T group
/// `1..=6`, its target relations as `(name, rows)`.
pub type GroupSizes = Vec<Vec<(String, u32)>>;

/// The M/T group (1-based) of a relational target relation, from its
/// name's numeric suffix (`Lineitem3` is in group 3).
pub fn relational_group(name: &str) -> Option<usize> {
    let digits = name.trim_start_matches(|c: char| !c.is_ascii_digit());
    digits.parse().ok()
}

/// `n` distinct tuples drawn uniformly from the relations of one group.
fn draw_tuples(rng: &mut Rng, rels: &[(String, u32)], n: usize) -> Vec<(String, u32)> {
    let total: u64 = rels.iter().map(|(_, len)| u64::from(*len)).sum();
    let mut out: Vec<(String, u32)> = Vec::with_capacity(n);
    while out.len() < n.min(total as usize) {
        let mut k = rng.gen_range(0..total);
        for (name, len) in rels {
            if k < u64::from(*len) {
                let pick = (name.clone(), k as u32);
                if !out.contains(&pick) {
                    out.push(pick);
                }
                break;
            }
            k -= u64::from(*len);
        }
    }
    out
}

/// `probe`'s `all-routes` pool: this many distinct tuples of this
/// relation and M/T group of M1.
const FOREST_POOL: usize = 48;
const POOL_RELATION: &str = "Lineitem";
const POOL_GROUP: usize = 2;

/// One block of `probe` ops: 18 `one-route`, 3 `all-routes`, 2 session
/// reads and a Prometheus scrape.
const PROBE_BLOCK: [Kind; 24] = {
    use Kind::{AllRoutes as A, GetSession as G, OneRoute as O, Scrape as M};
    [
        O, O, O, A, O, O, O, G, O, O, O, A, O, O, O, G, O, O, O, A, O, O, O, M,
    ]
};

/// Largest selection `probe`'s `one-route` makes (Fig. 10a/b use 1–8).
const MAX_SELECTION: usize = 8;

/// `probe` client scripts: `one-route` on 1–8 tuples of one M/T group 1–6
/// (Fig. 10a/b), `all-routes` Zipf(1)-skewed over a fixed pool of
/// single-tuple selections (re-probes hit the forest memo), session reads,
/// and a Prometheus scrape once per block.
///
/// The mix is the same for every seed: each script is `probe_blocks`
/// copies of [`PROBE_BLOCK`]; the `one-route` slots cycle through every
/// (session, group, selection size) in a seed-shuffled order; the
/// `all-routes` slots take the pool ranks of a systematic Zipf sample. The
/// seed picks the tuples.
pub fn probe_scripts(seed: u64, size: &Size, sessions: &[GroupSizes]) -> Vec<Vec<Step>> {
    // The pool is distinct tuples of one relation and group, so its
    // forests cost alike and the all-routes percentiles do not hinge on
    // which pool entries the Zipf head lands on: M1's (session 0) Lineitem
    // at M/T group 2, small forests at sf 0.001 whose answers take a few
    // milliseconds and a few hundred kilobytes. Group 3 grows to about 600
    // nodes and 1.3 MB answers, which the two clients' cores spend most of
    // the run encoding and copying, so every other op's latency follows
    // the host's memory traffic; M2's deep forests reach tens of thousands
    // of nodes and seconds per build.
    let (name, len) = sessions[0][POOL_GROUP - 1]
        .iter()
        .find(|(name, _)| name.starts_with(POOL_RELATION))
        .expect("the relational target schema has Lineitem in every group");
    let mut pool_rng = Rng::seed_from_u64(mix(seed, 2, 0));
    let mut rows: Vec<u32> = Vec::with_capacity(FOREST_POOL);
    while rows.len() < FOREST_POOL.min(*len as usize) {
        let row = pool_rng.gen_range(0..*len);
        if !rows.contains(&row) {
            rows.push(row);
        }
    }
    let forest_pool: Vec<String> = rows
        .iter()
        .map(|&row| selection_body(&[(name.clone(), row)]))
        .collect();
    let count = |kind: Kind| size.probe_blocks * PROBE_BLOCK.iter().filter(|&&k| k == kind).count();
    // Systematic sample of Zipf(1) ranks: the i-th of n draws takes the
    // rank whose cumulative weight first exceeds (i + 1/2) / n.
    let weights: Vec<f64> = (1..=forest_pool.len()).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let draws = count(Kind::AllRoutes);
    let ranks: Vec<usize> = (0..draws)
        .map(|i| {
            let mut u = (i as f64 + 0.5) / draws as f64 * total;
            let mut k = 0;
            while k + 1 < weights.len() && u >= weights[k] {
                u -= weights[k];
                k += 1;
            }
            k
        })
        .collect();
    let combos: Vec<(usize, usize, usize)> = (0..sessions.len())
        .flat_map(|s| {
            (1..=sessions[s].len()).flat_map(move |g| (1..=MAX_SELECTION).map(move |n| (s, g, n)))
        })
        .collect();
    (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::seed_from_u64(mix(seed, 3, c as u64));
            let mut routes: Vec<(usize, usize, usize)> = Vec::new();
            while routes.len() < count(Kind::OneRoute) {
                let mut round = combos.clone();
                rng.shuffle(&mut round);
                routes.extend(round);
            }
            let mut forests = ranks.clone();
            rng.shuffle(&mut forests);
            let (mut routes, mut forests) = (routes.into_iter(), forests.into_iter());
            let mut reads = 0;
            (0..size.probe_blocks)
                .flat_map(|_| PROBE_BLOCK)
                .map(|kind| match kind {
                    Kind::OneRoute => {
                        let (s, g, n) = routes.next().expect("enough combos were drawn");
                        let tuples = draw_tuples(&mut rng, &sessions[s][g - 1], n);
                        Step::new(Kind::OneRoute, Target::Seed(s), selection_body(&tuples))
                    }
                    Kind::AllRoutes => {
                        let k = forests.next().expect("one rank per slot");
                        Step::new(Kind::AllRoutes, Target::Seed(0), forest_pool[k].clone())
                    }
                    Kind::GetSession => {
                        reads += 1;
                        Step::new(
                            Kind::GetSession,
                            Target::Seed(reads % sessions.len()),
                            String::new(),
                        )
                    }
                    _ => Step::new(Kind::Scrape, Target::Service, String::new()),
                })
                .collect()
        })
        .collect()
}

/// The dependencies `evolve` adds, one per lifecycle in turn (the edit
/// generator's own templates). Their chase costs differ by up to 4x, so the
/// benchmark fixes how often each is added instead of leaving it to the
/// seed.
const ADDED_TGDS: [&str; 4] = [
    "S(x, y) -> T(y, x)",
    "R(x, y) -> T(x, y)",
    "M(x) -> W(x)",
    "S(x, y) & M(x) -> V(y)",
];

/// `evolve` client scripts: session lifecycles over seeded edit campaigns
/// (a triangle self-join, an existential and a target tgd). Each lifecycle
/// creates, warms the forest of a pinned selection, applies its batches via
/// `/edit` and re-probes the selection with `one-route` and `all-routes`
/// after each, then deletes.
///
/// The batches take the campaign's data ops (inserts and deletes, still
/// valid in order: dependency ops never move source rows), and the last
/// batch ends with adding one of [`ADDED_TGDS`], so every batch but the
/// last can keep cached forests and the last invalidates them. The base
/// instance depends only on the size; the seed picks the data ops and the
/// pinned rows.
pub fn evolve_scripts(seed: u64, size: &Size) -> Vec<Vec<Step>> {
    let batch_ops = size.evolve_batch_ops;
    let data_ops = size.evolve_batches * batch_ops - 1;
    (0..CLIENTS)
        .map(|c| {
            let mut steps = Vec::new();
            for l in 0..size.evolve_lifecycles {
                let life_seed = mix(seed, 4 + c as u64, l as u64);
                // A quarter of a campaign's ops are dependency ops; draw
                // enough that the data ops always suffice.
                let campaign = sized_edit_campaign(
                    life_seed,
                    size.evolve_sources,
                    size.evolve_degree,
                    1,
                    4 * data_ops,
                );
                let mut data = campaign.batches.into_iter().flatten().filter(|op| {
                    matches!(op, EditOp::InsertTuple { .. } | EditOp::DeleteTuple { .. })
                });
                let mut ops: Vec<EditOp> = data.by_ref().take(data_ops).collect();
                assert_eq!(ops.len(), data_ops, "campaign has too few data ops");
                ops.push(EditOp::AddTgd {
                    line: format!("b{l}: {}", ADDED_TGDS[l % ADDED_TGDS.len()]),
                });
                steps.push(Step::new(
                    Kind::Create,
                    Target::Service,
                    create_body(&campaign.scenario),
                ));
                // Low rows of T and V exist in every base instance and
                // survive a campaign's few deletions.
                let mut rng = Rng::seed_from_u64(life_seed);
                let pinned = selection_body(&[
                    ("T".to_owned(), rng.gen_range(0..8u32)),
                    ("V".to_owned(), rng.gen_range(0..8u32)),
                ]);
                // Warm the pinned forest, so the first edit already decides
                // whether a cached forest survives.
                steps.push(Step::new(Kind::AllRoutes, Target::Current, pinned.clone()));
                for batch in ops.chunks(batch_ops) {
                    steps.push(Step::new(Kind::Edit, Target::Current, edit_body(batch)));
                    steps.push(Step::new(Kind::OneRoute, Target::Current, pinned.clone()));
                    steps.push(Step::new(Kind::AllRoutes, Target::Current, pinned.clone()));
                }
                steps.push(Step::new(Kind::Delete, Target::Current, String::new()));
            }
            steps
        })
        .collect()
}

/// `pipeline` client scripts: lifecycles over `core: on` chains of 2–4
/// hops with redundancy, each probed with `stitched-route` on final-hop
/// tuples, then deleted.
pub fn pipeline_scripts(seed: u64, size: &Size) -> Result<Vec<Vec<Step>>, String> {
    (0..CLIENTS)
        .map(|c| {
            let mut steps = Vec::new();
            for l in 0..size.pipeline_lifecycles {
                let life_seed = mix(seed, 8 + c as u64, l as u64);
                let mut rng = Rng::seed_from_u64(life_seed);
                // The hop count cycles 2, 3, 4 over lifecycles, so the mix of
                // create costs is the same for every seed. The source rows
                // shrink as the hops grow (hops x rows is the same for every
                // chain), so creates cost about alike: equal rows would give
                // one latency hump per hop count, with the median in the gap
                // between two humps, where it jumps with host load.
                let hops = 2 + l % 3;
                let rows = size.pipeline_rows * 3 / hops;
                let sc = pipeline_scenario(hops, rows, life_seed, true, true);
                let text = render::pipeline_text(&sc);
                render::check_pipeline_round_trip(&sc, &text)?;
                steps.push(Step::new(Kind::Create, Target::Service, create_body(&text)));
                // Final-hop rows well below the cored instance's size: the
                // copies of the (nearly all distinct) source pairs survive.
                let a_rows = (rows / 3) as u32;
                let b_rows = (rows / 6) as u32;
                for _ in 0..size.stitched_per_lifecycle {
                    let mut tuples = vec![(format!("A{hops}"), rng.gen_range(0..a_rows))];
                    if rng.gen_bool(0.5) {
                        tuples.push((format!("B{hops}"), rng.gen_range(0..b_rows)));
                    }
                    steps.push(Step::new(
                        Kind::Stitched,
                        Target::Current,
                        selection_body(&tuples),
                    ));
                }
                steps.push(Step::new(Kind::Delete, Target::Current, String::new()));
            }
            Ok(steps)
        })
        .collect()
}

/// FNV-1a over every body the run sends: equal fingerprints mean equal
/// inputs.
pub fn fingerprint(seed_bodies: &[String], scripts: &[Vec<Step>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for body in seed_bodies {
        eat(body.as_bytes());
    }
    for script in scripts {
        for step in script {
            eat(step.kind.name().as_bytes());
            eat(step.body.as_bytes());
        }
    }
    h
}
