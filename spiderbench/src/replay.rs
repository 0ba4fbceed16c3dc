//! The traced in-process replay.
//!
//! Single-threaded: one op at a time, each client's script in turn, on one
//! driving thread (the chase and forest worker pool is sized like
//! `spiderd`'s default). Each op calls the public functions of the
//! workspace crates in the order `spiderd`'s router does, and every call is
//! wrapped in a span named `<layer>.<what>` whose parent is the op's root
//! span. The spans come from this file only; no program crate is
//! instrumented. The same replay produces the expected answer of every op,
//! against which the socket answers are checked.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use routes_chase::{ChaseOptions, ChaseStats};
use routes_cli::{
    is_pipeline_scenario, load_pipeline_str, load_scenario_str, prepare_pipeline,
    prepare_scenario_with, PreparedScenario,
};
use routes_core::{compute_one_route, ForestView, RouteView, StepView, TupleRef};
use routes_model::{joinstats, TupleId};
use routes_pipeline::{stitch_route, StitchError};
use routes_pool::Pool;
use routes_server::http::Request;
use routes_server::json::{self, Json};
use routes_server::{App, Persistence, Removal, Session, SessionOrigin, SessionStore};
use routes_store::{ChaseMode, Durability, EditOp, Record};

use crate::answer::Answer;
use crate::workload::{relational_group, GroupSizes, Kind, Step, Target, CLIENTS};

/// `spiderd`'s default session capacity.
const MAX_SESSIONS: usize = 32;

/// One timed interval. Root spans (`parent == None`) are ops and carry the
/// op kind as their name; children are `<layer>.<what>`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer prefix of a child span (`core` for `core.view`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans held in memory until the run writes them out.
pub struct Tracer {
    base: Instant,
    pub spans: Vec<Span>,
    open: Option<usize>,
    next_op: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            open: None,
            next_op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn begin_op(&mut self, name: &'static str) {
        self.open = Some(self.spans.len());
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op_id: self.next_op,
        });
    }

    fn end_op(&mut self) {
        let open = self.open.take().expect("an op is open");
        self.spans[open].end_ns = self.now();
        self.next_op += 1;
    }

    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open,
            op_id: self.next_op,
        });
    }

    /// Run `f` inside a child span of the open op.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end);
        out
    }
}

/// Counts taken at the same call boundaries as the spans.
#[derive(Default, Debug)]
pub struct Counts {
    pub responses: u64,
    pub response_bytes: u64,
    pub mutations: u64,
    pub mutation_body_bytes: u64,
    pub chases: u64,
    pub chase_rounds: u64,
    pub chase_matches: u64,
    pub chase_fired: u64,
    pub chase_rows_probed: u64,
    pub index_probes: u64,
    pub hash_build_rows: u64,
    pub routes: u64,
    pub route_steps: u64,
    pub forest_lookups: u64,
    pub forest_hits: u64,
    pub forests_built: u64,
    pub forest_nodes: u64,
    pub stage_chase_us: u64,
    pub stage_core_us: u64,
    pub core_tuples_before: u64,
    pub core_tuples_after: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub forests_kept: u64,
    pub forests_invalidated: u64,
    /// Σ `apply_batch` and Σ load + `prepare_scenario_with` of the
    /// post-edit text, over the edits whose re-chase was timed.
    pub apply_ns: u64,
    pub rechase_ns: u64,
}

pub struct Replay {
    app: App,
    pub trace: Tracer,
    pub counts: Counts,
    /// Also time a from-scratch re-chase of every post-edit text (outside
    /// the op spans).
    rechase: bool,
    current: [Option<u64>; CLIENTS],
    /// WAL totals when the replay started.
    wal_base: (u64, u64),
}

fn wal(app: &App) -> &Persistence {
    app.persistence().expect("the replay always has a WAL")
}

fn tuple_ref_json(t: &TupleRef) -> Json {
    Json::obj([
        ("relation", Json::from(t.relation.as_str())),
        ("row", Json::from(t.row)),
        ("text", Json::from(t.text.as_str())),
    ])
}

fn step_json(step: &StepView) -> Json {
    Json::obj([
        ("tgd", Json::from(step.tgd.as_str())),
        (
            "hom",
            Json::Object(
                step.hom
                    .iter()
                    .map(|(var, value)| (var.clone(), Json::from(value.as_str())))
                    .collect(),
            ),
        ),
        (
            "lhs",
            Json::Array(
                step.lhs
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("source", Json::from(f.source)),
                            ("tuple", tuple_ref_json(&f.tuple)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rhs",
            Json::Array(step.rhs.iter().map(tuple_ref_json).collect()),
        ),
    ])
}

fn chase_stats_json(stats: &ChaseStats) -> Json {
    Json::obj([
        ("rounds", Json::from(stats.rounds)),
        ("tuples_created", Json::from(stats.tuples_created)),
        ("egd_rewrites", Json::from(stats.egd_rewrites)),
        ("egd_merges", Json::from(stats.egd_merges)),
        ("target_tuples", Json::from(stats.target_tuples)),
    ])
}

/// Resolve a selection body against a session, as the router does.
fn selection(session: &Session, doc: &Json) -> Result<Vec<TupleId>, String> {
    let items = doc
        .get("tuples")
        .and_then(Json::as_array)
        .ok_or("body lacks `tuples`")?;
    let target = session.scenario.mapping.target();
    items
        .iter()
        .map(|item| {
            let name = item.get("relation").and_then(Json::as_str).unwrap_or("");
            let rel = target
                .rel_id(name)
                .ok_or_else(|| format!("no target relation `{name}`"))?;
            let row = item.get("row").and_then(Json::as_u64).unwrap_or(u64::MAX);
            if row >= u64::from(session.scenario.target.rel_len(rel)) {
                return Err(format!("relation `{name}` has no row {row}"));
            }
            Ok(TupleId {
                rel,
                row: row as u32,
            })
        })
        .collect()
}

fn edit_ops(doc: &Json) -> Result<Vec<EditOp>, String> {
    let items = doc
        .get("ops")
        .and_then(Json::as_array)
        .ok_or("body lacks `ops`")?;
    items
        .iter()
        .map(|item| {
            let text = |field: &str| {
                item.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("edit op lacks `{field}`"))
            };
            Ok(match item.get("op").and_then(Json::as_str) {
                Some("insert_tuple") => EditOp::InsertTuple {
                    line: text("line")?,
                },
                Some("add_tgd") => EditOp::AddTgd {
                    line: text("line")?,
                },
                Some("drop_tgd") => EditOp::DropTgd {
                    name: text("name")?,
                },
                Some("delete_tuple") => EditOp::DeleteTuple {
                    relation: text("relation")?,
                    row: item.get("row").and_then(Json::as_u64).ok_or("row")? as u32,
                },
                other => return Err(format!("unknown edit op {other:?}")),
            })
        })
        .collect()
}

impl Replay {
    /// An in-process service state (`App`) with a WAL in `data_dir`.
    pub fn new(data_dir: &Path, rechase: bool) -> Result<Replay, String> {
        let _ = std::fs::remove_dir_all(data_dir);
        let pool = Pool::from_env();
        let store = SessionStore::new(MAX_SESSIONS);
        let (persist, _) =
            Persistence::open(data_dir, &store, &pool).map_err(|e| format!("replay WAL: {e}"))?;
        let app = App::with_persistence(store, pool, Some(persist));
        let mut replay = Replay {
            app,
            trace: Tracer::new(),
            counts: Counts::default(),
            rechase,
            current: [None; CLIENTS],
            wal_base: (0, 0),
        };
        replay.wal_base = replay.wal_totals();
        Ok(replay)
    }

    /// Cumulative (WAL bytes, fsync batches) since the replay started.
    pub fn wal_totals(&self) -> (u64, u64) {
        let m = &wal(&self.app).metrics;
        (
            m.wal_bytes.load(std::sync::atomic::Ordering::Relaxed) - self.wal_base.0,
            m.fsync_batches.load(std::sync::atomic::Ordering::Relaxed) - self.wal_base.1,
        )
    }

    /// The session `client`'s latest create answered with.
    pub fn created(&self, client: usize) -> Option<u64> {
        self.current[client]
    }

    /// The chased relation sizes of a `probe` seed session, grouped by M/T
    /// group.
    pub fn group_sizes(&self, id: u64) -> GroupSizes {
        let session = self
            .app
            .store
            .peek(id)
            .session()
            .expect("seed session is live");
        let mut groups: GroupSizes = Vec::new();
        let sc = &session.scenario;
        for (rel, r) in sc.mapping.target().iter() {
            let g = relational_group(r.name()).expect("relational targets carry a group");
            if groups.len() < g {
                groups.resize(g, Vec::new());
            }
            groups[g - 1].push((r.name().to_owned(), sc.target.rel_len(rel)));
        }
        groups
    }

    /// Replay one scripted op of `client` (`seed_ids` maps `Target::Seed`).
    pub fn run(&mut self, client: usize, step: &Step, seed_ids: &[u64]) -> Result<Answer, String> {
        let id = match step.target {
            Target::Service => 0,
            Target::Seed(k) => seed_ids[k],
            Target::Current => self.current[client].unwrap_or(0),
        };
        let joins = joinstats::snapshot();
        self.trace.begin_op(step.kind.name());
        let mut post_edit_text = None;
        let out = match step.kind {
            Kind::Create => self.create(&step.body),
            Kind::Edit => self.edit(id, &step.body, &mut post_edit_text),
            Kind::OneRoute => self.one_route(id, &step.body),
            Kind::AllRoutes => self.all_routes(id, &step.body),
            Kind::Stitched => self.stitched(id, &step.body),
            Kind::GetSession => self.get_session(id),
            Kind::Delete => self.delete(id),
            Kind::Scrape => self.scrape(),
        };
        self.trace.end_op();
        let after = joinstats::snapshot();
        self.counts.index_probes += after.index_probes - joins.index_probes;
        self.counts.hash_build_rows += after.hash_build_rows - joins.hash_build_rows;
        if step.kind.mutates() {
            self.counts.mutations += 1;
            self.counts.mutation_body_bytes += step.body.len() as u64;
        }
        let out = out.map(|(answer, created)| {
            if step.kind == Kind::Create {
                self.current[client.min(CLIENTS - 1)] = created;
            }
            answer
        });
        if let (Some(text), true, Ok(_)) = (post_edit_text, self.rechase, &out) {
            let apply = self
                .trace
                .spans
                .iter()
                .rev()
                .find(|s| s.name == "incr.apply");
            let apply_ns = apply.map_or(0, Span::dur_ns);
            let start = Instant::now();
            let loaded = load_scenario_str(&text).map_err(|e| e.to_string())?;
            prepare_scenario_with(loaded, ChaseOptions::fresh(), &self.app.pool)
                .map_err(|e| e.to_string())?;
            self.counts.rechase_ns += start.elapsed().as_nanos() as u64;
            self.counts.apply_ns += apply_ns;
        }
        out
    }

    fn parse(&mut self, body: &str) -> Result<Json, String> {
        self.trace
            .time("server.json_parse", || json::parse(body))
            .map_err(|e| e.to_string())
    }

    /// Build the response document and encode it, as the router does.
    fn respond(&mut self, doc: impl FnOnce() -> Json) {
        let bytes = self
            .trace
            .time("server.json_encode", || doc().encode())
            .len();
        self.counts.responses += 1;
        self.counts.response_bytes += bytes as u64;
    }

    /// `with_session`: the store lookup plus the buffered touch record.
    fn session(&mut self, id: u64) -> Result<Arc<Session>, String> {
        let found = self.trace.time("server.store", || self.app.store.get(id));
        let session = found
            .session()
            .ok_or_else(|| format!("no live session {id}"))?;
        self.trace
            .time("store.wal_buffered", || {
                wal(&self.app).append(&Record::Touch { id }, Durability::Buffered)
            })
            .map_err(|e| e.to_string())?;
        Ok(session)
    }

    fn log_synced(&mut self, record: Record) -> Result<(), String> {
        self.trace
            .time("store.wal_append", || {
                wal(&self.app).append(&record, Durability::Synced)
            })
            .map_err(|e| format!("WAL append: {e}"))
    }

    fn count_chase(&mut self, stats: Option<&ChaseStats>, rows_probed: u64) {
        if let Some(stats) = stats {
            self.counts.chases += 1;
            self.counts.chase_rounds += stats.rounds as u64;
            self.counts.chase_matches += stats.per_tgd.iter().map(|t| t.matches).sum::<u64>();
            self.counts.chase_fired += stats.per_tgd.iter().map(|t| t.fired).sum::<u64>();
            self.counts.chase_rows_probed += rows_probed;
        }
    }

    fn create(&mut self, body: &str) -> Result<(Answer, Option<u64>), String> {
        let doc = self.parse(body)?;
        let text = doc
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("body lacks `scenario`")?;
        if is_pipeline_scenario(text) {
            return self.create_pipeline(text);
        }
        let loaded = self
            .trace
            .time("cli.load", || load_scenario_str(text))
            .map_err(|e| e.to_string())?;
        let before = joinstats::snapshot().rows_probed;
        let prepared = self
            .trace
            .time("chase.prepare", || {
                prepare_scenario_with(loaded, ChaseOptions::fresh(), &self.app.pool)
            })
            .map_err(|e| e.to_string())?;
        let probed = joinstats::snapshot().rows_probed - before;
        self.count_chase(prepared.chase_stats.as_ref(), probed);
        let stats = prepared.chase_stats.clone();
        let (source_tuples, target_tuples) = (
            prepared.source.total_tuples(),
            prepared.target.total_tuples(),
        );
        let weakly_acyclic = prepared.weakly_acyclic;
        let origin = SessionOrigin {
            chase: ChaseMode::Fresh,
            text: Arc::from(text),
        };
        let (id, evicted) = self.trace.time("server.store", || {
            self.app
                .store
                .insert_with_origin(prepared, origin, &self.app.pool)
        });
        if !evicted.is_empty() {
            return Err("a create evicted a live session".into());
        }
        self.log_synced(Record::Create {
            id,
            chase: ChaseMode::Fresh,
            scenario: text.to_owned(),
        })?;
        self.respond(|| {
            Json::obj([
                ("session", Json::from(id)),
                ("source_tuples", Json::from(source_tuples)),
                ("target_tuples", Json::from(target_tuples)),
                ("weakly_acyclic", Json::from(weakly_acyclic)),
                ("chase", stats.map_or(Json::Null, |s| chase_stats_json(&s))),
                ("evicted", Json::Array(Vec::new())),
            ])
        });
        Ok((
            Answer::Created {
                target_tuples: target_tuples as u64,
            },
            Some(id),
        ))
    }

    fn create_pipeline(&mut self, text: &str) -> Result<(Answer, Option<u64>), String> {
        let loaded = self
            .trace
            .time("cli.load", || load_pipeline_str(text))
            .map_err(|e| e.to_string())?;
        let (scenario, pipeline) = self
            .trace
            .time("pipeline.prepare", || {
                prepare_pipeline(loaded, ChaseOptions::fresh(), &self.app.pool)
            })
            .map_err(|e| e.to_string())?;
        for stage in &pipeline.stages {
            self.counts.stage_chase_us += stage.chase_us;
            self.counts.stage_core_us += stage.core_us;
        }
        let (before, after) = pipeline.core_shrink();
        self.counts.core_tuples_before += before as u64;
        self.counts.core_tuples_after += after as u64;
        let hops = pipeline.hops();
        let stages: Vec<Json> = pipeline
            .stages
            .iter()
            .map(|s| Json::from(s.name.as_str()))
            .collect();
        let stats = scenario.chase_stats.clone();
        let (source_tuples, target_tuples) = (
            scenario.source.total_tuples(),
            scenario.target.total_tuples(),
        );
        let weakly_acyclic = pipeline.weakly_acyclic;
        let core_mode = pipeline.pipeline.core_mode();
        let origin = SessionOrigin {
            chase: ChaseMode::Fresh,
            text: Arc::from(text),
        };
        let (id, evicted) = self.trace.time("server.store", || {
            self.app.store.insert_prepared(
                scenario,
                Some(Arc::new(pipeline)),
                origin,
                &self.app.pool,
            )
        });
        if !evicted.is_empty() {
            return Err("a create evicted a live session".into());
        }
        self.log_synced(Record::Create {
            id,
            chase: ChaseMode::Fresh,
            scenario: text.to_owned(),
        })?;
        self.respond(|| {
            Json::obj([
                ("session", Json::from(id)),
                ("source_tuples", Json::from(source_tuples)),
                ("target_tuples", Json::from(target_tuples)),
                ("weakly_acyclic", Json::from(weakly_acyclic)),
                ("chase", stats.map_or(Json::Null, |s| chase_stats_json(&s))),
                (
                    "pipeline",
                    Json::obj([
                        ("hops", Json::from(hops)),
                        ("stages", Json::Array(stages)),
                        ("core", Json::from(core_mode)),
                        ("core_tuples_before", Json::from(before)),
                        ("core_tuples_after", Json::from(after)),
                    ]),
                ),
                ("evicted", Json::Array(Vec::new())),
            ])
        });
        Ok((
            Answer::Created {
                target_tuples: target_tuples as u64,
            },
            Some(id),
        ))
    }

    fn one_route(&mut self, id: u64, body: &str) -> Result<(Answer, Option<u64>), String> {
        let doc = self.parse(body)?;
        let session = self.session(id)?;
        let selected = selection(&session, &doc)?;
        let env = session.env();
        let computed = self
            .trace
            .time("core.one_route", || compute_one_route(env, &selected));
        let Ok(route) = computed else {
            self.respond(|| Json::obj([("found", Json::Bool(false))]));
            return Ok((
                Answer::Route {
                    found: false,
                    validated: false,
                    steps: 0,
                },
                None,
            ));
        };
        let produced = self
            .trace
            .time("core.validate", || route.validate(&env, &selected))
            .map_err(|e| format!("route failed replay: {e}"))?;
        let view = self.trace.time("core.view", || {
            RouteView::build(&session.scenario.pool, &env, &route)
        });
        self.counts.routes += 1;
        self.counts.route_steps += view.steps.len() as u64;
        let steps = view.steps.len() as u64;
        self.respond(|| {
            Json::obj([
                ("found", Json::Bool(true)),
                ("validated", Json::Bool(true)),
                ("produced_tuples", Json::from(produced.len())),
                (
                    "steps",
                    Json::Array(view.steps.iter().map(step_json).collect()),
                ),
            ])
        });
        Ok((
            Answer::Route {
                found: true,
                validated: true,
                steps,
            },
            None,
        ))
    }

    fn all_routes(&mut self, id: u64, body: &str) -> Result<(Answer, Option<u64>), String> {
        let doc = self.parse(body)?;
        let session = self.session(id)?;
        let selected = selection(&session, &doc)?;
        let start = self.trace.now();
        let (forest, cached, _) = session.forest_for(&selected, &self.app.pool);
        let end = self.trace.now();
        self.counts.forest_lookups += 1;
        if cached {
            self.trace.record("server.forest_memo", start, end);
            self.counts.forest_hits += 1;
        } else {
            self.trace.record("core.forest", start, end);
            self.counts.forests_built += 1;
            self.counts.forest_nodes += forest.num_nodes() as u64;
            let mut key: Vec<(u32, u32)> = selected.iter().map(|t| (t.rel.0, t.row)).collect();
            key.sort_unstable();
            key.dedup();
            self.trace
                .time("store.wal_buffered", || {
                    wal(&self.app)
                        .append(&Record::Forest { id, selection: key }, Durability::Buffered)
                })
                .map_err(|e| e.to_string())?;
        }
        let env = session.env();
        let view = self.trace.time("core.view", || {
            ForestView::build(&session.scenario.pool, &env, &forest)
        });
        let answer = Answer::Forest {
            nodes: view.nodes.len() as u64,
            branches: view.num_branches as u64,
        };
        self.respond(|| {
            Json::obj([
                ("cached", Json::Bool(cached)),
                ("num_nodes", Json::from(view.nodes.len())),
                ("num_branches", Json::from(view.num_branches)),
                ("all_roots_provable", Json::from(view.all_roots_provable)),
                (
                    "roots",
                    Json::Array(view.roots.iter().map(tuple_ref_json).collect()),
                ),
                (
                    "nodes",
                    Json::Array(
                        view.nodes
                            .iter()
                            .map(|n| {
                                Json::obj([
                                    ("tuple", tuple_ref_json(&n.tuple)),
                                    (
                                        "branches",
                                        Json::Array(n.branches.iter().map(step_json).collect()),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        });
        Ok((answer, None))
    }

    fn stitched(&mut self, id: u64, body: &str) -> Result<(Answer, Option<u64>), String> {
        let doc = self.parse(body)?;
        let session = self.session(id)?;
        let pipeline = session.pipeline().ok_or("session is not a pipeline")?;
        let selected = selection(&session, &doc)?;
        let stitched = match self
            .trace
            .time("pipeline.stitch", || stitch_route(pipeline, &selected))
        {
            Ok(s) => s,
            Err(StitchError::NoRoute { .. }) => {
                self.respond(|| Json::obj([("found", Json::Bool(false))]));
                return Ok((
                    Answer::Stitched {
                        found: false,
                        validated: false,
                        hops: 0,
                        total_steps: 0,
                    },
                    None,
                ));
            }
            Err(StitchError::EmptySelection) => return Err("empty selection".into()),
        };
        self.trace
            .time("pipeline.stitch_validate", || stitched.validate(pipeline))
            .map_err(|e| format!("stitched route failed replay: {e}"))?;
        let views: Vec<RouteView> = self.trace.time("core.view", || {
            stitched
                .stages
                .iter()
                .map(|stage| {
                    RouteView::build(
                        &pipeline.pool,
                        &pipeline.stage_env(stage.stage),
                        &stage.route,
                    )
                })
                .collect()
        });
        let (hops, total_steps) = (stitched.stages.len() as u64, stitched.total_steps() as u64);
        self.respond(|| {
            let stages: Vec<Json> = stitched
                .stages
                .iter()
                .zip(&views)
                .map(|(stage, view)| {
                    Json::obj([
                        ("stage", Json::from(stage.stage)),
                        ("name", Json::from(stage.name.as_str())),
                        ("selection", Json::from(stage.selection.len())),
                        (
                            "steps",
                            Json::Array(view.steps.iter().map(step_json).collect()),
                        ),
                    ])
                })
                .collect();
            Json::obj([
                ("found", Json::Bool(true)),
                ("validated", Json::Bool(true)),
                ("hops", Json::from(hops)),
                ("total_steps", Json::from(total_steps)),
                ("stages", Json::Array(stages)),
            ])
        });
        Ok((
            Answer::Stitched {
                found: true,
                validated: true,
                hops,
                total_steps,
            },
            None,
        ))
    }

    fn get_session(&mut self, id: u64) -> Result<(Answer, Option<u64>), String> {
        let session = self.session(id)?;
        let sc = &session.scenario;
        let counts = |schema: &routes_model::Schema, inst: &routes_model::Instance| {
            Json::Object(
                schema
                    .iter()
                    .map(|(rel, r)| (r.name().to_owned(), Json::from(inst.rel_len(rel))))
                    .collect(),
            )
        };
        let target_tuples = sc.target.total_tuples() as u64;
        self.respond(|| {
            Json::obj([
                ("session", Json::from(session.id)),
                ("source", counts(sc.mapping.source(), &sc.source)),
                ("target", counts(sc.mapping.target(), &sc.target)),
                ("weakly_acyclic", Json::from(sc.weakly_acyclic)),
                (
                    "chase",
                    session
                        .chase_stats()
                        .map_or(Json::Null, |s| chase_stats_json(&s)),
                ),
                ("egd_merges", Json::from(sc.egd_log.len())),
                ("cached_forests", Json::from(session.cached_forests())),
            ])
        });
        Ok((Answer::Session { target_tuples }, None))
    }

    fn delete(&mut self, id: u64) -> Result<(Answer, Option<u64>), String> {
        match self
            .trace
            .time("server.store", || self.app.store.remove(id))
        {
            Removal::Removed => {}
            _ => return Err(format!("no live session {id}")),
        }
        self.log_synced(Record::Delete { id })?;
        self.respond(|| Json::obj([("deleted", Json::Bool(true))]));
        Ok((Answer::Deleted, None))
    }

    fn edit(
        &mut self,
        id: u64,
        body: &str,
        post_edit_text: &mut Option<String>,
    ) -> Result<(Answer, Option<u64>), String> {
        let doc = self.parse(body)?;
        let ops = edit_ops(&doc)?;
        self.session(id)?;
        let session = self
            .trace
            .time("server.store", || self.app.store.peek(id))
            .session()
            .ok_or_else(|| format!("no live session {id}"))?;
        let origin = session
            .origin()
            .ok_or("session has no scenario text")?
            .clone();
        let apply = self
            .trace
            .time("incr.apply", || {
                routes_incr::apply_batch(
                    &origin.text,
                    &session.scenario,
                    session.incr_state(),
                    &ops,
                    ChaseOptions::fresh(),
                    &self.app.pool,
                )
            })
            .map_err(|e| format!("edit rejected: {e}"))?;
        self.counts.memo_hits += apply.memo_hits as u64;
        self.counts.memo_misses += apply.memo_misses as u64;
        let entries = self
            .trace
            .time("server.session", || session.forest_entries());
        let keep: HashSet<Vec<TupleId>> = self.trace.time("incr.survive", || {
            routes_incr::surviving_selections(
                entries.iter().map(|(key, forest)| (key, forest.as_ref())),
                &apply,
                &session.scenario.pool,
            )
            .into_iter()
            .collect()
        });
        let invalidated = entries.len() - keep.len();
        let survivors: HashMap<_, _> = entries
            .into_iter()
            .filter(|(key, _)| keep.contains(key))
            .collect();
        self.counts.forests_kept += survivors.len() as u64;
        self.counts.forests_invalidated += invalidated as u64;
        let (kept, new_seq) = (survivors.len(), session.edit_seq() + 1);
        let text = apply.text.clone();
        let new_origin = SessionOrigin {
            chase: origin.chase,
            text: Arc::from(apply.text.as_str()),
        };
        let prepared: &PreparedScenario = &apply.scenario;
        let stats = prepared.chase_stats.clone();
        let (source_tuples, target_tuples) = (
            prepared.source.total_tuples(),
            prepared.target.total_tuples(),
        );
        let (memo_hits, memo_misses) = (apply.memo_hits, apply.memo_misses);
        let (mapping_changed, inserted, deleted) = (
            apply.mapping_changed,
            apply.source_inserted,
            apply.source_deleted,
        );
        let replacement = self.trace.time("server.session", || {
            Arc::new(session.edited(apply.scenario, new_origin, new_seq, apply.state, survivors))
        });
        if !self
            .trace
            .time("server.store", || self.app.store.replace(id, replacement))
        {
            return Err(format!("no live session {id}"));
        }
        self.log_synced(Record::Edit {
            id,
            seq: new_seq,
            ops: ops.clone(),
        })?;
        self.respond(|| {
            Json::obj([
                ("session", Json::from(id)),
                ("edit_seq", Json::from(new_seq)),
                ("ops_applied", Json::from(ops.len())),
                ("memo_hits", Json::from(memo_hits)),
                ("memo_misses", Json::from(memo_misses)),
                ("mapping_changed", Json::from(mapping_changed)),
                ("source_inserted", Json::from(inserted)),
                ("source_deleted", Json::from(deleted)),
                ("source_tuples", Json::from(source_tuples)),
                ("target_tuples", Json::from(target_tuples)),
                ("forests_kept", Json::from(kept)),
                ("forests_invalidated", Json::from(invalidated)),
                ("chase", stats.map_or(Json::Null, |s| chase_stats_json(&s))),
            ])
        });
        *post_edit_text = Some(text);
        Ok((
            Answer::Edited {
                target_tuples: target_tuples as u64,
            },
            None,
        ))
    }

    fn scrape(&mut self) -> Result<(Answer, Option<u64>), String> {
        let req = Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: "format=prometheus".into(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        };
        let resp = self.trace.time("server.scrape", || self.app.handle(&req));
        self.counts.responses += 1;
        self.counts.response_bytes += resp.body.len() as u64;
        if resp.status == 200 && resp.body.starts_with(b"# HELP") {
            Ok((Answer::Scraped, None))
        } else {
            Err(format!("in-process scrape answered {}", resp.status))
        }
    }
}
