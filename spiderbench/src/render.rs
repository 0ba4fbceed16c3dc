//! Loader-text renderers for the generated inputs.
//!
//! `spiderd` receives only scenario *text*, so every generated scenario is
//! rendered to the `routes-cli` loader syntax: string constants are quoted,
//! labeled nulls stay bare identifiers, and pipelines use the `stage
//! <name>:` syntax with a `pipeline:` options section for core mode. The
//! round-trip checks load the rendered text back and compare it with the
//! generator's own structures, so a renderer bug cannot silently change the
//! workload.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use routes_cli::{load_pipeline_str, load_scenario_str};
use routes_gen::{PipelineScenario, RelationalScenario};
use routes_mapping::{egd_to_string, tgd_to_string, SchemaMapping};
use routes_model::{Instance, Schema, Value, ValuePool};

/// Quote a string constant with whichever quote character it does not
/// contain (the loader has no escapes inside quotes).
fn quote(s: &str) -> String {
    if !s.contains('\'') {
        format!("'{s}'")
    } else {
        assert!(
            !s.contains('"'),
            "string constant {s:?} contains both quote characters"
        );
        format!("\"{s}\"")
    }
}

fn value_text(pool: &ValuePool, v: Value) -> String {
    match v {
        Value::Int(n) => n.to_string(),
        Value::Str(s) => quote(pool.resolve(s)),
        Value::Null(n) => pool.null_label(n).to_owned(),
    }
}

fn schema_lines(out: &mut String, indent: &str, schema: &Schema) {
    for (_, rel) in schema.iter() {
        let _ = writeln!(out, "{indent}{}({})", rel.name(), rel.attrs().join(", "));
    }
}

/// Every dependency of `mapping`, rendered, in the mapping's own order.
fn dependency_texts(pool: &ValuePool, mapping: &SchemaMapping) -> Vec<String> {
    let (src, tgt) = (mapping.source(), mapping.target());
    let mut deps: Vec<String> = mapping
        .st_tgds()
        .iter()
        .map(|t| tgd_to_string(pool, src, tgt, t))
        .collect();
    deps.extend(
        mapping
            .target_tgds()
            .iter()
            .map(|t| tgd_to_string(pool, tgt, tgt, t)),
    );
    deps.extend(mapping.egds().iter().map(|e| egd_to_string(pool, tgt, e)));
    deps
}

fn data_lines(out: &mut String, indent: &str, pool: &ValuePool, schema: &Schema, inst: &Instance) {
    for (rel_id, rel) in schema.iter() {
        for (_, values) in inst.rel_tuples(rel_id) {
            let row: Vec<String> = values.iter().map(|&v| value_text(pool, v)).collect();
            let _ = writeln!(out, "{indent}{}({})", rel.name(), row.join(", "));
        }
    }
}

/// A flat scenario (`source schema` / `target schema` / `dependencies` /
/// `source data`); the server chases the target.
pub fn relational_text(sc: &RelationalScenario) -> String {
    let s = &sc.scenario;
    let mut out = String::from("source schema:\n");
    schema_lines(&mut out, "  ", s.mapping.source());
    out.push_str("target schema:\n");
    schema_lines(&mut out, "  ", s.mapping.target());
    out.push_str("dependencies:\n");
    for dep in dependency_texts(&s.pool, &s.mapping) {
        let _ = writeln!(out, "  {dep}");
    }
    out.push_str("source data:\n");
    data_lines(&mut out, "  ", &s.pool, s.mapping.source(), &s.source);
    out
}

/// A pipeline scenario in the `stage <name>:` syntax, with `core: on` in
/// the `pipeline:` section when the generator asked for cores.
pub fn pipeline_text(sc: &PipelineScenario) -> String {
    let mut out = String::new();
    if sc.pipeline.core_mode() {
        out.push_str("pipeline:\n  core: on\n");
    }
    for stage in sc.pipeline.stages() {
        let _ = writeln!(out, "stage {}:", stage.name);
        out.push_str("  source schema:\n");
        schema_lines(&mut out, "    ", stage.mapping.source());
        out.push_str("  target schema:\n");
        schema_lines(&mut out, "    ", stage.mapping.target());
        out.push_str("  dependencies:\n");
        for dep in dependency_texts(&sc.pool, &stage.mapping) {
            let _ = writeln!(out, "    {dep}");
        }
    }
    out.push_str("source data:\n");
    let first = &sc.pipeline.stages()[0].mapping;
    data_lines(&mut out, "  ", &sc.pool, first.source(), &sc.source);
    out
}

fn tuple_counts(schema: &Schema, inst: &Instance) -> BTreeMap<String, u32> {
    schema
        .iter()
        .map(|(id, rel)| (rel.name().to_owned(), inst.rel_len(id)))
        .collect()
}

fn dependency_set(pool: &ValuePool, mapping: &SchemaMapping) -> BTreeSet<String> {
    dependency_texts(pool, mapping).into_iter().collect()
}

/// Loading `text` gives the generator's source tuple counts and tgd set.
pub fn check_relational_round_trip(sc: &RelationalScenario, text: &str) -> Result<(), String> {
    let loaded =
        load_scenario_str(text).map_err(|e| format!("rendered text does not load: {e}"))?;
    let s = &sc.scenario;
    if tuple_counts(loaded.mapping.source(), &loaded.source)
        != tuple_counts(s.mapping.source(), &s.source)
    {
        return Err("rendered text changed the source tuple counts".into());
    }
    if dependency_set(&loaded.pool, &loaded.mapping) != dependency_set(&s.pool, &s.mapping) {
        return Err("rendered text changed the tgd set".into());
    }
    Ok(())
}

/// The pipeline analogue: same stages in order, same per-stage tgd sets,
/// same core mode, same source tuple counts.
pub fn check_pipeline_round_trip(sc: &PipelineScenario, text: &str) -> Result<(), String> {
    let loaded =
        load_pipeline_str(text).map_err(|e| format!("rendered text does not load: {e}"))?;
    let (want, got) = (sc.pipeline.stages(), loaded.pipeline.stages());
    if want.len() != got.len() || loaded.pipeline.core_mode() != sc.pipeline.core_mode() {
        return Err("rendered text changed the stage chain or core mode".into());
    }
    for (w, g) in want.iter().zip(got) {
        if w.name != g.name
            || dependency_set(&sc.pool, &w.mapping) != dependency_set(&loaded.pool, &g.mapping)
        {
            return Err(format!("rendered text changed stage `{}`", w.name));
        }
    }
    if tuple_counts(got[0].mapping.source(), &loaded.source)
        != tuple_counts(want[0].mapping.source(), &sc.source)
    {
        return Err("rendered text changed the source tuple counts".into());
    }
    Ok(())
}
