//! The checked part of every answer: what a socket response and its
//! in-process replay must agree on.

use routes_server::json::{self, Json};

use crate::workload::Kind;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Created {
        target_tuples: u64,
    },
    Edited {
        target_tuples: u64,
    },
    Route {
        found: bool,
        validated: bool,
        steps: u64,
    },
    Forest {
        nodes: u64,
        branches: u64,
    },
    Stitched {
        found: bool,
        validated: bool,
        hops: u64,
        total_steps: u64,
    },
    Session {
        target_tuples: u64,
    },
    Deleted,
    Scraped,
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("answer lacks numeric `{key}`"))
}

fn field_bool(doc: &Json, key: &str) -> bool {
    doc.get(key).and_then(Json::as_bool).unwrap_or(false)
}

/// A top-level integer field that the server writes before any large
/// array (`all-routes` puts `num_nodes`/`num_branches` ahead of the node
/// list), read without parsing a response that can approach a megabyte.
fn leading_u64(body: &[u8], key: &str) -> Result<u64, String> {
    let head = &body[..body.len().min(512)];
    let needle = format!("\"{key}\":");
    let at = head
        .windows(needle.len())
        .position(|w| w == needle.as_bytes())
        .ok_or_else(|| format!("answer lacks leading `{key}`"))?;
    let digits: String = head[at + needle.len()..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .map(|&b| b as char)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("`{key}` is not a count"))
}

/// Extract the checked fields of a 2xx response body, plus the session id
/// a create answered with.
pub fn parse(kind: Kind, body: &[u8]) -> Result<(Answer, Option<u64>), String> {
    if kind == Kind::Scrape {
        return if body.starts_with(b"# HELP") || body.starts_with(b"# TYPE") {
            Ok((Answer::Scraped, None))
        } else {
            Err("scrape is not Prometheus text".into())
        };
    }
    if kind == Kind::AllRoutes {
        let answer = Answer::Forest {
            nodes: leading_u64(body, "num_nodes")?,
            branches: leading_u64(body, "num_branches")?,
        };
        return Ok((answer, None));
    }
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_owned())?;
    let doc = json::parse(text).map_err(|e| format!("answer is not JSON: {e}"))?;
    Ok(match kind {
        Kind::Create => (
            Answer::Created {
                target_tuples: field_u64(&doc, "target_tuples")?,
            },
            Some(field_u64(&doc, "session")?),
        ),
        Kind::Edit => (
            Answer::Edited {
                target_tuples: field_u64(&doc, "target_tuples")?,
            },
            None,
        ),
        Kind::OneRoute => (
            Answer::Route {
                found: field_bool(&doc, "found"),
                validated: field_bool(&doc, "validated"),
                steps: doc
                    .get("steps")
                    .and_then(Json::as_array)
                    .map_or(0, |s| s.len() as u64),
            },
            None,
        ),
        Kind::Stitched => (
            Answer::Stitched {
                found: field_bool(&doc, "found"),
                validated: field_bool(&doc, "validated"),
                hops: doc.get("hops").and_then(Json::as_u64).unwrap_or(0),
                total_steps: doc.get("total_steps").and_then(Json::as_u64).unwrap_or(0),
            },
            None,
        ),
        Kind::GetSession => {
            let Some(Json::Object(rels)) = doc.get("target") else {
                return Err("session answer lacks `target` counts".into());
            };
            let target_tuples = rels.iter().filter_map(|(_, n)| n.as_u64()).sum();
            (Answer::Session { target_tuples }, None)
        }
        Kind::Delete => (Answer::Deleted, None),
        Kind::AllRoutes | Kind::Scrape => unreachable!("handled above"),
    })
}
