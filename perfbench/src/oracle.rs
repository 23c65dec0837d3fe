//! The correctness oracle, run after the timed window of every run.
//!
//! * every query's final wire answer must equal a from-scratch
//!   `GrapeSession::run` on the local replica of the final graph;
//! * every watched query's pushed events, folded in arrival order over the
//!   answer read right after subscribing, must equal its final answer.
//!
//! Either mismatch fails the run.

use std::collections::BTreeMap;

use grape_algorithms::cc::{Cc, CcQuery};
use grape_algorithms::sssp::{Sssp, SsspQuery};
use grape_core::config::EngineMode;
use grape_core::output_delta::{OutputEvent, WireOutputDelta};
use grape_core::session::GrapeSession;
use grape_core::spec::QuerySpec;
use grape_daemon::protocol::{EventFrame, QueryAnswer};
use grape_graph::graph::Graph;
use grape_partition::metis_like::MetisLike;
use grape_partition::strategy::PartitionStrategy;
use serde::{Deserialize, Value};

/// A query answer as ordered rows.  CC labels are vertex ids, exact in f64.
pub type Rows = BTreeMap<u64, f64>;

pub fn rows(answer: &QueryAnswer) -> Rows {
    match answer {
        QueryAnswer::Sssp { distances } => distances.iter().copied().collect(),
        QueryAnswer::Cc { components } => components.iter().map(|&(v, c)| (v, c as f64)).collect(),
    }
}

/// From-scratch answers of `specs` on `graph`.
pub fn recompute(graph: &Graph, specs: &[QuerySpec]) -> Result<Vec<Rows>, String> {
    let frag = MetisLike::new(4)
        .partition(graph)
        .map_err(|e| e.to_string())?;
    let session = GrapeSession::builder()
        .workers(2)
        .mode(EngineMode::Sync)
        .build()
        .map_err(|e| e.to_string())?;
    specs
        .iter()
        .map(|spec| {
            let answer = match *spec {
                QuerySpec::Sssp { source } => session
                    .run(&frag, &Sssp, &SsspQuery::new(source))
                    .map(|r| QueryAnswer::from_sssp(&r.output)),
                QuerySpec::Cc => session
                    .run(&frag, &Cc, &CcQuery)
                    .map(|r| QueryAnswer::from_cc(&r.output)),
            };
            answer.map(|a| rows(&a)).map_err(|e| e.to_string())
        })
        .collect()
}

fn number(v: &Value) -> Result<f64, String> {
    f64::from_value(v).map_err(|e| e.to_string())
}

fn apply(rows: &mut Rows, delta: &WireOutputDelta) -> Result<(), String> {
    for key in &delta.removed {
        let key = u64::from_value(key).map_err(|e| e.to_string())?;
        rows.remove(&key);
    }
    for (key, value) in &delta.changed {
        let key = u64::from_value(key).map_err(|e| e.to_string())?;
        rows.insert(key, number(value)?);
    }
    Ok(())
}

/// Folds `events` (arrival order) for `query` over `baseline`.
pub fn fold(mut baseline: Rows, query: usize, events: &[EventFrame]) -> Result<Rows, String> {
    for frame in events.iter().filter(|e| e.query == query) {
        match &frame.event {
            OutputEvent::Delta(delta) => apply(&mut baseline, delta)?,
            OutputEvent::Poisoned => return Err(format!("query {query} was poisoned")),
        }
    }
    Ok(baseline)
}

/// Describes the first difference between two answers, if any.
pub fn diff(expected: &Rows, got: &Rows) -> Option<String> {
    if expected == got {
        return None;
    }
    if expected.len() != got.len() {
        return Some(format!(
            "{} rows expected, {} got",
            expected.len(),
            got.len()
        ));
    }
    expected
        .iter()
        .zip(got)
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("row {a:?} expected, {b:?} got"))
}
