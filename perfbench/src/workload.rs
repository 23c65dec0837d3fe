//! The workloads and the seeded request-stream generator.
//!
//! Everything `graped` receives is generated here from the run seed: the
//! start grid's weight seed, the SSSP sources, every `ΔG` and the read /
//! evict schedule.  The generator keeps a local replica of the edge set so
//! every delta it emits is valid against the graph the daemon holds at that
//! point of the stream, and so the correctness oracle can recompute the
//! final answers from scratch.

use std::collections::{BTreeMap, BTreeSet};

use grape_core::spec::QuerySpec;
use grape_daemon::protocol::{Request, RequestBody};
use grape_graph::delta::GraphDelta;
use grape_graph::generators::road_grid;
use grape_graph::graph::Graph;
use grape_graph::types::VertexId;
use grape_partition::metis_like::MetisLike;
use grape_partition::strategy::PartitionStrategy;

/// Both workloads run against a `GRID × GRID` road grid: small enough that
/// a spill-chain fold finishes inside the gap after an eviction.
pub const GRID: usize = 28;
/// Standing SSSP queries; one CC query is registered after them.
pub const SSSP_QUERIES: usize = 8;
/// How long the daemon holds back a reply, or a commit's events, under
/// Nagle's algorithm: until the load socket ACKs what came before.  The
/// ACK comes when the socket's delayed-ACK timer fires (≈ 40 ms after the
/// reply starts, rounded up here) or earlier, with the benchmark's next
/// request.  Every gap after such a request outlasts its work plus this,
/// so it is always the timer, and the latency follows the work rather than
/// the send spacing (see NOTES.md).
pub const ACK_DELAY: f64 = 0.045;
/// Commits of the closed-loop saturation phase (two requests in flight).
pub const SATURATION_COMMITS: usize = 240;
/// Edges per insertion batch: one, so that a run's commits grow the graph
/// by at most [`MAX_GROWTH`].
pub const INSERT_BATCH: usize = 1;
/// Inserted edges join vertices at most this many ids apart.
pub const INSERT_SPAN: u64 = 32;
/// Blocks of the local partition a road closure is confined to.
pub const CLOSURE_BLOCKS: usize = 16;
/// Roads one closure removes (both directions each), inclusive range.
pub const CLOSURE_ROADS: (usize, usize) = (8, 16);
/// Evictions before the timed window stagger the queries' spill chains over
/// this many phases — one more than the daemon's default compaction
/// threshold of 4 — so chain folds spread evenly over the run instead of
/// arriving for every query in the same rotation round.
pub const CHAIN_PHASES: usize = 5;
/// Most edge growth an insert workload may cause over one run.
pub const MAX_GROWTH: f64 = 0.15;

/// What the commits of a workload do to the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Small localized edge-insertion batches.
    Inserts,
    /// Road closures inside one block, each spread over two commits, then
    /// one commit reopening all of them.
    Closures,
}

/// One workload: the traffic it offers and the queries it watches.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub traffic: Traffic,
    /// Queries `0..watched` are subscribed on the load connection.
    pub watched: usize,
}

/// Offered load of the open-loop phase in commits per second: one read
/// tick and one eviction tick per two commits.
pub fn rate() -> f64 {
    let commit = gap_after(&OpKind::Commit(GraphDelta::new()));
    let pair = 2.0 * commit
        + 2.0 * gap_after(&OpKind::Read(0))
        + gap_after(&OpKind::ColdRead(0))
        + gap_after(&OpKind::Evict(0));
    2.0 / pair
}

/// Open-loop phase length: the commits that fit in `seconds` at [`rate`].
pub fn main_commits(seconds: f64) -> usize {
    ((rate() * seconds).floor() as usize).max(1)
}

/// The workload table; `perfbench/NOTES.md` says why each exists.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "insert_watch",
            traffic: Traffic::Inserts,
            watched: SSSP_QUERIES + 1,
        },
        Workload {
            name: "regional_rw",
            traffic: Traffic::Closures,
            watched: 2,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// request stream on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What one scheduled request does.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    Commit(GraphDelta),
    /// Hot `output` of a resident, caught-up query.
    Read(usize),
    Evict(usize),
    /// `output` of an evicted query (lazy rehydrate and replay).
    ColdRead(usize),
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    /// Due time in seconds after the open-loop phase starts; saturation
    /// ops are sent as soon as fewer than two requests are in flight.
    pub due: f64,
    pub saturation: bool,
}

impl Op {
    pub fn body(&self) -> RequestBody {
        match &self.kind {
            OpKind::Commit(delta) => RequestBody::Apply {
                delta: delta.clone(),
            },
            OpKind::Read(q) | OpKind::ColdRead(q) => RequestBody::Output { query: *q },
            OpKind::Evict(q) => RequestBody::Evict { query: *q },
        }
    }

    pub fn is_commit(&self) -> bool {
        matches!(self.kind, OpKind::Commit(_))
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Weight seed of the start grid (`--graph grid:WxH@<graph_seed>`).
    pub graph_seed: u64,
    pub specs: Vec<QuerySpec>,
    /// Evict-then-read pairs run before the timed window, in order.
    pub warmup: Vec<usize>,
    pub ops: Vec<Op>,
    pub start_edges: usize,
    /// Edge count after every op of the plan.
    pub final_edges: usize,
}

impl Plan {
    /// The request frames the plan sends, ids `first_id..`, serialized.
    pub fn request_payloads(&self, first_id: u64) -> Vec<String> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let request = Request {
                    id: first_id + i as u64,
                    body: op.body(),
                };
                serde_json::to_string(&request).expect("requests always serialize")
            })
            .collect()
    }

    pub fn commits(&self) -> impl Iterator<Item = &GraphDelta> {
        self.ops.iter().filter_map(|op| match &op.kind {
            OpKind::Commit(d) => Some(d),
            _ => None,
        })
    }

    /// Edge growth over the whole plan, as a share of the start graph.
    pub fn growth(&self) -> f64 {
        (self.final_edges as f64 - self.start_edges as f64) / self.start_edges as f64
    }

    /// The start graph the daemon builds from `--graph`.
    pub fn start_graph(&self) -> Graph {
        road_grid(GRID, GRID, self.graph_seed)
    }

    /// The graph after every commit of the plan: the oracle's local replica.
    pub fn final_graph(&self) -> Graph {
        let mut g = self.start_graph();
        for delta in self.commits() {
            g = g.apply_delta(delta).expect("generated deltas are valid");
        }
        g
    }
}

/// A road: an undirected grid street `u < v` with its two directed weights.
#[derive(Debug, Clone, Copy)]
struct Road {
    u: VertexId,
    v: VertexId,
    w_uv: f64,
    w_vu: f64,
}

struct DeltaGen {
    rng: Rng,
    traffic: Traffic,
    n: u64,
    /// Replica edge set (directed pairs).
    edges: BTreeSet<(VertexId, VertexId)>,
    /// Closure candidates per block (roads with both ends in the block).
    blocks: Vec<Vec<Road>>,
    /// Roads of the closure in progress: how many are closed so far.
    closing: Option<(Vec<Road>, usize)>,
}

impl DeltaGen {
    fn new(w: &Workload, start: &Graph, rng: Rng) -> Self {
        let mut weights: BTreeMap<(VertexId, VertexId), f64> = BTreeMap::new();
        for v in start.vertices() {
            for nb in start.out_neighbors(v) {
                weights.insert((v, nb.target), nb.weight);
            }
        }
        let blocks = match w.traffic {
            Traffic::Inserts => Vec::new(),
            Traffic::Closures => {
                let frag = MetisLike::new(CLOSURE_BLOCKS)
                    .partition(start)
                    .expect("a grid always partitions");
                let mut blocks = vec![Vec::new(); CLOSURE_BLOCKS];
                for (&(u, v), &w_uv) in &weights {
                    if u < v {
                        if let Some(&w_vu) = weights.get(&(v, u)) {
                            let b = frag.gp().owner(u);
                            if b == frag.gp().owner(v) {
                                blocks[b].push(Road { u, v, w_uv, w_vu });
                            }
                        }
                    }
                }
                blocks.retain(|roads| roads.len() >= CLOSURE_ROADS.1);
                assert!(!blocks.is_empty(), "grid too small for road closures");
                blocks
            }
        };
        DeltaGen {
            rng,
            traffic: w.traffic,
            n: start.num_vertices() as u64,
            edges: weights.into_keys().collect(),
            blocks,
            closing: None,
        }
    }

    fn next(&mut self) -> GraphDelta {
        match self.traffic {
            Traffic::Inserts => self.insert_batch(),
            Traffic::Closures => match self.closing.take() {
                None => self.close_first_half(),
                Some((roads, closed)) if closed < roads.len() => {
                    let delta = self.close(&roads[closed..]);
                    self.closing = Some((roads.clone(), roads.len()));
                    delta
                }
                Some((roads, _)) => {
                    let mut delta = GraphDelta::new();
                    for r in roads {
                        self.edges.insert((r.u, r.v));
                        self.edges.insert((r.v, r.u));
                        delta = delta
                            .add_weighted_edge(r.u, r.v, r.w_uv)
                            .add_weighted_edge(r.v, r.u, r.w_vu);
                    }
                    delta
                }
            },
        }
    }

    fn insert_batch(&mut self) -> GraphDelta {
        let mut delta = GraphDelta::new();
        let centre = self.rng.below(self.n);
        let half = INSERT_SPAN / 2;
        let lo = centre.saturating_sub(half);
        let hi = (centre + half).min(self.n - 1);
        let mut added = 0;
        while added < INSERT_BATCH {
            let u = lo + self.rng.below(hi - lo + 1);
            let v = lo + self.rng.below(hi - lo + 1);
            if u == v || !self.edges.insert((u, v)) {
                continue;
            }
            // Quarter-unit weights print exactly in JSON, so the daemon and
            // the replica hold bit-identical graphs.
            let weight = 1.0 + self.rng.below(36) as f64 / 4.0;
            delta = delta.add_weighted_edge(u, v, weight);
            added += 1;
        }
        delta
    }

    /// Picks the roads of the next closure and closes the first half.  Two
    /// closing commits per reopening put the median commit on the
    /// non-monotone path instead of on the boundary between the two paths.
    fn close_first_half(&mut self) -> GraphDelta {
        let block = self.rng.below(self.blocks.len() as u64) as usize;
        let (lo, hi) = CLOSURE_ROADS;
        let count = lo + self.rng.below((hi - lo + 1) as u64) as usize;
        let roads = &mut self.blocks[block];
        // Partial Fisher–Yates: the first `count` entries become the pick.
        for i in 0..count {
            let j = i + self.rng.below((roads.len() - i) as u64) as usize;
            roads.swap(i, j);
        }
        let picked: Vec<Road> = roads[..count].to_vec();
        let half = count / 2;
        let delta = self.close(&picked[..half]);
        self.closing = Some((picked, half));
        delta
    }

    fn close(&mut self, roads: &[Road]) -> GraphDelta {
        let mut delta = GraphDelta::new();
        for r in roads {
            self.edges.remove(&(r.u, r.v));
            self.edges.remove(&(r.v, r.u));
            delta = delta.remove_edge(r.u, r.v).remove_edge(r.v, r.u);
        }
        delta
    }
}

/// Ticks alternate.  A read tick is a commit, the cold read of the query
/// the previous tick evicted, and a hot read; an eviction tick is a commit,
/// a hot read, and the eviction of the next query in rotation.  The next
/// request is due this long after one of `kind`: [`ACK_DELAY`] plus room
/// for the request's work, about twice its p90 or more on a 2-CPU host (commit
/// with its events ≈ 5–10 ms, hot read ≈ 3 ms, cold read ≈ 25–35 ms).  An
/// eviction's reply is one small frame and never held, so its gap is room
/// for a spill-chain fold alone (p90 ≈ 40–60 ms).  A reply that overran its
/// gap would arrive after the next request went out, unacknowledged, and
/// the daemon would then hold that request's reply a whole timer.
fn gap_after(kind: &OpKind) -> f64 {
    match kind {
        OpKind::Commit(_) => ACK_DELAY + 0.030,
        OpKind::Read(_) => ACK_DELAY + 0.015,
        OpKind::ColdRead(_) => ACK_DELAY + 0.065,
        OpKind::Evict(_) => 0.100,
    }
}

/// Builds the run's inputs: `main_commits` open-loop commits at the
/// workload's rate, then the saturation phase, each with its reads.
pub fn plan(w: &Workload, seed: u64, main_commits: usize) -> Plan {
    let mut rng = Rng::new(seed);
    let graph_seed = rng.next_u64() % 1_000_000_007;
    let start = road_grid(GRID, GRID, graph_seed);
    let n = start.num_vertices() as u64;
    let mut sources = BTreeSet::new();
    while sources.len() < SSSP_QUERIES {
        sources.insert(rng.below(n));
    }
    let mut specs: Vec<QuerySpec> = sources
        .into_iter()
        .map(|source| QuerySpec::Sssp { source })
        .collect();
    specs.push(QuerySpec::Cc);

    let mut gen = DeltaGen::new(w, &start, Rng::new(rng.next_u64()));
    let queries = specs.len();
    let (mut hot_next, mut cold_next) = (0, 0);
    let mut evicted: Option<usize> = None;
    let mut ops = Vec::new();
    let mut due = 0.0;
    for (commits, saturation) in [(main_commits, false), (SATURATION_COMMITS, true)] {
        for i in 0..commits {
            let mut tick = vec![OpKind::Commit(gen.next())];
            let hot = OpKind::Read(hot_next);
            hot_next = (hot_next + 1) % queries;
            match evicted.take() {
                Some(q) => tick.extend([OpKind::ColdRead(q), hot]),
                None => {
                    tick.push(hot);
                    if i + 1 < commits {
                        tick.push(OpKind::Evict(cold_next));
                        evicted = Some(cold_next);
                        cold_next = (cold_next + 1) % queries;
                    }
                }
            }
            for kind in tick {
                let gap = gap_after(&kind);
                ops.push(Op {
                    kind,
                    due: if saturation { 0.0 } else { due },
                    saturation,
                });
                due += gap;
            }
        }
    }
    // Query q starts the run with q mod CHAIN_PHASES increments stacked.
    let warmup = (0..specs.len())
        .flat_map(|q| std::iter::repeat_n(q, q % CHAIN_PHASES))
        .collect();
    Plan {
        graph_seed,
        specs,
        warmup,
        ops,
        start_edges: start.num_edges(),
        final_edges: gen.edges.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_seconds` from the repository's BENCHMARK.json.
    fn run_seconds() -> f64 {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let json: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        let seconds = json.get_field("run_seconds").expect("run_seconds is set");
        <f64 as serde::Deserialize>::from_value(seconds).expect("run_seconds is a number")
    }

    fn full_plan(w: &Workload, seed: u64) -> Plan {
        plan(w, seed, main_commits(run_seconds()))
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_request_stream() {
        for w in workloads() {
            let a = full_plan(&w, 7).request_payloads(1);
            let b = full_plan(&w, 7).request_payloads(1);
            assert_eq!(a, b, "{}", w.name);
            let c = full_plan(&w, 8).request_payloads(1);
            assert_ne!(a, c, "{}: another seed must change the stream", w.name);
        }
    }

    #[test]
    fn each_closure_and_its_reopening_keep_the_edge_count() {
        let w = find("regional_rw").unwrap();
        let p = full_plan(&w, 3);
        let start = p.start_graph();
        let mut g = start.clone();
        let mut closed = 0;
        for (i, delta) in p.commits().enumerate() {
            g = g.apply_delta(delta).unwrap();
            if i % 3 == 2 {
                assert!((2 * CLOSURE_ROADS.0..=2 * CLOSURE_ROADS.1).contains(&closed));
                assert_eq!(g.num_edges(), start.num_edges(), "after cycle {}", i / 3);
            } else {
                closed = start.num_edges() - g.num_edges();
                assert!(closed > 0);
            }
        }
        assert_eq!(p.final_edges, g.num_edges());
    }

    #[test]
    fn insert_workloads_grow_the_graph_by_at_most_fifteen_percent() {
        for w in workloads().iter().filter(|w| w.traffic == Traffic::Inserts) {
            let p = full_plan(w, 5);
            let g = p.final_graph();
            assert_eq!(
                g.num_edges(),
                p.final_edges,
                "{}: replica and generator agree",
                w.name
            );
            assert!(
                p.growth() > 0.0 && p.growth() <= MAX_GROWTH,
                "{}: {}",
                w.name,
                p.growth()
            );
        }
    }

    #[test]
    fn every_run_carries_enough_samples_for_its_tails() {
        for w in workloads() {
            let p = full_plan(&w, 11);
            let main: Vec<&Op> = p.ops.iter().filter(|op| !op.saturation).collect();
            let count = |f: fn(&OpKind) -> bool| main.iter().filter(|op| f(&op.kind)).count();
            assert!(
                count(|k| matches!(k, OpKind::Commit(_))) >= 200,
                "{}",
                w.name
            );
            assert!(count(|k| matches!(k, OpKind::Read(_))) >= 200, "{}", w.name);
            assert!(
                count(|k| matches!(k, OpKind::ColdRead(_))) >= 100,
                "{}",
                w.name
            );
            // Commits that find at least one watched query resident push
            // events; they must also reach 200.
            let mut evicted = BTreeSet::new();
            let mut with_events = 0;
            for op in &main {
                match op.kind {
                    OpKind::Commit(_) => {
                        with_events += usize::from((0..w.watched).any(|q| !evicted.contains(&q)))
                    }
                    OpKind::Evict(q) => {
                        evicted.insert(q);
                    }
                    OpKind::ColdRead(q) => {
                        evicted.remove(&q);
                    }
                    OpKind::Read(q) => {
                        assert!(!evicted.contains(&q), "hot reads hit resident queries")
                    }
                }
            }
            assert!(with_events >= 200, "{}: {with_events}", w.name);
        }
    }

    #[test]
    fn inserted_edges_are_new_local_and_exactly_printable() {
        let w = find("insert_watch").unwrap();
        let p = plan(&w, 9, 20);
        let start = p.start_graph();
        for delta in p.commits() {
            assert_eq!(delta.added_edges().len(), INSERT_BATCH);
            for e in delta.added_edges() {
                assert!(e.src.abs_diff(e.dst) <= INSERT_SPAN);
                assert!(!start.out_neighbors(e.src).iter().any(|n| n.target == e.dst));
                assert_eq!((e.weight * 4.0).fract(), 0.0);
            }
        }
    }
}
