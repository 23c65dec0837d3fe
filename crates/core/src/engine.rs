//! The GRAPE engine runtime: the simultaneous fixpoint computation of
//! Section 3.1, written against the pluggable [`crate::transport`] layer.
//!
//! Given a fragmentation `F = (F_1, …, F_m)`, a PIE program and a query `Q`,
//! the engine
//!
//! 1. runs `PEval` on every fragment in parallel,
//! 2. routes the changed update parameters via the fragmentation graph `G_P`
//!    and hands them to the transport, which resolves conflicts with
//!    `aggregateMsg` and ships only *changed* values (the coordinator's
//!    message grouping of Section 3.2(3)),
//! 3. iterates `IncEval` on fragments with pending messages until no more
//!    updates can be made (the fixpoint), and
//! 4. calls `Assemble` on the partial results.
//!
//! Two runtimes share that skeleton:
//!
//! * **Superstep loop** ([`EngineMode::Sync`]) — BSP: all active fragments
//!   evaluate, then the transport flushes at a global barrier.  This is the
//!   model analysed in the paper, including superstep-aligned checkpointing
//!   and failure recovery.
//! * **Streaming loop** ([`EngineMode::Async`]) — no global barrier:
//!   fragments are independent tasks on their owning worker, draining their
//!   mailboxes to quiescence.  Evaluations carry logical rounds, gated so
//!   that the superstep metric (highest round + 1) is never larger — and
//!   on high-diameter workloads smaller — than the synchronous superstep
//!   count, for any schedule (see `streaming_loop`).
//!
//! Both runtimes root a run through a per-fragment **PEval mask**
//! (`RunCtx::peval`), derived from the run's `Start`:
//!
//! * a fresh run (`Start::Fresh`) masks every fragment — the classic
//!   PEval-everywhere superstep 0;
//! * an incremental refresh (`Start::Incremental`) retains the partial results
//!   of an earlier run and pre-loads `ΔG`-derived seed messages: the mask
//!   is **empty** for a monotone delta (the paper's "queries under
//!   updates" protocol of Section 3.4 — `Q(G ⊕ ΔG)` from `Q(G)` without a
//!   single PEval call) and equals the **damage frontier** for a bounded
//!   non-monotone refresh (PEval re-roots only the stale fragments).
//!
//! One entry point, `run_parts`, does the shared set-up and makes one
//! static choice: the `WorkerHost` from the [`TransportSpec`]
//! (in-process, or `grape-worker` subprocesses for `Process`) and the
//! substrate from the mode ([`BarrierTransport`] under `Sync`,
//! [`ChannelTransport`] under `Async`).
//!
//! Physical workers are OS threads; fragments are virtual workers mapped
//! onto physical workers by the [`crate::load_balance::LoadBalancer`].
//! Entry points: [`crate::session::GrapeSession::run`] (one-shot) and
//! [`crate::session::GrapeSession::prepare`] →
//! [`crate::prepared::PreparedQuery`] (prepare → answer → update).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use grape_partition::fragment::{Fragment, Fragmentation};
use grape_partition::fragmentation_graph::{BorderScope, FragmentationGraph};

use crate::config::{EngineConfig, EngineMode};
use crate::host::{InProcessHost, ProcessHost, WorkerHost};
use crate::metrics::{EngineMetrics, SuperstepMetrics};
use crate::pie::{KeyVertex, PieProgram};
use crate::session::GrapeSession;
use crate::transport::{
    BarrierTransport, ChannelTransport, Drained, MessageOps, Transport, TransportSnapshot,
    TransportSpec,
};

/// Errors produced by an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The fragmentation contains no fragments.
    NoFragments,
    /// The fixpoint was not reached within `max_supersteps` — the program
    /// most likely violates the monotonic condition of the Assurance Theorem.
    DidNotConverge {
        /// The configured superstep limit that was hit.
        max_supersteps: usize,
    },
    /// The session/engine configuration is contradictory (e.g. the
    /// barrier-free mode with a barrier transport).
    InvalidConfig(String),
    /// A graph delta could not be applied to the prepared fragmentation
    /// (missing edge/vertex, vertex-cut partition, …).
    Delta(String),
    /// The prepared handle was poisoned by an earlier failed refresh: its
    /// retained partials were consumed or half-rebased when the engine
    /// errored, so its state no longer corresponds to any graph version.
    /// Re-`prepare` (or re-register with the server) before trusting it.
    PoisonedHandle,
    /// A worker subprocess failed mid-run (died, closed its pipe, or
    /// answered with a protocol error).  The run is aborted — no partial
    /// answer is served — and the host reaps every remaining subprocess.
    Worker(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NoFragments => write!(f, "fragmentation has no fragments"),
            EngineError::DidNotConverge { max_supersteps } => write!(
                f,
                "no fixpoint after {max_supersteps} supersteps; \
                 the PIE program is probably not monotonic"
            ),
            EngineError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            EngineError::Delta(reason) => write!(f, "cannot apply graph delta: {reason}"),
            EngineError::PoisonedHandle => write!(
                f,
                "prepared query handle is poisoned by an earlier failed \
                 update; re-prepare before reading its output"
            ),
            EngineError::Worker(reason) => {
                write!(f, "worker subprocess failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of an engine run: the assembled output plus run metrics.
#[derive(Debug, Clone)]
pub struct RunResult<O> {
    /// The assembled answer `Q(G)`.
    pub output: O,
    /// Metrics of the run.
    pub metrics: EngineMetrics,
}

/// Borrowed per-run state shared by both runtimes.
///
/// Deliberately free of fragments, query and program: those live behind the
/// [`WorkerHost`] so the runtimes stay location-transparent — the same loop
/// drives in-process and subprocess workers.
struct RunCtx<'r> {
    config: &'r EngineConfig,
    num_fragments: usize,
    assignment: &'r [Vec<usize>],
    gp: &'r FragmentationGraph,
    scope: BorderScope,
    /// Which fragments run PEval in the rooting step: all of them for a
    /// fresh run, the *damage frontier* for a bounded refresh, none for a
    /// monotone IncEval-only refresh.
    peval: &'r [bool],
}

/// Routes one evaluation's updates through `G_P` and ships them, batched per
/// destination, tagged with the sender's logical step.  `Some(mask)` drops
/// every destination whose mask entry is `false` (used by the bounded
/// refresh to deliver reseeded border values to damaged fragments only).
fn route_and_send<K: KeyVertex + Clone, V: Clone, T: Transport<K, V>>(
    transport: &T,
    gp: &FragmentationGraph,
    scope: BorderScope,
    from: usize,
    step: usize,
    updates: Vec<(K, V)>,
    restrict_to: Option<&[bool]>,
) {
    if updates.is_empty() {
        return;
    }
    let mut per_dest: HashMap<usize, Vec<(K, V)>> = HashMap::new();
    for (key, value) in updates {
        for dest in gp.route(key.vertex(), from, scope) {
            if restrict_to.is_some_and(|mask| !mask[dest]) {
                continue;
            }
            per_dest
                .entry(dest)
                .or_default()
                .push((key.clone(), value.clone()));
        }
    }
    for (dest, batch) in per_dest {
        transport.send_batch(from, dest, step, batch);
    }
}

/// Validates a (mode, transport, fault-tolerance) policy combination.
///
/// Each mode has exactly one in-process transport
/// ([`TransportSpec::default_for`]); `Process` places evaluations in
/// subprocesses under either mode.  Called by
/// [`crate::session::GrapeSessionBuilder::build`] (fail fast) and again by
/// the engine entry point, so configurations replayed through
/// [`crate::session::GrapeSessionBuilder::config`] get the same checks.
pub(crate) fn validate_policies(
    config: &EngineConfig,
    spec: TransportSpec,
) -> Result<(), EngineError> {
    let natural = TransportSpec::default_for(config.mode);
    if spec != natural && !matches!(spec, TransportSpec::Process { .. }) {
        return Err(EngineError::InvalidConfig(format!(
            "EngineMode::{:?} moves messages over TransportSpec::{:?}, not {:?}; \
             use TransportSpec::{:?} or TransportSpec::Process",
            config.mode, natural, spec, natural
        )));
    }
    if config.mode == EngineMode::Async
        && (config.checkpoint_every.is_some() || !config.injected_failures.is_empty())
    {
        return Err(EngineError::InvalidConfig(
            "checkpointing and failure injection are superstep-aligned; \
             use EngineMode::Sync"
                .to_string(),
        ));
    }
    Ok(())
}

/// One fragment's seed batch: the sender fragment and the changed update
/// parameters its rebase produced.
pub(crate) type SeedBatch<P> = (
    usize,
    Vec<(<P as PieProgram>::Key, <P as PieProgram>::Value)>,
);

/// What a run starts from.
pub(crate) enum Start<P: PieProgram> {
    /// PEval roots every fragment in superstep 0: no partials, no seeds.
    Fresh,
    /// An incremental refresh: the previous fixpoint's partials plus the
    /// `ΔG`-derived seed messages, which the engine routes exactly like a
    /// normal evaluation's sends.  `peval_calls == |repeval|` by
    /// construction — **0** on the monotone path.
    Incremental {
        /// Retained partial results, one per fragment.  The entries of
        /// damaged fragments (`repeval`) are placeholders: PEval overwrites
        /// them in the rooting step before anything reads them.
        partials: Vec<P::Partial>,
        /// Seed messages: the rebase step's changed update parameters
        /// (monotone refresh) or the undamaged neighbours' reseeded border
        /// segments (bounded refresh).
        seeds: Vec<SeedBatch<P>>,
        /// The damage frontier of a **bounded** refresh: fragments whose
        /// retained partials may be stale and are re-rooted with PEval in
        /// superstep 0.  Empty for the monotone IncEval-only refresh.  When
        /// non-empty, seed messages are delivered to damaged fragments only.
        repeval: Vec<usize>,
    },
}

/// The engine's one entry point: runs `program` from `start` to the
/// fixpoint and returns the per-fragment partial results `Q(F_i)`,
/// unassembled.  [`crate::session::GrapeSession::run`] assembles and drops
/// them; [`crate::prepared::PreparedQuery`] retains them so later
/// [`Start::Incremental`] runs can skip PEval.
pub(crate) fn run_parts<P: PieProgram>(
    session: &GrapeSession,
    fragmentation: &Fragmentation,
    program: &P,
    query: &P::Query,
    start: Start<P>,
) -> Result<(Vec<P::Partial>, EngineMetrics), EngineError> {
    let config = session.config();
    let spec = session.transport();
    let m = fragmentation.num_fragments();
    if m == 0 {
        return Err(EngineError::NoFragments);
    }
    validate_policies(config, spec)?;
    let hops = program.expansion_hops(query);
    let (retained, seeds, peval) = match start {
        Start::Fresh => (None, Vec::new(), vec![true; m]),
        Start::Incremental {
            partials,
            seeds,
            repeval,
        } => {
            if !config.injected_failures.is_empty() {
                return Err(EngineError::InvalidConfig(
                    "failure injection is superstep-aligned to a PEval-rooted run; \
                     it is not supported on the incremental refresh path"
                        .to_string(),
                ));
            }
            if partials.len() != m {
                return Err(EngineError::InvalidConfig(format!(
                    "retained {} partials for {} fragments",
                    partials.len(),
                    m
                )));
            }
            let mut peval = vec![false; m];
            for &i in &repeval {
                if i >= m {
                    return Err(EngineError::InvalidConfig(format!(
                        "damage frontier names fragment {i} of {m}"
                    )));
                }
                peval[i] = true;
            }
            if hops > 0 && repeval.is_empty() && !seeds.is_empty() {
                return Err(EngineError::InvalidConfig(
                    "d-hop expansion programs cannot refresh from seed messages alone; \
                     use the bounded refresh (damage frontier) or re-prepare"
                        .to_string(),
                ));
            }
            (Some(partials), seeds, peval)
        }
    };

    let total_start = Instant::now();
    let mut metrics = EngineMetrics {
        program: program.name().to_string(),
        workers: config.num_workers,
        fragments: m,
        transport: spec.name().to_string(),
        incremental: retained.is_some(),
        ..Default::default()
    };

    // Optional d-hop fragment expansion (SubIso), for the fragments PEval
    // roots — all of them in a fresh run, `|damaged|` neighbourhoods in a
    // bounded refresh.  The shipped vertices/edges are counted as
    // communication, mirroring the paper's "message M_i … including all
    // nodes and edges in C_i.x̄ from other fragments".
    let fragments: Vec<Arc<Fragment>> = (0..m)
        .map(|i| {
            if hops > 0 && peval[i] {
                let (f, shipped_vertices, shipped_edges) = fragmentation.expand_fragment(i, hops);
                metrics.add_expansion(shipped_vertices * 24 + shipped_edges * 24);
                Arc::new(f)
            } else {
                fragmentation.fragments()[i].clone()
            }
        })
        .collect();

    // Map virtual workers (fragments) onto physical workers.
    let assignment = session.balancer().assign(fragmentation, config.num_workers);
    let aggregate = |k: &P::Key, a: P::Value, b: P::Value| program.aggregate(k, a, b);
    let key_size = |k: &P::Key| program.key_size(k);
    let value_size = |v: &P::Value| program.value_size(v);
    let ops = MessageOps {
        aggregate: &aggregate,
        key_size: &key_size,
        value_size: &value_size,
    };
    let ctx = RunCtx {
        config,
        num_fragments: m,
        assignment: &assignment,
        gp: fragmentation.gp(),
        scope: program.scope(),
        peval: &peval,
    };

    // The one host × substrate choice: where evaluations run comes from
    // the spec, how messages move from the mode.
    let pipe_bytes = AtomicUsize::new(0);
    let in_process =
        |retained| InProcessHost::new(program, query, &fragments, &aggregate, retained);
    let spawn = |workers, retained: Option<Vec<P::Partial>>| {
        ProcessHost::spawn(
            program,
            query,
            &fragments,
            retained.as_deref(),
            workers,
            &pipe_bytes,
        )
    };
    let barrier = || BarrierTransport::new(m, ops);
    let channel = || ChannelTransport::new(m, ops);
    let partials = match (spec, config.mode) {
        (TransportSpec::Process { workers }, EngineMode::Sync) => {
            spawn(workers, retained).and_then(|h| drive(&ctx, h, barrier(), seeds, &mut metrics))
        }
        (TransportSpec::Process { workers }, EngineMode::Async) => {
            spawn(workers, retained).and_then(|h| drive(&ctx, h, channel(), seeds, &mut metrics))
        }
        (_, EngineMode::Sync) => drive(&ctx, in_process(retained), barrier(), seeds, &mut metrics),
        (_, EngineMode::Async) => drive(&ctx, in_process(retained), channel(), seeds, &mut metrics),
    }?;
    metrics.pipe_bytes = pipe_bytes.into_inner();
    metrics.total_time = total_start.elapsed();
    Ok((partials, metrics))
}

/// Runs one (host, substrate) pair: publishes the seeds, iterates the
/// mode's runtime to the fixpoint, and collects the partials.
///
/// Seeds are routed at logical step 0 and published before the loop
/// starts, so the first IncEval round sees them like any other mail; the
/// published volume is accounted as `seed_messages` (separate from the
/// per-superstep flow, included in the run totals).  During a bounded
/// refresh, only the damaged fragments start from a fresh PEval with no
/// memory of their neighbours' values — everyone else already holds them —
/// so seed delivery is restricted to the damage frontier.
fn drive<P: PieProgram, H: WorkerHost<P>, T: Transport<P::Key, P::Value>>(
    ctx: &RunCtx<'_>,
    host: H,
    transport: T,
    seeds: Vec<SeedBatch<P>>,
    metrics: &mut EngineMetrics,
) -> Result<Vec<P::Partial>, EngineError> {
    let restrict_to = ctx.peval.contains(&true).then_some(ctx.peval);
    for (from, updates) in seeds {
        route_and_send(&transport, ctx.gp, ctx.scope, from, 0, updates, restrict_to);
    }
    transport.flush();
    let seeded = transport.stats();
    metrics.seed_messages = seeded.messages;
    metrics.total_messages += seeded.messages;
    metrics.total_bytes += seeded.bytes;
    match ctx.config.mode {
        EngineMode::Sync => superstep_loop(ctx, &host, &transport, metrics)?,
        EngineMode::Async => streaming_loop(ctx, &host, &transport, metrics)?,
    }
    host.into_partials()
}

/// The BSP runtime: supersteps separated by a global barrier at which the
/// transport publishes messages.  Supports checkpointing and the arbitrator
/// recovery protocol of Section 6.
///
/// The host arrives with empty partials for a full run and pre-populated
/// ones for an incremental refresh; `ctx.peval` selects the fragments PEval
/// roots in superstep 0 (their slots are overwritten before anything reads
/// them).  At the fixpoint the caller collects the partials with
/// [`WorkerHost::into_partials`].
fn superstep_loop<P: PieProgram, H: WorkerHost<P>, T: Transport<P::Key, P::Value>>(
    ctx: &RunCtx<'_>,
    host: &H,
    transport: &T,
    metrics: &mut EngineMetrics,
) -> Result<(), EngineError> {
    let m = ctx.num_fragments;
    let peval_count = AtomicUsize::new(0);
    let inceval_count = AtomicUsize::new(0);
    // Checkpoint = (next superstep, partials, mailboxes + delivered caches).
    #[allow(clippy::type_complexity)]
    let mut checkpoint: Option<(
        usize,
        Vec<Option<P::Partial>>,
        TransportSnapshot<P::Key, P::Value>,
    )> = None;
    let mut handled_failures = vec![false; ctx.config.injected_failures.len()];
    let mut superstep = 0usize;

    loop {
        if superstep >= ctx.config.max_supersteps {
            return Err(EngineError::DidNotConverge {
                max_supersteps: ctx.config.max_supersteps,
            });
        }

        // Failure injection + arbitrator recovery.
        let mut failed = false;
        for (idx, failure) in ctx.config.injected_failures.iter().enumerate() {
            if !handled_failures[idx] && failure.superstep == superstep && failure.fragment < m {
                handled_failures[idx] = true;
                failed = true;
                metrics.recovered_failures += 1;
            }
        }
        if failed {
            match &checkpoint {
                Some((step, saved_partials, saved_transport)) => {
                    superstep = *step;
                    host.restore_partials(saved_partials)?;
                    transport.restore(saved_transport);
                }
                None => {
                    // No checkpoint yet: restart the whole computation.
                    superstep = 0;
                    host.clear_partials()?;
                    transport.reset();
                }
            }
        }

        let step_start = Instant::now();
        // The rooting step: superstep 0 runs PEval on the fragments the
        // mask selects (all of them in a full run, the damage frontier in a
        // bounded refresh, none in a monotone refresh).
        let rooting = superstep == 0;

        // Decide which fragments are active this superstep.
        let active: Vec<bool> = (0..m)
            .map(|i| (rooting && ctx.peval[i]) || transport.has_pending(i))
            .collect();
        let active_count = active.iter().filter(|&&a| a).count();
        if active_count == 0 {
            break;
        }

        // Local evaluation (PEval in the rooting step, IncEval otherwise),
        // spread over the physical workers.  A host failure (e.g. a dead
        // worker subprocess) aborts the whole superstep: every thread bails
        // at its next fragment, the first error wins, and the run returns
        // it instead of flushing — no partial answer is ever served.
        let stats_before = transport.stats();
        let active_ref = &active;
        let peval_count_ref = &peval_count;
        let inceval_count_ref = &inceval_count;
        let abort = AtomicBool::new(false);
        let abort_ref = &abort;
        let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
        let first_error_ref = &first_error;
        std::thread::scope(|s| {
            for worker_fragments in ctx.assignment {
                let worker_fragments = worker_fragments.clone();
                s.spawn(move || {
                    for fi in worker_fragments {
                        if abort_ref.load(Ordering::Relaxed) {
                            return;
                        }
                        if !active_ref[fi] {
                            continue;
                        }
                        let evaluated = if rooting && ctx.peval[fi] {
                            host.peval(fi).inspect(|_| {
                                peval_count_ref.fetch_add(1, Ordering::Relaxed);
                            })
                        } else {
                            let drained = transport.drain(fi);
                            if drained.updates.is_empty() {
                                continue;
                            }
                            host.inc_eval(fi, &drained.updates).inspect(|_| {
                                inceval_count_ref.fetch_add(1, Ordering::Relaxed);
                            })
                        };
                        match evaluated {
                            Ok(updates) => route_and_send(
                                transport, ctx.gp, ctx.scope, fi, superstep, updates, None,
                            ),
                            Err(e) => {
                                let mut slot = first_error_ref.lock();
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                                abort_ref.store(true, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                });
            }
        });
        if let Some(e) = first_error.into_inner() {
            return Err(e);
        }

        // Barrier: the transport publishes this superstep's messages.
        transport.flush();
        let stats_after = transport.stats();
        metrics.push_superstep(SuperstepMetrics {
            superstep,
            active_fragments: active_count,
            messages: stats_after.messages - stats_before.messages,
            bytes: stats_after.bytes - stats_before.bytes,
            duration: step_start.elapsed(),
        });
        metrics.eval_time += step_start.elapsed();

        // Checkpoint (only transports that can snapshot participate).
        if let Some(every) = ctx.config.checkpoint_every {
            if (superstep + 1).is_multiple_of(every) {
                if let Some(snap) = transport.snapshot() {
                    checkpoint = Some((superstep + 1, host.checkpoint_partials()?, snap));
                    metrics.checkpoints += 1;
                }
            }
        }

        superstep += 1;
        if transport.pending_mailboxes() == 0 {
            break; // fixpoint: no pending messages anywhere
        }
    }

    metrics.peval_calls += peval_count.into_inner();
    metrics.inceval_calls += inceval_count.into_inner();
    Ok(())
}

/// One evaluation in the streaming runtime, for the per-superstep metric
/// buckets.
struct EvalRecord {
    /// The fragment that was evaluated.
    fragment: usize,
    /// The evaluation's logical round (see [`streaming_loop`]).
    step: usize,
    consumed_messages: usize,
    consumed_bytes: usize,
    duration: Duration,
}

/// A fragment's round marker when it has no evaluation committed.
const IDLE: usize = usize::MAX;

/// The barrier-free runtime ([`EngineMode::Async`]): every physical worker
/// owns its assigned fragments and keeps draining their mailboxes until the
/// whole computation is quiescent — no superstep barrier, no coordinator
/// round-trips.  Messages produced by any fragment are visible to their
/// destinations immediately.
///
/// **Rounds.**  Every evaluation has a logical round: 0 for PEval, and for
/// IncEval `max(previous round + 1, newest tag consumed)`, where a fragment
/// continuing from a retained partial has no previous round and starts at
/// 0.  So a fragment evaluates at most once per round and may consume mail
/// sent earlier in the same round.
/// Messages carry their sender's round.  A fragment evaluates round `r`
/// only once no other fragment can still send mail of a round below `r`
/// (the *gate*): every other fragment is idle or committed to round `r` or
/// later.  Fragments in the lowest committed round run at once; only a
/// fragment that is ahead waits.
///
/// **The superstep metric** is the highest round + 1, and it never exceeds
/// the BSP superstep count, for any schedule.  By induction over `r`, the
/// gate makes every partial after round `r` absorb at least the messages
/// the BSP loop delivers by superstep `r` (PIE programs are monotone, so
/// the extra, fresher mail only moves a partial closer to the fixpoint).
/// At the BSP run's last superstep every partial is therefore final: no
/// border value changes afterwards, and the last round's messages only
/// repeat values their destinations already aggregated, which the channel
/// transport drops.  So no evaluation happens past that round.
fn streaming_loop<P: PieProgram, H: WorkerHost<P>, T: Transport<P::Key, P::Value>>(
    ctx: &RunCtx<'_>,
    host: &H,
    transport: &T,
    metrics: &mut EngineMetrics,
) -> Result<(), EngineError> {
    let m = ctx.num_fragments;
    let peval_count = AtomicUsize::new(0);
    let inceval_count = AtomicUsize::new(0);
    // `committed[f]`: the round fragment `f` is committed to (its pending
    // PEval, or a drained mailbox awaiting or under evaluation), IDLE
    // otherwise.  `floor[f]`: the lowest round its next IncEval may take.
    let committed: Vec<AtomicUsize> = ctx
        .peval
        .iter()
        .map(|&p| AtomicUsize::new(if p { 0 } else { IDLE }))
        .collect();
    let floor: Vec<AtomicUsize> = ctx
        .peval
        .iter()
        .map(|&p| AtomicUsize::new(usize::from(p)))
        .collect();
    // Quiescence: the run is over when every PEval finished, no mailbox has
    // pending mail, and no worker holds or evaluates a drained mailbox (a
    // fragment is "busy" from before it drains until after it ships its
    // results, so mail can never be in flight while all three conditions
    // hold *at one instant*).  The counters cannot be read in one instant,
    // so exits — and gate checks — are seqlock-style: `activity` is bumped
    // immediately *before* every busy transition, commitment and send, and
    // an observation is valid only if it did not move across the whole
    // read, so the observed values really did overlap.
    let unstarted = AtomicUsize::new(ctx.peval.iter().filter(|&&p| p).count());
    let busy = AtomicUsize::new(0);
    let activity = AtomicUsize::new(0);
    let diverged = AtomicBool::new(false);
    // Host failures (a dead worker subprocess) abort the run: the failing
    // thread records the first error and raises `abort`, which every
    // worker's drain loop checks — so nobody spins on quiescence counters
    // that a dead peer can no longer move.
    let abort = AtomicBool::new(false);
    let first_error: Mutex<Option<EngineError>> = Mutex::new(None);
    let records: Mutex<Vec<EvalRecord>> = Mutex::new(Vec::new());
    let fail = |e: EngineError| {
        let mut slot = first_error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        abort.store(true, Ordering::SeqCst);
    };
    // The gate of round `round` for fragment `me`: every other fragment is
    // idle or committed to `round` or later.  A mailbox with mail that its
    // owner has not drained yet counts at its floor, a lower bound of the
    // round it will take.
    let gate_open = |me: usize, round: usize| {
        let seen = activity.load(Ordering::SeqCst);
        for k in (0..m).filter(|&k| k != me) {
            let bound = match committed[k].load(Ordering::SeqCst) {
                IDLE if transport.has_pending(k) => floor[k].load(Ordering::SeqCst),
                IDLE => continue,
                r => r,
            };
            if bound < round {
                return false;
            }
        }
        activity.load(Ordering::SeqCst) == seen
    };

    std::thread::scope(|s| {
        for worker_fragments in ctx.assignment {
            let (committed, floor, fail, gate_open) = (&committed, &floor, &fail, &gate_open);
            let (unstarted, busy, activity) = (&unstarted, &busy, &activity);
            let (abort, diverged, records) = (&abort, &diverged, &records);
            let (peval_count, inceval_count) = (&peval_count, &inceval_count);
            s.spawn(move || {
                let mut local: Vec<EvalRecord> = Vec::new();
                // PEval for the mask-selected fragments this worker owns
                // (all of its fragments in a fresh run, the damaged ones in
                // a bounded refresh, none in a monotone refresh — which
                // starts straight from the retained partials and the
                // pre-seeded mailboxes).  Mail addressed to a fragment whose
                // PEval has not run yet simply waits in its mailbox.
                for &fi in worker_fragments.iter().filter(|&&fi| ctx.peval[fi]) {
                    if abort.load(Ordering::SeqCst) {
                        break;
                    }
                    let t0 = Instant::now();
                    match host.peval(fi) {
                        Ok(updates) => {
                            activity.fetch_add(1, Ordering::SeqCst);
                            route_and_send(transport, ctx.gp, ctx.scope, fi, 0, updates, None);
                        }
                        Err(e) => {
                            fail(e);
                            break;
                        }
                    }
                    activity.fetch_add(1, Ordering::SeqCst);
                    committed[fi].store(IDLE, Ordering::SeqCst);
                    unstarted.fetch_sub(1, Ordering::SeqCst);
                    peval_count.fetch_add(1, Ordering::Relaxed);
                    local.push(EvalRecord {
                        fragment: fi,
                        step: 0,
                        consumed_messages: 0,
                        consumed_bytes: 0,
                        duration: t0.elapsed(),
                    });
                }
                // Drain to quiescence.  `held`: drained mailboxes waiting
                // for the gate of their committed round to open.
                let mut held: HashMap<usize, Drained<P::Key, P::Value>> = HashMap::new();
                let mut idle_rounds = 0u32;
                'run: loop {
                    if diverged.load(Ordering::SeqCst) || abort.load(Ordering::SeqCst) {
                        break;
                    }
                    // Commit every mailbox with mail to a round: at its
                    // floor while draining, then at the exact round.  The
                    // lock-free global pending count skips the per-mailbox
                    // locking when there is nothing anywhere.
                    let anything_pending = transport.pending_mailboxes() > 0;
                    for &fi in worker_fragments {
                        if !anything_pending || held.contains_key(&fi) || !transport.has_pending(fi)
                        {
                            continue;
                        }
                        activity.fetch_add(1, Ordering::SeqCst);
                        busy.fetch_add(1, Ordering::SeqCst);
                        let lowest = floor[fi].load(Ordering::SeqCst);
                        committed[fi].store(lowest, Ordering::SeqCst);
                        let drained = transport.drain(fi);
                        if drained.updates.is_empty() {
                            activity.fetch_add(1, Ordering::SeqCst);
                            committed[fi].store(IDLE, Ordering::SeqCst);
                            busy.fetch_sub(1, Ordering::SeqCst);
                            continue;
                        }
                        let round = lowest.max(drained.max_step);
                        committed[fi].store(round, Ordering::SeqCst);
                        held.insert(fi, drained);
                    }
                    // Evaluate, lowest round first, every held mailbox whose
                    // gate is open.
                    let mut ready: Vec<(usize, usize)> = held
                        .keys()
                        .map(|&fi| (committed[fi].load(Ordering::SeqCst), fi))
                        .collect();
                    ready.sort_unstable();
                    let mut progressed = false;
                    for (round, fi) in ready {
                        if !gate_open(fi, round) {
                            continue;
                        }
                        // Guard divergence on the logical round: it ratchets
                        // up without bound for a non-monotonic program.
                        if round >= ctx.config.max_supersteps {
                            diverged.store(true, Ordering::SeqCst);
                            break 'run;
                        }
                        let mut h = held.remove(&fi).expect("ready entries are held");
                        // Mail that arrived since the drain was sent in a
                        // round no later than this one (its senders passed
                        // their gates against this commitment): absorb it.
                        let late = transport.drain(fi);
                        h.updates.extend(late.updates);
                        h.messages += late.messages;
                        h.bytes += late.bytes;
                        let t0 = Instant::now();
                        match host.inc_eval(fi, &h.updates) {
                            Ok(updates) => {
                                activity.fetch_add(1, Ordering::SeqCst);
                                route_and_send(
                                    transport, ctx.gp, ctx.scope, fi, round, updates, None,
                                );
                            }
                            Err(e) => {
                                fail(e);
                                break 'run;
                            }
                        }
                        floor[fi].store(round + 1, Ordering::SeqCst);
                        activity.fetch_add(1, Ordering::SeqCst);
                        committed[fi].store(IDLE, Ordering::SeqCst);
                        busy.fetch_sub(1, Ordering::SeqCst);
                        inceval_count.fetch_add(1, Ordering::Relaxed);
                        local.push(EvalRecord {
                            fragment: fi,
                            step: round,
                            consumed_messages: h.messages,
                            consumed_bytes: h.bytes,
                            duration: t0.elapsed(),
                        });
                        progressed = true;
                    }
                    if progressed {
                        idle_rounds = 0;
                        continue;
                    }
                    // Seqlock-style exit: with `activity` unchanged across
                    // the whole observation, `busy` was constant (and read
                    // 0, so constant 0) — no evaluation was in flight, so no
                    // send could race the mailbox read and the observed
                    // zeros genuinely overlapped.
                    let observed_activity = activity.load(Ordering::SeqCst);
                    if unstarted.load(Ordering::SeqCst) == 0
                        && transport.pending_mailboxes() == 0
                        && busy.load(Ordering::SeqCst) == 0
                        && activity.load(Ordering::SeqCst) == observed_activity
                    {
                        break;
                    }
                    idle_rounds += 1;
                    if idle_rounds > 64 {
                        std::thread::sleep(Duration::from_micros(50));
                    } else {
                        std::thread::yield_now();
                    }
                }
                records.lock().extend(local);
            });
        }
    });

    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    if diverged.load(Ordering::SeqCst) {
        return Err(EngineError::DidNotConverge {
            max_supersteps: ctx.config.max_supersteps,
        });
    }

    // Bucket evaluations into logical supersteps by their assigned round:
    // the reported superstep count is the depth of an equivalent BSP
    // schedule of the same deliveries.  Messages consumed by an evaluation
    // in round `s` are attributed to the end of round `s - 1`, matching the
    // synchronous accounting; round-0 consumption only exists in the
    // incremental phase, where it is the injected seeds (accounted
    // separately as `seed_messages` by the caller).
    let records = records.into_inner();
    if records.is_empty() {
        // Incremental refresh with nothing to do: zero supersteps.
        metrics.peval_calls += peval_count.into_inner();
        metrics.inceval_calls += inceval_count.into_inner();
        return Ok(());
    }
    let depth = records.iter().map(|r| r.step).max().unwrap_or(0);
    let mut steps: Vec<SuperstepMetrics> = (0..=depth)
        .map(|s| SuperstepMetrics {
            superstep: s,
            ..Default::default()
        })
        .collect();
    // A fragment evaluated twice in one logical round (piecemeal arrival)
    // is still one active fragment of that round — count distinct
    // fragments, keeping `active_fragments ≤ m` as under BSP.
    let mut active_per_step: Vec<std::collections::HashSet<usize>> =
        vec![std::collections::HashSet::new(); depth + 1];
    for r in &records {
        active_per_step[r.step].insert(r.fragment);
        steps[r.step].duration += r.duration;
        metrics.eval_time += r.duration;
        if r.step > 0 {
            steps[r.step - 1].messages += r.consumed_messages;
            steps[r.step - 1].bytes += r.consumed_bytes;
        }
    }
    for (s, active) in active_per_step.iter().enumerate() {
        steps[s].active_fragments = active.len();
    }
    for s in steps {
        metrics.push_superstep(s);
    }
    metrics.peval_calls += peval_count.into_inner();
    metrics.inceval_calls += inceval_count.into_inner();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_balance::LoadBalancer;
    use crate::pie::Messages;
    use crate::session::GrapeSession;
    use grape_graph::builder::GraphBuilder;
    use grape_graph::types::VertexId;
    use grape_partition::edge_cut::{HashEdgeCut, RangeEdgeCut};
    use grape_partition::fragmentation_graph::BorderScope;
    use grape_partition::strategy::PartitionStrategy;
    use std::collections::HashMap;

    /// A miniature PIE program used to exercise the engine without the
    /// algorithms crate: every vertex computes the minimum global vertex id
    /// reachable *backwards* along edges (i.e. min id over ancestors within
    /// its weakly-followed component by forward propagation).  Propagating
    /// minima is monotonic, so the Assurance Theorem applies.
    struct MinPropagation;

    type MinPartial = HashMap<VertexId, u64>;

    impl MinPropagation {
        /// Local fixpoint: propagate minima along local out-edges.
        fn local_propagate(frag: &Fragment, values: &mut MinPartial) {
            let mut changed = true;
            while changed {
                changed = false;
                for l in frag.all_locals() {
                    let v = frag.global_of(l);
                    let mine = values[&v];
                    for n in frag.out_edges(l) {
                        let t = frag.global_of(n.target as u32);
                        if mine < values[&t] {
                            values.insert(t, mine);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    impl PieProgram for MinPropagation {
        type Query = ();
        type Partial = MinPartial;
        type Key = VertexId;
        type Value = u64;
        type Output = HashMap<VertexId, u64>;

        fn name(&self) -> &str {
            "min-propagation"
        }

        fn scope(&self) -> BorderScope {
            BorderScope::Out
        }

        fn peval(&self, _q: &(), frag: &Fragment, ctx: &mut Messages<VertexId, u64>) -> MinPartial {
            let mut values: MinPartial = frag
                .all_locals()
                .map(|l| (frag.global_of(l), frag.global_of(l)))
                .collect();
            Self::local_propagate(frag, &mut values);
            for &l in frag.out_border_locals() {
                let v = frag.global_of(l);
                ctx.send(v, values[&v]);
            }
            values
        }

        fn inc_eval(
            &self,
            _q: &(),
            frag: &Fragment,
            partial: &mut MinPartial,
            messages: &[(VertexId, u64)],
            ctx: &mut Messages<VertexId, u64>,
        ) {
            let mut touched = false;
            for (v, value) in messages {
                if *value < partial[v] {
                    partial.insert(*v, *value);
                    touched = true;
                }
            }
            if touched {
                let before: MinPartial = partial.clone();
                Self::local_propagate(frag, partial);
                for &l in frag.out_border_locals() {
                    let v = frag.global_of(l);
                    if partial[&v] < before[&v] {
                        ctx.send(v, partial[&v]);
                    }
                }
            }
        }

        fn assemble(&self, _q: &(), partials: Vec<MinPartial>) -> HashMap<VertexId, u64> {
            let mut out = HashMap::new();
            for p in partials {
                for (v, value) in p {
                    out.entry(v)
                        .and_modify(|x: &mut u64| *x = (*x).min(value))
                        .or_insert(value);
                }
            }
            out
        }

        fn aggregate(&self, _key: &VertexId, a: u64, b: u64) -> u64 {
            a.min(b)
        }
    }

    fn ring_graph(n: u64) -> grape_graph::graph::Graph {
        let mut b = GraphBuilder::directed();
        for v in 0..n {
            b.push_edge(grape_graph::types::Edge::unweighted(v, (v + 1) % n));
        }
        b.build()
    }

    #[test]
    fn min_propagation_reaches_global_fixpoint() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::with_workers(3);
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        // Every vertex of the ring should converge to the global minimum 0.
        assert!(result.output.values().all(|&v| v == 0));
        assert!(
            result.metrics.supersteps >= 2,
            "ring needs multiple supersteps"
        );
        assert!(result.metrics.total_messages > 0);
    }

    #[test]
    fn single_fragment_terminates_after_peval() {
        let g = ring_graph(8);
        let frag = HashEdgeCut::new(1).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        assert_eq!(result.metrics.supersteps, 1);
        assert_eq!(result.metrics.total_messages, 0);
        assert!(result.output.values().all(|&v| v == 0));
    }

    #[test]
    fn asynchronous_mode_matches_synchronous_output() {
        let g = ring_graph(16);
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let sync = GrapeSession::builder()
            .workers(4)
            .mode(EngineMode::Sync)
            .build()
            .unwrap()
            .run(&frag, &MinPropagation, &())
            .unwrap();
        let async_ = GrapeSession::builder()
            .workers(4)
            .mode(EngineMode::Async)
            .build()
            .unwrap()
            .run(&frag, &MinPropagation, &())
            .unwrap();
        assert_eq!(sync.output, async_.output);
        assert!(async_.metrics.supersteps <= sync.metrics.supersteps);
        assert_eq!(async_.metrics.transport, "channel");
        assert_eq!(sync.metrics.transport, "barrier");
    }

    #[test]
    fn worker_count_does_not_change_the_answer() {
        let g = ring_graph(20);
        let frag = HashEdgeCut::new(5).partition(&g).unwrap();
        let one = GrapeSession::with_workers(1)
            .run(&frag, &MinPropagation, &())
            .unwrap();
        let four = GrapeSession::with_workers(4)
            .run(&frag, &MinPropagation, &())
            .unwrap();
        assert_eq!(one.output, four.output);
    }

    #[test]
    fn failure_recovery_with_checkpoint_still_converges() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(3)
            .mode(EngineMode::Sync)
            .checkpoint_every(1)
            .inject_failure(2, 1)
            .build()
            .unwrap();
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        assert_eq!(result.metrics.recovered_failures, 1);
        assert!(result.metrics.checkpoints >= 1);
        assert!(result.output.values().all(|&v| v == 0));
    }

    #[test]
    fn failure_without_checkpoint_restarts_and_converges() {
        let g = ring_graph(9);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .inject_failure(1, 0)
            .build()
            .unwrap();
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        assert_eq!(result.metrics.recovered_failures, 1);
        assert!(result.output.values().all(|&v| v == 0));
    }

    /// A program without a process codec cannot cross worker pipes: the
    /// engine rejects `TransportSpec::Process` with a clear configuration
    /// error instead of spawning subprocesses it could not talk to.
    #[test]
    fn process_transport_requires_a_codec() {
        let g = ring_graph(8);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let err = GrapeSession::builder()
                .workers(2)
                .mode(mode)
                .transport(TransportSpec::Process { workers: 2 })
                .build()
                .unwrap()
                .run(&frag, &MinPropagation, &())
                .unwrap_err();
            match err {
                EngineError::InvalidConfig(msg) => {
                    assert!(msg.contains("process codec"), "{msg}")
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn superstep_limit_returns_error() {
        let g = ring_graph(32);
        let frag = RangeEdgeCut::new(8).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .max_supersteps(2)
            .build()
            .unwrap();
        let err = session.run(&frag, &MinPropagation, &()).unwrap_err();
        assert_eq!(err, EngineError::DidNotConverge { max_supersteps: 2 });
    }

    #[test]
    fn metrics_record_per_superstep_entries() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let result = GrapeSession::with_workers(2)
            .run(&frag, &MinPropagation, &())
            .unwrap();
        assert_eq!(
            result.metrics.per_superstep.len(),
            result.metrics.supersteps
        );
        assert_eq!(result.metrics.fragments, 4);
        assert!(result.metrics.seconds() >= 0.0);
        assert!(result.metrics.summary().contains("min-propagation"));
    }

    #[test]
    fn unchanged_values_are_not_reshipped() {
        // The delivered-cache must drop repeated identical values.  With the
        // ring, once a vertex's minimum stabilises no more messages flow.
        let g = ring_graph(10);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .build()
            .unwrap();
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        // Each border vertex can change at most a handful of times; far fewer
        // messages than vertices × supersteps.
        assert!(
            result.metrics.total_messages <= frag.num_border_vertices() * result.metrics.supersteps,
            "messages {} vs bound {}",
            result.metrics.total_messages,
            frag.num_border_vertices() * result.metrics.supersteps
        );
    }

    /// PEval/IncEval call accounting: a full run calls PEval exactly once
    /// per fragment, in both runtimes.
    #[test]
    fn full_runs_count_one_peval_per_fragment() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let result = GrapeSession::builder()
                .workers(2)
                .mode(mode)
                .build()
                .unwrap()
                .run(&frag, &MinPropagation, &())
                .unwrap();
            assert_eq!(result.metrics.peval_calls, 3, "{mode:?}");
            assert!(result.metrics.inceval_calls > 0, "{mode:?}");
            assert!(!result.metrics.incremental);
        }
    }

    /// A [`WorkerHost`] that perturbs the schedule: before every
    /// evaluation it yields or sleeps for a pseudo-random time drawn from
    /// `seed`, the fragment and the call count.
    struct Jittered<H> {
        inner: H,
        seed: u64,
        calls: AtomicUsize,
    }

    impl<H> Jittered<H> {
        fn jitter(&self, fi: usize) {
            let n = self.calls.fetch_add(1, Ordering::Relaxed) as u64;
            // splitmix64
            let mut z = self.seed ^ ((fi as u64) << 40) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            match z % 4 {
                0 => {}
                1 => std::thread::yield_now(),
                _ => std::thread::sleep(Duration::from_micros((z >> 8) % 400)),
            }
        }
    }

    impl<P: PieProgram, H: WorkerHost<P>> WorkerHost<P> for Jittered<H> {
        fn peval(&self, fi: usize) -> crate::host::EvalResult<P> {
            self.jitter(fi);
            self.inner.peval(fi)
        }
        fn inc_eval(
            &self,
            fi: usize,
            updates: &[(P::Key, P::Value)],
        ) -> crate::host::EvalResult<P> {
            self.jitter(fi);
            self.inner.inc_eval(fi, updates)
        }
        fn checkpoint_partials(&self) -> Result<Vec<Option<P::Partial>>, EngineError> {
            self.inner.checkpoint_partials()
        }
        fn restore_partials(&self, saved: &[Option<P::Partial>]) -> Result<(), EngineError> {
            self.inner.restore_partials(saved)
        }
        fn clear_partials(&self) -> Result<(), EngineError> {
            self.inner.clear_partials()
        }
        fn into_partials(self) -> Result<Vec<P::Partial>, EngineError> {
            self.inner.into_partials()
        }
    }

    /// A seeded random digraph: a ring (so every vertex is reachable) plus
    /// `extra` random chords.
    fn chorded_ring(n: u64, extra: usize, seed: u64) -> grape_graph::graph::Graph {
        let mut b = GraphBuilder::directed();
        for v in 0..n {
            b.push_edge(grape_graph::types::Edge::unweighted(v, (v + 1) % n));
        }
        let mut z = seed;
        for _ in 0..extra {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let from = (z >> 33) % n;
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let to = (z >> 33) % n;
            if from != to {
                b.push_edge(grape_graph::types::Edge::unweighted(from, to));
            }
        }
        b.build()
    }

    /// The barrier-free runtime's superstep metric never exceeds the BSP
    /// superstep count, whatever the schedule: seeded perturbations of the
    /// evaluation timing over several graph shapes, fragment and worker
    /// counts.  Every run must also reach the BSP answer.
    #[test]
    fn async_depth_never_exceeds_sync_under_schedule_perturbation() {
        let graphs = [
            ring_graph(48),
            chorded_ring(60, 20, 7),
            chorded_ring(90, 60, 11),
        ];
        let mut violations = Vec::new();
        for (gi, g) in graphs.iter().enumerate() {
            for num_fragments in [4usize, 8] {
                let frag = HashEdgeCut::new(num_fragments).partition(g).unwrap();
                let sync = GrapeSession::builder()
                    .workers(2)
                    .mode(EngineMode::Sync)
                    .build()
                    .unwrap()
                    .run(&frag, &MinPropagation, &())
                    .unwrap();
                let fragments = frag.fragments().to_vec();
                let peval = vec![true; num_fragments];
                let aggregate = |k: &VertexId, a: u64, b: u64| MinPropagation.aggregate(k, a, b);
                let size = |_: &u64| 8usize;
                let ops = MessageOps {
                    aggregate: &aggregate,
                    key_size: &size,
                    value_size: &size,
                };
                for workers in [2usize, 3] {
                    let config = EngineConfig::with_workers(workers).asynchronous();
                    let assignment = LoadBalancer::default().assign(&frag, workers);
                    let ctx = RunCtx {
                        config: &config,
                        num_fragments,
                        assignment: &assignment,
                        gp: frag.gp(),
                        scope: MinPropagation.scope(),
                        peval: &peval,
                    };
                    for seed in 0..24u64 {
                        let host = Jittered {
                            inner: InProcessHost::new(
                                &MinPropagation,
                                &(),
                                &fragments,
                                &aggregate,
                                None,
                            ),
                            seed: (seed << 8) | gi as u64,
                            calls: AtomicUsize::new(0),
                        };
                        let transport = ChannelTransport::new(num_fragments, ops);
                        let mut metrics = EngineMetrics::default();
                        let partials =
                            drive(&ctx, host, transport, Vec::new(), &mut metrics).unwrap();
                        assert_eq!(MinPropagation.assemble(&(), partials), sync.output);
                        if metrics.supersteps > sync.metrics.supersteps {
                            violations.push((gi, num_fragments, workers, seed, metrics.supersteps));
                        }
                    }
                }
            }
        }
        assert!(
            violations.is_empty(),
            "async depth above the sync depth (graph, fragments, workers, seed, depth): \
             {violations:?}"
        );
    }
}
