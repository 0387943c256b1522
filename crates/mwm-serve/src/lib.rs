//! Concurrent multi-session serving layer over [`DynamicMatcher`].
//!
//! The dynamic subsystem (PR 4) maintains *one* matching session from *one*
//! thread. A serving system multiplexes many independent sessions — one per
//! tenant, per marketplace, per shard of a social graph — under concurrent
//! client traffic. [`MatchingService`] is that front-end:
//!
//! ```text
//!   clients                service                     sessions
//!   ───────                ───────                     ────────
//!   submit(Request) ──▶ shard_of(session) ─▶ queue[0] ─▶ worker 0 ─▶ {"a", "d"}
//!        │                                   queue[1] ─▶ worker 1 ─▶ {"b"}
//!        ▼                                   queue[2] ─▶ worker 2 ─▶ {"c", "e"}
//!   Ticket::wait ◀────────── Response ◀──────────┘
//!   CommittedView::load ◀── snapshot slot (bypasses the queues entirely)
//! ```
//!
//! * **Session-affinity sharding.** Every request names a session; the
//!   session name hashes (FNV-1a) to one worker, whose bounded FIFO queue
//!   serializes all of that session's requests. Two batches for one session
//!   can therefore never race — per-session epoch order equals submission
//!   order, and a session's results are bit-identical to a serial replay —
//!   while different sessions proceed in parallel on different workers.
//! * **Bounded submission queues.** Each worker's queue holds at most
//!   `queue_capacity` pending requests: [`MatchingService::submit`] blocks
//!   for space (backpressure), [`MatchingService::try_submit`] returns
//!   [`ServeError::QueueFull`] instead.
//! * **Snapshot-consistent reads.** Queries through the queue are answered
//!   from the session's last committed epoch (and, being FIFO behind the
//!   session's own submits, give read-your-writes). Readers that must not
//!   wait behind submits take a [`CommittedView`] instead: an O(1) handle
//!   onto the last committed snapshot, published atomically only when an
//!   epoch fully commits — a mid-epoch or rolled-back state is never
//!   observable.
//! * **Admission control.** The service enforces one cumulative
//!   streamed-items pool across *all* sessions: admission **reserves** the
//!   pool's unreserved remainder for the epoch (a hard cap even under
//!   concurrency — two workers can never both spend the same remainder),
//!   the epoch runs under the [`ResourceBudget::intersect`] of the
//!   configured per-epoch policy budget and that grant, and settlement
//!   refunds the reservation and charges actual usage. A formally exhausted
//!   pool rejects batches with [`ServeError::AdmissionDenied`]. Failed
//!   epochs roll the *session* back (the dynamic layer's atomicity —
//!   resubmission never double-applies) but still charge the pool the
//!   batch's ingestion floor, so traffic that keeps overrunning a drained
//!   pool converges to formal exhaustion instead of spinning on rollbacks.
//!
//! * **Hibernation & recovery** (with [`ServiceConfig::store_dir`]). Sessions
//!   checkpoint to a [`mwm_persist::SessionStore`] at creation, journal every
//!   committed epoch batch, hibernate when idle or over the resident cap
//!   (LRU-first), and revive transparently on their next request — clients
//!   never see the difference except in [`SessionStats::revives`] and the
//!   latency ledger. [`MatchingService::recover`] restarts a crashed service
//!   from its store, replaying each session's journal tail; torn files are
//!   typed [`ServeError::Corrupt`], never panics.
//! * **Socket front door** ([`SocketServer`] / [`NetClient`] in [`net`]):
//!   a minimal Unix-domain (and TCP) server speaking the workspace's shared
//!   length-prefixed frame codec, mapping wire requests onto
//!   [`MatchingService::submit`] with typed wire errors.
//!
//! Determinism contract: with a fixed per-epoch `parallelism` and no pool
//! limit, a session's epoch history, matching and weight are bit-identical
//! for every service worker count and every interleaving with other
//! sessions — enforced by experiment E13's checksum column and
//! `tests/serve_stress.rs`. (A shared pool is inherently cross-session
//! state: *which* epoch trips a nearly-drained pool depends on arrival
//! order, though every individual epoch stays atomic either way.)
//! Hibernation preserves the contract: a hibernated-and-revived session's
//! subsequent epochs are bit-identical to an always-resident replica —
//! enforced by experiment E15's checksum column and `tests/persistence.rs`.

use mwm_core::{MwmError, ResourceBudget};
use mwm_dynamic::{
    CommittedSnapshot, CommittedView, DynamicConfig, DynamicMatcher, EpochDecision, EpochStats,
};
use mwm_graph::{Graph, GraphUpdate};
use mwm_persist::{PersistError, SessionStore, WalRecord};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod net;
pub use net::{NetClient, RemoteMatching, SocketServer};

/// Configuration of a [`MatchingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool; sessions are sharded across them by name.
    pub workers: usize,
    /// Pending-request capacity of each worker's submission queue.
    pub queue_capacity: usize,
    /// Pass-engine threads each epoch runs with. Part of the determinism
    /// fingerprint only in wall-clock terms — results are bit-identical for
    /// every value — but kept explicit so deployments pin it.
    pub parallelism: usize,
    /// Cumulative streamed-items pool shared by every session of the service;
    /// `None` is unlimited. Enforced through each epoch's [`ResourceBudget`],
    /// so an epoch that would overrun is interrupted and rolled back by the
    /// dynamic layer, and an exhausted pool rejects batches at admission.
    pub max_streamed_items: Option<usize>,
    /// Policy budget applied to every epoch (rounds/space/oracle limits);
    /// intersected with the pool-derived budget per submit.
    pub epoch_budget: ResourceBudget,
    /// Session configuration used when `CreateSession` carries none.
    pub session_defaults: DynamicConfig,
    /// Hibernation store directory. `Some` turns persistence on: sessions
    /// are checkpointed on create, journaled per committed epoch, evicted to
    /// disk under the resident cap / idle deadline, and transparently revived
    /// on their next request. Required by [`MatchingService::recover`].
    pub store_dir: Option<PathBuf>,
    /// Service-wide cap on resident (in-memory) sessions; the overflow is
    /// hibernated LRU-first. Enforced per worker as `ceil(cap / workers)`
    /// (sessions are pinned to workers by name). Requires `store_dir`.
    pub max_resident_sessions: Option<usize>,
    /// Sessions idle longer than this are hibernated at the next sweep
    /// (sweeps piggyback on request processing). Requires `store_dir`.
    pub hibernate_after: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            parallelism: 1,
            max_streamed_items: None,
            epoch_budget: ResourceBudget::unlimited(),
            session_defaults: DynamicConfig::default(),
            store_dir: None,
            max_resident_sessions: None,
            hibernate_after: None,
        }
    }
}

impl ServiceConfig {
    /// Validates every parameter, returning the first violation.
    pub fn validate(&self) -> Result<(), MwmError> {
        if self.workers < 1 {
            return Err(MwmError::InvalidConfig {
                param: "workers",
                value: format!("{}", self.workers),
                requirement: "must be at least 1",
            });
        }
        if self.queue_capacity < 1 {
            return Err(MwmError::InvalidConfig {
                param: "queue_capacity",
                value: format!("{}", self.queue_capacity),
                requirement: "must be at least 1",
            });
        }
        if self.max_resident_sessions == Some(0) {
            return Err(MwmError::InvalidConfig {
                param: "max_resident_sessions",
                value: "0".to_string(),
                requirement: "must be at least 1 when set",
            });
        }
        if self.store_dir.is_none()
            && (self.max_resident_sessions.is_some() || self.hibernate_after.is_some())
        {
            return Err(MwmError::InvalidConfig {
                param: "store_dir",
                value: "None".to_string(),
                requirement: "resident caps and idle hibernation need a session store",
            });
        }
        self.session_defaults.validate()
    }
}

/// One operation on the service. Every request names the session it targets;
/// the name decides the worker shard, so all requests for one session are
/// processed in submission order.
#[derive(Clone, Debug)]
pub enum Request {
    /// Registers a new session over `base`. `config` falls back to
    /// [`ServiceConfig::session_defaults`].
    CreateSession {
        /// Session name (the sharding and routing key).
        session: String,
        /// The base graph the session starts from.
        base: Graph,
        /// Per-session configuration override.
        config: Option<DynamicConfig>,
    },
    /// Tears a session down, releasing its state.
    DropSession {
        /// The session to drop.
        session: String,
    },
    /// Applies one epoch of updates to a session (an empty batch bootstraps).
    SubmitBatch {
        /// The target session.
        session: String,
        /// The update batch, applied as one atomic epoch.
        updates: Vec<GraphUpdate>,
    },
    /// Reads the session's last committed matching snapshot.
    QueryMatching {
        /// The target session.
        session: String,
    },
    /// Reads the session's committed weight (cheaper than the full matching).
    QueryWeight {
        /// The target session.
        session: String,
    },
    /// Reads a summary of the session's ledger and resource consumption.
    SnapshotStats {
        /// The target session.
        session: String,
    },
    /// Compacts the session's overlay journal (see
    /// [`DynamicMatcher::compact`]); stable edge ids are renumbered.
    CompactSession {
        /// The target session.
        session: String,
    },
}

impl Request {
    /// The session a request targets (its sharding key).
    pub fn session(&self) -> &str {
        match self {
            Request::CreateSession { session, .. }
            | Request::DropSession { session }
            | Request::SubmitBatch { session, .. }
            | Request::QueryMatching { session }
            | Request::QueryWeight { session }
            | Request::SnapshotStats { session }
            | Request::CompactSession { session } => session,
        }
    }
}

/// A summary of one session's state and history.
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// Session name.
    pub session: String,
    /// Committed epochs.
    pub epochs: usize,
    /// Overlay version.
    pub version: u64,
    /// Weight of the maintained matching.
    pub weight: f64,
    /// Distinct edges in the maintained matching.
    pub matching_edges: usize,
    /// Live edges in the session's overlay.
    pub live_edges: usize,
    /// Live vertices in the session's overlay.
    pub live_vertices: usize,
    /// Items this session has streamed (its draw on the service pool).
    pub items_streamed: usize,
    /// Epochs handled by localized repair.
    pub repairs: usize,
    /// Epochs handled by warm re-solve.
    pub warm_resolves: usize,
    /// Epochs handled by full rebuild.
    pub rebuilds: usize,
    /// Times this session was revived from its hibernation image since the
    /// service started (0 when persistence is off).
    pub revives: usize,
    /// Fingerprint of the session's last committed `mwm_lp::DualSnapshot`
    /// (0 if no duals are committed yet). Bit-sensitive: equal checksums on
    /// two replicas mean bit-identical dual state — the hibernate→revive
    /// identity check of experiment E15 rides on this field.
    pub duals_checksum: u64,
}

/// A successful answer to a [`Request`] (same order of variants).
#[derive(Clone, Debug)]
pub enum Response {
    /// The session was created.
    Created,
    /// The session was dropped after this many committed epochs.
    Dropped {
        /// Epochs the session had committed.
        epochs: usize,
    },
    /// The batch committed as one epoch; its ledger row.
    EpochApplied {
        /// The committed epoch's ledger row.
        stats: EpochStats,
    },
    /// The last committed snapshot (shared, immutable).
    Matching {
        /// The committed snapshot.
        snapshot: Arc<CommittedSnapshot>,
    },
    /// The committed weight plus its epoch/version coordinates.
    Weight {
        /// Committed epochs.
        epoch: usize,
        /// Overlay version.
        version: u64,
        /// Committed matching weight.
        weight: f64,
    },
    /// The session summary.
    Stats {
        /// The summary.
        stats: SessionStats,
    },
    /// The journal was compacted; this many dead edge ids were reclaimed.
    Compacted {
        /// Tombstoned edges reclaimed by the compaction.
        reclaimed: usize,
    },
}

/// Every failure mode of the serving layer.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// No session is registered under the requested name.
    UnknownSession {
        /// The name that failed to resolve.
        session: String,
    },
    /// `CreateSession` named an existing session.
    SessionExists {
        /// The already-taken name.
        session: String,
    },
    /// `try_submit` found the target worker's queue full.
    QueueFull {
        /// The configured per-worker capacity.
        capacity: usize,
    },
    /// The service is shut down (or shut down with this request pending).
    ServiceClosed,
    /// The service-wide streamed-items pool is exhausted.
    AdmissionDenied {
        /// Items the service has streamed across all sessions.
        used: usize,
        /// The configured pool size.
        limit: usize,
    },
    /// The engine rejected the operation (epoch errors, invalid configs, …).
    /// Budget interrupts roll the epoch back, so the batch can be resubmitted.
    Engine(MwmError),
    /// A worker answered with an unexpected response variant — a bug in the
    /// service, surfaced as an error instead of a client-side panic.
    Protocol {
        /// The variant the wrapper expected.
        expected: &'static str,
    },
    /// A session's on-disk image, journal or manifest failed validation
    /// (torn write, flipped bits, version skew). Never a panic: the request
    /// fails, the rest of the service keeps serving.
    Corrupt {
        /// What failed validation and where.
        context: String,
    },
    /// A persistence I/O operation failed (disk full, permissions, …).
    Persist {
        /// What was being done and the OS error text.
        context: String,
    },
    /// A socket request did not complete within the server's per-request
    /// deadline. The request itself may still commit — timeouts bound the
    /// *wait*, not the work.
    Timeout {
        /// The deadline that expired, in milliseconds.
        after_ms: u64,
    },
    /// A socket transport failure (connection reset, short write, …).
    Wire {
        /// What the transport was doing when it failed.
        context: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession { session } => write!(f, "unknown session {session:?}"),
            ServeError::SessionExists { session } => {
                write!(f, "session {session:?} already exists")
            }
            ServeError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            ServeError::ServiceClosed => write!(f, "service is shut down"),
            ServeError::AdmissionDenied { used, limit } => {
                write!(f, "admission denied: service pool exhausted ({used} of {limit} items)")
            }
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Protocol { expected } => {
                write!(f, "protocol violation: expected a {expected} response")
            }
            ServeError::Corrupt { context } => {
                write!(f, "corrupt session store data: {context}")
            }
            ServeError::Persist { context } => write!(f, "persistence failure: {context}"),
            ServeError::Timeout { after_ms } => {
                write!(f, "request timed out after {after_ms} ms")
            }
            ServeError::Wire { context } => write!(f, "wire transport failure: {context}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<MwmError> for ServeError {
    fn from(e: MwmError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Corrupt { context } => ServeError::Corrupt { context },
            PersistError::Io { context } => ServeError::Persist { context },
        }
    }
}

/// One-shot result slot shared between a [`Ticket`] and its worker-side
/// completer.
struct TicketSlot {
    state: Mutex<Option<Result<Response, ServeError>>>,
    ready: Condvar,
}

/// The client's handle on an in-flight request.
pub struct Ticket {
    slot: Arc<TicketSlot>,
}

impl Ticket {
    fn new() -> (Ticket, Completer) {
        let slot = Arc::new(TicketSlot { state: Mutex::new(None), ready: Condvar::new() });
        (Ticket { slot: Arc::clone(&slot) }, Completer { slot, done: false })
    }

    /// Blocks until the worker answers. Requests still queued when the
    /// service shuts down resolve to [`ServeError::ServiceClosed`], so this
    /// never deadlocks.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut state = self.slot.state.lock().expect("ticket lock poisoned");
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.slot.ready.wait(state).expect("ticket lock poisoned");
        }
    }

    /// True once the worker has answered (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.slot.state.lock().expect("ticket lock poisoned").is_some()
    }

    /// [`Ticket::wait`] with a deadline. `Ok(result)` if the worker answered
    /// in time; `Err(self)` hands the still-live ticket back so the caller
    /// can keep waiting, poll, or drop it (the request itself is unaffected —
    /// a timed-out batch may still commit; the deadline bounds the *wait*).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Response, ServeError>, Ticket> {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().expect("ticket lock poisoned");
        loop {
            if let Some(result) = state.take() {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                return Err(self);
            }
            let (guard, _) =
                self.slot.ready.wait_timeout(state, deadline - now).expect("ticket lock poisoned");
            state = guard;
        }
    }
}

/// Worker-side half of a ticket. Dropping it unanswered (worker panic,
/// shutdown drain) resolves the ticket to [`ServeError::ServiceClosed`]
/// instead of leaving the client blocked forever.
struct Completer {
    slot: Arc<TicketSlot>,
    done: bool,
}

impl Completer {
    fn complete(mut self, result: Result<Response, ServeError>) {
        self.fill(result);
    }

    fn fill(&mut self, result: Result<Response, ServeError>) {
        let mut state = self.slot.state.lock().expect("ticket lock poisoned");
        if state.is_none() {
            *state = Some(result);
        }
        self.done = true;
        self.slot.ready.notify_all();
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if !self.done {
            self.fill(Err(ServeError::ServiceClosed));
        }
    }
}

/// A queued request together with its answer slot.
struct Job {
    request: Request,
    completer: Completer,
}

/// One worker's bounded FIFO submission queue.
struct Shard {
    queue: Mutex<ShardQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    /// `serve_queue_depth{worker=i}` — set after every push and pop, so a
    /// live scrape sees each worker's backlog.
    depth_gauge: Arc<mwm_obs::Gauge>,
}

struct ShardQueue {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Shard {
    fn new(index: usize) -> Self {
        Shard {
            queue: Mutex::new(ShardQueue { jobs: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth_gauge: mwm_obs::global()
                .gauge_with("serve_queue_depth", &[("worker", &index.to_string())]),
        }
    }
}

/// FNV-1a of the session name: the sharding key. Stable across runs and
/// platforms, so a deployment's session→worker placement is reproducible.
fn shard_of(session: &str, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in session.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % workers as u64) as usize
}

/// The service-wide streamed-items pool, with **reservation** accounting so
/// concurrent epochs on different workers can never jointly overrun the
/// limit: admission grants an epoch the currently *unreserved* remainder
/// (under the lock), the epoch runs against that grant, and settlement
/// refunds the reservation and charges the actual usage. An epoch admitted
/// while another holds the whole remainder gets a zero grant and fails as a
/// retryable budget interrupt; [`ServeError::AdmissionDenied`] is reserved
/// for formal exhaustion (`used >= limit`). The only overrun possible is the
/// pass engine's batch-granularity overshoot of a single grant — bounded by
/// the engine batch size, independent of worker count.
struct Pool {
    limit: usize,
    state: Mutex<PoolState>,
}

#[derive(Default)]
struct PoolState {
    used: usize,
    reserved: usize,
}

impl Pool {
    /// Admission: either the pool is formally exhausted, or the epoch is
    /// granted the unreserved remainder (possibly 0 under contention).
    fn reserve(&self) -> Result<usize, ServeError> {
        let mut st = self.state.lock().expect("pool lock poisoned");
        if st.used >= self.limit {
            mwm_obs::counter!("serve_admission_denied_total").inc();
            return Err(ServeError::AdmissionDenied { used: st.used, limit: self.limit });
        }
        let grant = self.limit - st.used - st.reserved.min(self.limit - st.used);
        st.reserved += grant;
        mwm_obs::counter!("serve_pool_reservations_total").inc();
        Ok(grant)
    }

    /// Settlement: refund the grant, charge what the epoch actually used —
    /// or, for a failed epoch, at least the batch's ingestion floor (capped
    /// by the grant, so pure-contention failures charge nothing) so traffic
    /// that keeps overrunning converges to formal exhaustion.
    fn settle(&self, grant: usize, consumed: usize, failed_floor: Option<usize>) {
        let mut st = self.state.lock().expect("pool lock poisoned");
        st.reserved -= grant;
        let charge = match failed_floor {
            Some(floor) => consumed.max(floor.min(grant)),
            None => consumed,
        };
        st.used += charge;
        mwm_obs::counter!("serve_pool_refunds_total").inc();
        mwm_obs::gauge!("serve_pool_used").set(st.used as i64);
    }

    fn used(&self) -> usize {
        self.state.lock().expect("pool lock poisoned").used
    }
}

/// Shared hibernation state: the session store (one lock for manifest and
/// file operations) plus the revive-latency ledger and the eviction policy.
struct PersistCtx {
    store: Mutex<SessionStore>,
    /// Wall-clock milliseconds of every revive, in completion order.
    revive_ms: Mutex<Vec<f64>>,
    /// Per-worker resident cap (`ceil(max_resident_sessions / workers)`).
    per_worker_cap: Option<usize>,
    hibernate_after: Option<Duration>,
}

/// Everything a worker thread needs besides its own queue and session map.
#[derive(Clone)]
struct WorkerCtx {
    views: Arc<Mutex<HashMap<String, CommittedView>>>,
    pool: Option<Arc<Pool>>,
    served: Arc<AtomicUsize>,
    epoch_budget: ResourceBudget,
    parallelism: usize,
    session_defaults: DynamicConfig,
    persist: Option<Arc<PersistCtx>>,
}

/// One worker's session table: the resident (in-memory) sessions plus the
/// per-session revive counters (which outlive hibernation).
#[derive(Default)]
struct WorkerSessions {
    resident: HashMap<String, Resident>,
    revives: HashMap<String, usize>,
}

/// A resident session with its LRU clock.
struct Resident {
    dm: DynamicMatcher,
    last_used: Instant,
}

/// The serving front-end: a fixed worker pool multiplexing many named
/// [`DynamicMatcher`] sessions behind bounded, session-sharded queues.
/// See the crate docs for the full architecture.
pub struct MatchingService {
    shards: Arc<Vec<Shard>>,
    handles: Vec<JoinHandle<()>>,
    views: Arc<Mutex<HashMap<String, CommittedView>>>,
    pool: Option<Arc<Pool>>,
    persist: Option<Arc<PersistCtx>>,
    submitted: AtomicUsize,
    served: Arc<AtomicUsize>,
    queue_capacity: usize,
}

impl MatchingService {
    /// Starts the worker pool (validated config). With
    /// [`ServiceConfig::store_dir`] set, the store is opened (its manifest
    /// validated) before any worker spawns; sessions already on disk are
    /// revived lazily on their first request — use
    /// [`MatchingService::recover`] to touch them all eagerly.
    pub fn start(config: ServiceConfig) -> Result<Self, MwmError> {
        config.validate()?;
        let persist = match &config.store_dir {
            None => None,
            Some(dir) => {
                let store = SessionStore::open(dir.clone()).map_err(|e| {
                    MwmError::InvalidInput { reason: format!("opening session store: {e}") }
                })?;
                let per_worker_cap =
                    config.max_resident_sessions.map(|cap| cap.div_ceil(config.workers));
                Some(Arc::new(PersistCtx {
                    store: Mutex::new(store),
                    revive_ms: Mutex::new(Vec::new()),
                    per_worker_cap,
                    hibernate_after: config.hibernate_after,
                }))
            }
        };
        let shards: Arc<Vec<Shard>> = Arc::new((0..config.workers).map(Shard::new).collect());
        let views = Arc::new(Mutex::new(HashMap::new()));
        let pool = config
            .max_streamed_items
            .map(|limit| Arc::new(Pool { limit, state: Mutex::new(PoolState::default()) }));
        let served = Arc::new(AtomicUsize::new(0));
        let ctx = WorkerCtx {
            views: Arc::clone(&views),
            pool: pool.clone(),
            served: Arc::clone(&served),
            epoch_budget: config.epoch_budget,
            parallelism: config.parallelism.max(1),
            session_defaults: config.session_defaults,
            persist: persist.clone(),
        };
        let mut handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let shards = Arc::clone(&shards);
            let ctx = ctx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mwm-serve-worker-{i}"))
                .spawn(move || worker_loop(&shards[i], &ctx))
                .expect("failed to spawn service worker thread");
            handles.push(handle);
        }
        Ok(MatchingService {
            shards,
            handles,
            views,
            pool,
            persist,
            submitted: AtomicUsize::new(0),
            served,
            queue_capacity: config.queue_capacity,
        })
    }

    /// Crash recovery: starts the service on an existing store and eagerly
    /// touches every stored session, so each image+journal pair is revived
    /// (journal tail replayed), re-registered for [`MatchingService::view`] /
    /// [`MatchingService::sessions`], and re-hibernated under the configured
    /// eviction policy. A session whose files fail validation surfaces as
    /// [`ServeError::Corrupt`] here instead of at first client contact.
    pub fn recover(config: ServiceConfig) -> Result<Self, ServeError> {
        if config.store_dir.is_none() {
            return Err(ServeError::Engine(MwmError::InvalidConfig {
                param: "store_dir",
                value: "None".to_string(),
                requirement: "recover() needs a session store directory",
            }));
        }
        let service = MatchingService::start(config)?;
        for name in service.stored_sessions() {
            service.submit(Request::QueryWeight { session: name })?.wait()?;
        }
        Ok(service)
    }

    /// Enqueues a request on its session's worker, blocking while the queue
    /// is full (backpressure). Returns the ticket to wait on.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        self.submit_inner(request, true)
    }

    /// Non-blocking [`MatchingService::submit`]: a full queue is
    /// [`ServeError::QueueFull`] instead of a wait.
    pub fn try_submit(&self, request: Request) -> Result<Ticket, ServeError> {
        self.submit_inner(request, false)
    }

    fn submit_inner(&self, request: Request, block: bool) -> Result<Ticket, ServeError> {
        let shard = &self.shards[shard_of(request.session(), self.shards.len())];
        let (ticket, completer) = Ticket::new();
        let mut q = shard.queue.lock().expect("submission queue lock poisoned");
        loop {
            if q.closed {
                return Err(ServeError::ServiceClosed);
            }
            if q.jobs.len() < self.queue_capacity {
                break;
            }
            if !block {
                return Err(ServeError::QueueFull { capacity: self.queue_capacity });
            }
            q = shard.not_full.wait(q).expect("submission queue lock poisoned");
        }
        q.jobs.push_back(Job { request, completer });
        shard.depth_gauge.set(q.jobs.len() as i64);
        drop(q);
        shard.not_empty.notify_one();
        self.submitted.fetch_add(1, Ordering::Relaxed);
        mwm_obs::counter!("serve_requests_total").inc();
        Ok(ticket)
    }

    /// A queue-bypassing committed-state handle for the session, or `None`
    /// if no such session exists. Loads never wait behind in-flight epochs
    /// and always observe a complete committed epoch; the handle stays
    /// readable (frozen at the last committed state) after the session is
    /// dropped or the service shuts down.
    pub fn view(&self, session: &str) -> Option<CommittedView> {
        self.views.lock().expect("view registry lock poisoned").get(session).cloned()
    }

    /// The registered session names, sorted.
    pub fn sessions(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.views.lock().expect("view registry lock poisoned").keys().cloned().collect();
        names.sort();
        names
    }

    /// Items streamed across all sessions (the pool's fill level).
    pub fn pool_used(&self) -> usize {
        self.pool.as_ref().map(|p| p.used()).unwrap_or(0)
    }

    /// Names of all sessions in the hibernation store (sorted); empty when
    /// persistence is off. A stored session may or may not also be resident.
    pub fn stored_sessions(&self) -> Vec<String> {
        match &self.persist {
            Some(p) => p.store.lock().expect("store lock poisoned").names(),
            None => Vec::new(),
        }
    }

    /// Wall-clock milliseconds of every revive so far, in completion order —
    /// the raw samples behind experiment E15's p50/p99 columns.
    pub fn revive_latencies_ms(&self) -> Vec<f64> {
        match &self.persist {
            Some(p) => p.revive_ms.lock().expect("latency ledger poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Total revives performed by the service so far.
    pub fn revives(&self) -> usize {
        match &self.persist {
            Some(p) => p.revive_ms.lock().expect("latency ledger poisoned").len(),
            None => 0,
        }
    }

    /// The configured pool size, if any.
    pub fn pool_limit(&self) -> Option<usize> {
        self.pool.as_ref().map(|p| p.limit)
    }

    /// Requests accepted so far (including ones still queued).
    pub fn requests_submitted(&self) -> usize {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests fully processed so far.
    pub fn requests_served(&self) -> usize {
        self.served.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    // ---- typed convenience wrappers (submit + wait) ----

    /// Creates a session with the service's default configuration.
    pub fn create_session(&self, session: &str, base: &Graph) -> Result<(), ServeError> {
        self.create_session_with(session, base, None)
    }

    /// Creates a session with an explicit configuration override.
    pub fn create_session_with(
        &self,
        session: &str,
        base: &Graph,
        config: Option<DynamicConfig>,
    ) -> Result<(), ServeError> {
        let request =
            Request::CreateSession { session: session.to_string(), base: base.clone(), config };
        match self.submit(request)?.wait()? {
            Response::Created => Ok(()),
            _ => Err(ServeError::Protocol { expected: "Created" }),
        }
    }

    /// Drops a session; returns how many epochs it had committed.
    pub fn drop_session(&self, session: &str) -> Result<usize, ServeError> {
        match self.submit(Request::DropSession { session: session.to_string() })?.wait()? {
            Response::Dropped { epochs } => Ok(epochs),
            _ => Err(ServeError::Protocol { expected: "Dropped" }),
        }
    }

    /// Applies one epoch of updates (an empty batch bootstraps the session)
    /// and returns the committed epoch's ledger row.
    pub fn submit_batch(
        &self,
        session: &str,
        updates: Vec<GraphUpdate>,
    ) -> Result<EpochStats, ServeError> {
        let request = Request::SubmitBatch { session: session.to_string(), updates };
        match self.submit(request)?.wait()? {
            Response::EpochApplied { stats } => Ok(stats),
            _ => Err(ServeError::Protocol { expected: "EpochApplied" }),
        }
    }

    /// The session's last committed snapshot, read through the queue (FIFO
    /// after the session's own submits — read-your-writes).
    pub fn matching(&self, session: &str) -> Result<Arc<CommittedSnapshot>, ServeError> {
        match self.submit(Request::QueryMatching { session: session.to_string() })?.wait()? {
            Response::Matching { snapshot } => Ok(snapshot),
            _ => Err(ServeError::Protocol { expected: "Matching" }),
        }
    }

    /// The session's committed weight with its epoch/version coordinates.
    pub fn weight(&self, session: &str) -> Result<(usize, u64, f64), ServeError> {
        match self.submit(Request::QueryWeight { session: session.to_string() })?.wait()? {
            Response::Weight { epoch, version, weight } => Ok((epoch, version, weight)),
            _ => Err(ServeError::Protocol { expected: "Weight" }),
        }
    }

    /// The session's summary statistics.
    pub fn session_stats(&self, session: &str) -> Result<SessionStats, ServeError> {
        match self.submit(Request::SnapshotStats { session: session.to_string() })?.wait()? {
            Response::Stats { stats } => Ok(stats),
            _ => Err(ServeError::Protocol { expected: "Stats" }),
        }
    }

    /// Compacts the session's journal; returns the reclaimed edge count.
    pub fn compact_session(&self, session: &str) -> Result<usize, ServeError> {
        match self.submit(Request::CompactSession { session: session.to_string() })?.wait()? {
            Response::Compacted { reclaimed } => Ok(reclaimed),
            _ => Err(ServeError::Protocol { expected: "Compacted" }),
        }
    }

    /// Closes every queue and joins the workers. Requests already queued are
    /// drained and answered first; later submissions fail with
    /// [`ServeError::ServiceClosed`]. [`CommittedView`] handles obtained
    /// earlier keep serving the last committed state.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        for shard in self.shards.iter() {
            let mut q = shard.queue.lock().expect("submission queue lock poisoned");
            q.closed = true;
            drop(q);
            shard.not_empty.notify_all();
            shard.not_full.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MatchingService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// On-demand publication of the service's levels (event-time counters like
/// `serve_requests_total` record themselves as requests flow).
impl mwm_obs::Observable for MatchingService {
    fn obs_scope(&self) -> &'static str {
        "serve"
    }

    fn publish_metrics(&self, registry: &mwm_obs::Registry) {
        registry.gauge("serve_sessions").set(self.sessions().len() as i64);
        registry.gauge("serve_pool_used").set(self.pool_used() as i64);
        registry.gauge("serve_requests_submitted").set(self.requests_submitted() as i64);
        registry.gauge("serve_requests_served").set(self.requests_served() as i64);
    }
}

/// One worker: drains its shard's queue in FIFO order, owning every session
/// hashed to it (no locks around session state — a session is touched by
/// exactly one thread for its whole life, resident or hibernated). With
/// persistence on, every request is followed by an eviction sweep, so idle
/// and over-cap sessions drain to disk as long as any traffic flows.
fn worker_loop(shard: &Shard, ctx: &WorkerCtx) {
    let mut sessions = WorkerSessions::default();
    loop {
        let job = {
            let mut q = shard.queue.lock().expect("submission queue lock poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    shard.depth_gauge.set(q.jobs.len() as i64);
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = shard.not_empty.wait(q).expect("submission queue lock poisoned");
            }
        };
        let Some(job) = job else { break };
        shard.not_full.notify_one();
        let result = handle_request(job.request, &mut sessions, ctx);
        job.completer.complete(result);
        evict_sweep(&mut sessions, ctx);
        ctx.served.fetch_add(1, Ordering::Relaxed);
    }
    // Shutdown: checkpoint every still-resident session so the store is a
    // complete image set (journals cleared) for the next start or recover.
    if let Some(persist) = &ctx.persist {
        let mut store = persist.store.lock().expect("store lock poisoned");
        for (name, res) in &sessions.resident {
            store.save(name, &res.dm).ok();
        }
    }
}

/// Resolves `name` to its resident session, transparently reviving it from
/// the store (image + journal-tail replay) when persistence is on. Records
/// the revive latency and bumps the session's revive counter. The revived
/// session's fresh [`CommittedView`] replaces the registry entry, so new
/// `view()` handles track post-revive commits (handles obtained before the
/// hibernation stay frozen at their last committed state).
fn resolve<'a>(
    name: &str,
    sessions: &'a mut WorkerSessions,
    ctx: &WorkerCtx,
) -> Result<&'a mut DynamicMatcher, ServeError> {
    if !sessions.resident.contains_key(name) {
        let Some(persist) = &ctx.persist else {
            return Err(ServeError::UnknownSession { session: name.to_string() });
        };
        let clock = Instant::now();
        let (dm, _replayed) = {
            let store = persist.store.lock().expect("store lock poisoned");
            if !store.contains(name) {
                return Err(ServeError::UnknownSession { session: name.to_string() });
            }
            store.load(name)?
        };
        let elapsed = clock.elapsed();
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        persist.revive_ms.lock().expect("latency ledger poisoned").push(elapsed_ms);
        mwm_obs::counter!("serve_revives_total").inc();
        mwm_obs::histogram!("serve_revive_seconds", &mwm_obs::LATENCY_SECONDS_BOUNDS)
            .observe_duration(elapsed);
        *sessions.revives.entry(name.to_string()).or_insert(0) += 1;
        ctx.views
            .lock()
            .expect("view registry lock poisoned")
            .insert(name.to_string(), dm.committed_view());
        sessions.resident.insert(name.to_string(), Resident { dm, last_used: Instant::now() });
    }
    let res = sessions.resident.get_mut(name).expect("resident after revive");
    res.last_used = Instant::now();
    Ok(&mut res.dm)
}

/// Hibernates one resident session (checkpoint image, journal cleared). On a
/// store failure the session simply stays resident — holding memory beats
/// losing state, and the next sweep retries.
fn hibernate_one(name: &str, sessions: &mut WorkerSessions, persist: &PersistCtx) -> bool {
    let Some(res) = sessions.resident.get(name) else { return false };
    let clock = Instant::now();
    let saved = persist.store.lock().expect("store lock poisoned").save(name, &res.dm);
    match saved {
        Ok(()) => {
            mwm_obs::counter!("serve_hibernates_total").inc();
            mwm_obs::histogram!("serve_hibernate_seconds", &mwm_obs::LATENCY_SECONDS_BOUNDS)
                .observe_duration(clock.elapsed());
            sessions.resident.remove(name);
            true
        }
        Err(_) => false,
    }
}

/// The post-request eviction sweep: first every session idle past
/// `hibernate_after`, then LRU-first down to the per-worker resident cap.
/// The view registry keeps hibernated sessions' entries, so
/// [`MatchingService::sessions`] and existing view handles stay intact.
fn evict_sweep(sessions: &mut WorkerSessions, ctx: &WorkerCtx) {
    let Some(persist) = &ctx.persist else { return };
    if let Some(idle) = persist.hibernate_after {
        let expired: Vec<String> = sessions
            .resident
            .iter()
            .filter(|(_, r)| r.last_used.elapsed() >= idle)
            .map(|(n, _)| n.clone())
            .collect();
        for name in expired {
            hibernate_one(&name, sessions, persist);
        }
    }
    if let Some(cap) = persist.per_worker_cap {
        while sessions.resident.len() > cap {
            let lru = sessions
                .resident
                .iter()
                .min_by_key(|(_, r)| r.last_used)
                .map(|(n, _)| n.clone())
                .expect("resident map non-empty above its cap");
            if !hibernate_one(&lru, sessions, persist) {
                break;
            }
        }
    }
}

fn handle_request(
    request: Request,
    sessions: &mut WorkerSessions,
    ctx: &WorkerCtx,
) -> Result<Response, ServeError> {
    match request {
        Request::CreateSession { session, base, config } => {
            let stored = match &ctx.persist {
                Some(p) => p.store.lock().expect("store lock poisoned").contains(&session),
                None => false,
            };
            if sessions.resident.contains_key(&session) || stored {
                return Err(ServeError::SessionExists { session });
            }
            let dm = DynamicMatcher::new(&base, config.unwrap_or(ctx.session_defaults))?;
            if let Some(persist) = &ctx.persist {
                // Checkpoint at birth: a crash after Created is acknowledged
                // must still find the session on recovery.
                persist.store.lock().expect("store lock poisoned").save(&session, &dm)?;
            }
            ctx.views
                .lock()
                .expect("view registry lock poisoned")
                .insert(session.clone(), dm.committed_view());
            sessions.resident.insert(session, Resident { dm, last_used: Instant::now() });
            Ok(Response::Created)
        }
        Request::DropSession { session } => {
            // Revive-then-drop: the response reports the epoch count, which
            // only the revived session knows.
            let epochs = resolve(&session, sessions, ctx)?.epochs();
            sessions.resident.remove(&session);
            sessions.revives.remove(&session);
            if let Some(persist) = &ctx.persist {
                persist.store.lock().expect("store lock poisoned").remove(&session)?;
            }
            ctx.views.lock().expect("view registry lock poisoned").remove(&session);
            Ok(Response::Dropped { epochs })
        }
        Request::SubmitBatch { session, updates } => {
            let dm = resolve(&session, sessions, ctx)?;
            // Admission control: the epoch runs under the intersection of the
            // service's per-epoch policy budget and its reserved slice of the
            // pool (rebased onto this session's cumulative counter, which is
            // how the dynamic layer enforces streamed-items limits). The
            // reservation makes the pool a hard cap under concurrency: two
            // workers can never both spend the same remainder.
            let grant = match &ctx.pool {
                Some(pool) => Some(pool.reserve()?),
                None => None,
            };
            let pool_budget = match grant {
                Some(grant) => ResourceBudget::unlimited()
                    .with_max_streamed_items(dm.tracker().items_streamed() + grant),
                None => ResourceBudget::unlimited(),
            };
            let budget = ctx
                .epoch_budget
                .intersect(&pool_budget)
                .with_parallelism(ctx.epoch_budget.parallelism().unwrap_or(ctx.parallelism));
            let before = dm.tracker().items_streamed();
            let batch_len = updates.len();
            let epoch_index = dm.epochs() as u64;
            let outcome = dm.apply_epoch(&updates, &budget);
            // Settlement: successful epochs charge their exact usage. A
            // failed epoch rolls the *session* back, but its ingestion pass
            // did stream (part of) the batch before the trip; the pool is
            // charged that observable floor — capped by the grant, so a
            // zero-grant contention failure charges nothing — and batches
            // that keep overrunning a drained pool ratchet it to formal
            // exhaustion instead of spinning.
            let delta = dm.tracker().items_streamed() - before;
            if let (Some(pool), Some(grant)) = (&ctx.pool, grant) {
                let floor = if outcome.is_ok() { None } else { Some(batch_len) };
                pool.settle(grant, delta, floor);
            }
            let stats = outcome?.stats;
            if let Some(persist) = &ctx.persist {
                // Journal AFTER the commit (write-behind of committed state,
                // never of intentions): recovery replays exactly the epochs
                // that committed, and a crash before this append merely
                // loses the newest epoch's durability, not its atomicity.
                // An append failure is surfaced — the epoch *is* committed
                // in memory, but the client must learn durability is gone.
                persist
                    .store
                    .lock()
                    .expect("store lock poisoned")
                    .append(&session, &WalRecord::Batch { epoch: epoch_index, updates })?;
            }
            Ok(Response::EpochApplied { stats })
        }
        Request::QueryMatching { session } => {
            let dm = resolve(&session, sessions, ctx)?;
            Ok(Response::Matching { snapshot: dm.committed() })
        }
        Request::QueryWeight { session } => {
            let dm = resolve(&session, sessions, ctx)?;
            Ok(Response::Weight {
                epoch: dm.epochs(),
                version: dm.overlay().version(),
                weight: dm.weight(),
            })
        }
        Request::SnapshotStats { session } => {
            let dm = resolve(&session, sessions, ctx)?;
            let count = |d: EpochDecision| dm.ledger().iter().filter(|s| s.decision == d).count();
            let mut stats = SessionStats {
                session: session.clone(),
                epochs: dm.epochs(),
                version: dm.overlay().version(),
                weight: dm.weight(),
                matching_edges: dm.matching().num_edges(),
                live_edges: dm.overlay().num_live_edges(),
                live_vertices: dm.overlay().num_live_vertices(),
                items_streamed: dm.tracker().items_streamed(),
                repairs: count(EpochDecision::Repair),
                warm_resolves: count(EpochDecision::WarmResolve),
                rebuilds: count(EpochDecision::Rebuild),
                revives: 0,
                duals_checksum: dm.duals().map(|d| d.fingerprint()).unwrap_or(0),
            };
            stats.revives = sessions.revives.get(&session).copied().unwrap_or(0);
            Ok(Response::Stats { stats })
        }
        Request::CompactSession { session } => {
            let dm = resolve(&session, sessions, ctx)?;
            let remap = dm.compact();
            let reclaimed = remap.iter().filter(|&&m| m == usize::MAX).count();
            let version = dm.overlay().version();
            if let Some(persist) = &ctx.persist {
                persist
                    .store
                    .lock()
                    .expect("store lock poisoned")
                    .append(&session, &WalRecord::Compact { version })?;
            }
            Ok(Response::Compacted { reclaimed })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_core::ResourceBudget;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn base_graph(seed: u64, n: usize, m: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::gnm(n, m, WeightModel::Uniform(1.0, 9.0), &mut rng)
    }

    fn batch(next_id: usize, n: usize, seed: u64, size: usize) -> Vec<GraphUpdate> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..size)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => GraphUpdate::InsertEdge {
                    u: rng.gen_range(0..n as u32),
                    v: rng.gen_range(0..n as u32),
                    w: rng.gen_range(1.0..9.0),
                },
                1 => GraphUpdate::DeleteEdge { id: rng.gen_range(0..next_id.max(1)) },
                _ => GraphUpdate::ReweightEdge {
                    id: rng.gen_range(0..next_id.max(1)),
                    w: rng.gen_range(1.0..9.0),
                },
            })
            .collect()
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            session_defaults: DynamicConfig { eps: 0.25, p: 2.0, seed: 7, ..Default::default() },
            ..Default::default()
        }
    }

    /// Serial oracle: the same session replayed directly on a DynamicMatcher.
    fn serial_replay(base: &Graph, batches: &[Vec<GraphUpdate>]) -> DynamicMatcher {
        let mut dm = DynamicMatcher::new(base, config().session_defaults).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        for b in batches {
            dm.apply_epoch(b, &ResourceBudget::unlimited()).unwrap();
        }
        dm
    }

    #[test]
    fn sessions_served_through_the_pool_match_serial_replay_bitwise() {
        let service = MatchingService::start(config()).unwrap();
        let names = ["alpha", "beta", "gamma"];
        let mut expected = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let base = base_graph(i as u64, 40, 140);
            service.create_session(name, &base).unwrap();
            let s0 = service.submit_batch(name, Vec::new()).unwrap();
            assert_eq!(s0.decision, EpochDecision::Rebuild);
            let mut next_id = base.num_edges();
            let mut batches = Vec::new();
            for round in 0..3u64 {
                let b = batch(next_id, 40, 100 * i as u64 + round, 12);
                next_id += b.iter().filter(|u| matches!(u, GraphUpdate::InsertEdge { .. })).count();
                service.submit_batch(name, b.clone()).unwrap();
                batches.push(b);
            }
            expected.push(serial_replay(&base, &batches));
        }
        for (name, oracle) in names.iter().zip(&expected) {
            let snap = service.matching(name).unwrap();
            assert_eq!(snap.epoch, oracle.epochs());
            assert_eq!(snap.weight.to_bits(), oracle.weight().to_bits(), "{name} diverged");
            let served: Vec<(usize, u64)> =
                snap.matching.iter().map(|(id, _, m)| (id, m)).collect();
            let direct: Vec<(usize, u64)> =
                oracle.matching().iter().map(|(id, _, m)| (id, m)).collect();
            assert_eq!(served, direct, "{name}: matching diverged from serial replay");
        }
        assert_eq!(service.sessions(), vec!["alpha", "beta", "gamma"]);
        service.shutdown();
    }

    #[test]
    fn unknown_and_duplicate_sessions_are_typed_errors() {
        let service = MatchingService::start(config()).unwrap();
        let base = base_graph(9, 20, 60);
        assert_eq!(
            service.submit_batch("ghost", Vec::new()).err(),
            Some(ServeError::UnknownSession { session: "ghost".into() })
        );
        service.create_session("a", &base).unwrap();
        assert_eq!(
            service.create_session("a", &base),
            Err(ServeError::SessionExists { session: "a".into() })
        );
        let epochs = service.drop_session("a").unwrap();
        assert_eq!(epochs, 0);
        assert!(service.view("a").is_none());
        assert_eq!(service.weight("a"), Err(ServeError::UnknownSession { session: "a".into() }));
        service.shutdown();
    }

    #[test]
    fn committed_views_bypass_the_queue_and_survive_shutdown() {
        let service = MatchingService::start(config()).unwrap();
        let base = base_graph(4, 30, 100);
        service.create_session("s", &base).unwrap();
        let view = service.view("s").expect("registered view");
        assert_eq!(view.load().epoch, 0);
        service.submit_batch("s", Vec::new()).unwrap();
        let snap = view.load();
        assert_eq!(snap.epoch, 1);
        assert!(snap.weight > 0.0);
        let (epoch, version, weight) = service.weight("s").unwrap();
        assert_eq!((epoch, version), (snap.epoch, snap.version));
        assert_eq!(weight.to_bits(), snap.weight.to_bits());
        service.shutdown();
        // The handle outlives the service, frozen at the last commit.
        assert_eq!(view.load().weight.to_bits(), snap.weight.to_bits());
    }

    #[test]
    fn the_service_pool_is_enforced_across_sessions() {
        // A pool too small for even one bootstrap: the epoch is interrupted
        // (and rolled back), the pool stays uncharged, and once a session
        // has drained the pool any further batch is rejected at admission.
        let tiny = ServiceConfig { max_streamed_items: Some(60), workers: 1, ..config() };
        let service = MatchingService::start(tiny).unwrap();
        let base = base_graph(5, 40, 160);
        service.create_session("a", &base).unwrap();
        match service.submit_batch("a", Vec::new()) {
            Err(ServeError::Engine(MwmError::BudgetExceeded { resource, .. })) => {
                assert_eq!(resource, "streamed items");
            }
            other => panic!("expected a budget interrupt, got {other:?}"),
        }
        assert_eq!(service.view("a").unwrap().load().epoch, 0, "failed epoch rolled back");

        // A pool that fits one bootstrap plus a slim margin: session a
        // bootstraps, then session b's batches drain the margin (each attempt
        // charges at least its ingestion floor) until admission is denied.
        let mut probe = DynamicMatcher::new(&base, config().session_defaults).unwrap();
        probe.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let bootstrap_cost = probe.tracker().items_streamed();
        let pool = bootstrap_cost + 1_000;
        let sized = ServiceConfig { max_streamed_items: Some(pool), workers: 1, ..config() };
        let service = MatchingService::start(sized).unwrap();
        service.create_session("a", &base).unwrap();
        service.create_session("b", &base).unwrap();
        service.submit_batch("a", Vec::new()).unwrap();
        assert_eq!(service.pool_used(), bootstrap_cost, "the pool sees the bootstrap's usage");
        let mut denied = false;
        for round in 0..100u64 {
            match service.submit_batch("b", batch(base.num_edges(), 40, round, 100)) {
                Ok(_) => {}
                Err(ServeError::AdmissionDenied { used, limit }) => {
                    assert!(used >= limit);
                    assert_eq!(limit, pool);
                    denied = true;
                    break;
                }
                Err(ServeError::Engine(MwmError::BudgetExceeded { .. })) => {
                    // Mid-epoch interrupt: rolled back; the ingestion floor
                    // still drains the pool toward formal exhaustion.
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(denied, "the pool must eventually deny admission");
        service.shutdown();
    }

    #[test]
    fn the_pool_is_a_hard_cap_under_concurrent_workers() {
        // Many sessions spread over 4 workers race for a pool sized for
        // ~1.5 bootstraps. Reservation accounting must keep total usage at
        // the limit (plus at most per-epoch engine overshoot), never
        // workers x the remainder, while at least one epoch fits.
        let base = base_graph(11, 40, 160);
        let mut probe = DynamicMatcher::new(&base, config().session_defaults).unwrap();
        probe.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let bootstrap_cost = probe.tracker().items_streamed();
        let limit = bootstrap_cost + bootstrap_cost / 2;
        let service = MatchingService::start(ServiceConfig {
            workers: 4,
            max_streamed_items: Some(limit),
            ..config()
        })
        .unwrap();
        let names: Vec<String> = (0..8).map(|i| format!("cap-{i}")).collect();
        for name in &names {
            service.create_session(name, &base).unwrap();
        }
        // Fire all bootstraps at once so the workers genuinely race.
        let tickets: Vec<Ticket> = names
            .iter()
            .map(|n| {
                service
                    .submit(Request::SubmitBatch { session: n.clone(), updates: Vec::new() })
                    .unwrap()
            })
            .collect();
        let (mut ok, mut failed) = (0usize, 0usize);
        for t in tickets {
            match t.wait() {
                Ok(_) => ok += 1,
                Err(
                    ServeError::Engine(MwmError::BudgetExceeded { .. })
                    | ServeError::AdmissionDenied { .. },
                ) => failed += 1,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(ok >= 1, "the first reservation holds the whole remainder, so one epoch fits");
        assert!(failed >= 1, "the pool cannot fit all eight bootstraps");
        assert!(
            service.pool_used() <= limit + 8 * 2_048,
            "pool overran its hard cap: used {} vs limit {limit}",
            service.pool_used()
        );
        service.shutdown();
    }

    #[test]
    fn per_epoch_policy_budget_applies_through_intersect() {
        // An epoch_budget with a rounds cap must fail the bootstrap solve
        // (which needs many rounds) as a typed engine error.
        let strict = ServiceConfig {
            epoch_budget: ResourceBudget::unlimited().with_max_rounds(1),
            workers: 1,
            ..config()
        };
        let service = MatchingService::start(strict).unwrap();
        let base = base_graph(6, 30, 100);
        service.create_session("s", &base).unwrap();
        match service.submit_batch("s", Vec::new()) {
            Err(ServeError::Engine(MwmError::BudgetExceeded { resource, .. })) => {
                assert_eq!(resource, "rounds");
            }
            other => panic!("expected a rounds violation, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn try_submit_reports_a_full_queue() {
        // One worker, tiny queue: keep the worker busy with a bootstrap on a
        // sizable graph, then overfill the queue with cheap queries.
        let cfg = ServiceConfig { workers: 1, queue_capacity: 2, ..config() };
        let service = MatchingService::start(cfg).unwrap();
        let base = base_graph(7, 400, 3_000);
        service.create_session("s", &base).unwrap();
        let bootstrap = service
            .submit(Request::SubmitBatch { session: "s".into(), updates: Vec::new() })
            .unwrap();
        let mut pending = Vec::new();
        let mut saw_full = false;
        for _ in 0..64 {
            match service.try_submit(Request::QueryWeight { session: "s".into() }) {
                Ok(t) => pending.push(t),
                Err(ServeError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    saw_full = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_full, "the bounded queue must eventually reject");
        assert!(bootstrap.wait().is_ok());
        for t in pending {
            assert!(t.wait().is_ok(), "queued queries are still answered");
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_and_rejects_new_submissions() {
        let service = MatchingService::start(config()).unwrap();
        let base = base_graph(8, 30, 90);
        service.create_session("s", &base).unwrap();
        let queued = service
            .submit(Request::SubmitBatch { session: "s".into(), updates: Vec::new() })
            .unwrap();
        service.shutdown();
        // The pre-shutdown job was drained and answered.
        assert!(matches!(queued.wait(), Ok(Response::EpochApplied { .. })));
    }

    #[test]
    fn invalid_service_configs_are_rejected() {
        assert!(MatchingService::start(ServiceConfig { workers: 0, ..config() }).is_err());
        assert!(MatchingService::start(ServiceConfig { queue_capacity: 0, ..config() }).is_err());
        let bad_session = DynamicConfig { dual_decay: 0.0, ..DynamicConfig::default() };
        assert!(MatchingService::start(ServiceConfig {
            session_defaults: bad_session,
            ..config()
        })
        .is_err());
    }

    #[test]
    fn wait_timeout_returns_the_ticket_until_the_answer_lands() {
        let (ticket, completer) = Ticket::new();
        // Nobody has answered: the deadline expires and the ticket survives.
        let ticket = match ticket.wait_timeout(Duration::from_millis(20)) {
            Err(t) => t,
            Ok(r) => panic!("unanswered ticket resolved early: {r:?}"),
        };
        assert!(!ticket.is_ready());
        completer.complete(Ok(Response::Created));
        match ticket.wait_timeout(Duration::from_secs(5)) {
            Ok(Ok(Response::Created)) => {}
            Ok(other) => panic!("expected Created, got {other:?}"),
            Err(_) => panic!("a completed ticket must not time out"),
        }
    }

    fn persist_config(tag: &str) -> (ServiceConfig, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("mwm-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        (ServiceConfig { store_dir: Some(dir.clone()), workers: 2, ..config() }, dir)
    }

    #[test]
    fn hibernated_sessions_revive_bit_identically_under_a_resident_cap() {
        let (cfg, dir) = persist_config("cap");
        // Cap of 1 across 2 workers: every request to a non-resident session
        // forces a revive; with several sessions the LRU churns constantly.
        let cfg = ServiceConfig { max_resident_sessions: Some(1), ..cfg };
        let service = MatchingService::start(cfg).unwrap();
        let names = ["h-alpha", "h-beta", "h-gamma", "h-delta"];
        let mut oracles = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let base = base_graph(40 + i as u64, 30, 90);
            service.create_session(name, &base).unwrap();
            let mut batches = Vec::new();
            service.submit_batch(name, Vec::new()).unwrap();
            for round in 0..3u64 {
                let b = batch(base.num_edges(), 30, 500 * i as u64 + round, 8);
                service.submit_batch(name, b.clone()).unwrap();
                batches.push(b);
            }
            oracles.push(serial_replay(&base, &batches));
        }
        for (name, oracle) in names.iter().zip(&oracles) {
            let stats = service.session_stats(name).unwrap();
            assert_eq!(stats.weight.to_bits(), oracle.weight().to_bits(), "{name} diverged");
            assert_eq!(stats.epochs, oracle.epochs());
            assert_eq!(
                stats.duals_checksum,
                oracle.duals().map(|d| d.fingerprint()).unwrap_or(0),
                "{name}: duals diverged across hibernate/revive"
            );
            let snap = service.matching(name).unwrap();
            let served: Vec<(usize, u64)> =
                snap.matching.iter().map(|(id, _, m)| (id, m)).collect();
            let direct: Vec<(usize, u64)> =
                oracle.matching().iter().map(|(id, _, m)| (id, m)).collect();
            assert_eq!(served, direct, "{name}: matching diverged");
        }
        // Re-querying every session under a cap of 1 per worker must have
        // churned hibernated sessions back in.
        assert!(service.revives() > 0, "a cap of 1 must force revives");
        assert!(!service.revive_latencies_ms().is_empty());
        // Every session stays listed even while hibernated.
        let mut listed = service.sessions();
        listed.sort();
        let mut want: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        want.sort();
        assert_eq!(listed, want);
        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_restarts_a_service_from_its_store() {
        let (cfg, dir) = persist_config("recover");
        let base = base_graph(50, 30, 90);
        let mut batches = Vec::new();
        {
            let service = MatchingService::start(cfg.clone()).unwrap();
            service.create_session("r", &base).unwrap();
            service.submit_batch("r", Vec::new()).unwrap();
            for round in 0..2u64 {
                let b = batch(base.num_edges(), 30, 900 + round, 10);
                service.submit_batch("r", b.clone()).unwrap();
                batches.push(b);
            }
            // Simulated crash: leak the service so no shutdown checkpoint
            // runs — the store holds the creation-time image plus the WAL.
            std::mem::forget(service);
        }
        let recovered = MatchingService::recover(cfg).unwrap();
        assert_eq!(recovered.sessions(), vec!["r"]);
        let oracle = serial_replay(&base, &batches);
        let stats = recovered.session_stats("r").unwrap();
        assert_eq!(stats.weight.to_bits(), oracle.weight().to_bits());
        assert_eq!(stats.epochs, oracle.epochs());
        assert_eq!(stats.duals_checksum, oracle.duals().map(|d| d.fingerprint()).unwrap_or(0));
        // The recovered session keeps serving.
        recovered.submit_batch("r", batch(base.num_edges(), 30, 950, 6)).unwrap();
        recovered.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_image_is_a_typed_corrupt_error() {
        let (cfg, dir) = persist_config("torn");
        {
            let service = MatchingService::start(cfg.clone()).unwrap();
            service.create_session("t", &base_graph(60, 20, 50)).unwrap();
            service.submit_batch("t", Vec::new()).unwrap();
            service.shutdown();
        }
        // Flip a payload bit in the (only) stored image.
        let img = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "img"))
            .expect("one image on disk");
        let mut bytes = std::fs::read(&img).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&img, &bytes).unwrap();
        match MatchingService::recover(cfg).map(|_| ()) {
            Err(ServeError::Corrupt { context }) => {
                assert!(context.contains("checksum"), "unexpected context: {context}")
            }
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(()) => panic!("recover accepted a torn image"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn caps_without_a_store_are_rejected() {
        let cfg = ServiceConfig { max_resident_sessions: Some(4), ..config() };
        assert!(MatchingService::start(cfg).is_err());
        let cfg = ServiceConfig { hibernate_after: Some(Duration::from_secs(1)), ..config() };
        assert!(MatchingService::start(cfg).is_err());
    }

    #[test]
    fn compaction_through_the_service_keeps_the_session_serving() {
        let service = MatchingService::start(config()).unwrap();
        let base = base_graph(10, 40, 160);
        service.create_session("s", &base).unwrap();
        service.submit_batch("s", Vec::new()).unwrap();
        let b = batch(base.num_edges(), 40, 77, 30);
        service.submit_batch("s", b).unwrap();
        let before = service.session_stats("s").unwrap();
        let reclaimed = service.compact_session("s").unwrap();
        assert!(reclaimed > 0, "the batch deleted edges to reclaim");
        let after = service.session_stats("s").unwrap();
        assert_eq!(after.weight.to_bits(), before.weight.to_bits());
        // The renumbered session still accepts epochs.
        let more = batch(after.live_edges, 40, 78, 10);
        assert!(service.submit_batch("s", more).is_ok());
        service.shutdown();
    }
}
