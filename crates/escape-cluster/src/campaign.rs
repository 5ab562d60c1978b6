//! Deterministic fault-injection campaigns: composable fault plans, a
//! seed-driven scenario matrix explorer, and reproducer shrinking.
//!
//! A campaign composes the workspace's fault models — network chaos
//! (duplication/reordering), loss, asymmetric one-way cuts, per-node
//! clock skew, lying fsyncs, transient IO errors, disk-full fail-stops,
//! and torn WAL tails — into a declarative [`FaultPlan`], then sweeps
//! seeds through [`run_trial`]: one fully deterministic [`SimCluster`]
//! run per `(plan, seed)` pair, checked against the safety invariants,
//! liveness, a committed workload, and (when the plan kills the leader)
//! the failover-timeline phase bounds from the typed event streams.
//!
//! Every failing trial yields a self-contained [`Reproducer`] — the seed
//! plus the plan, greedily [`shrink`]-ed to a minimal failing subset of
//! atoms — so a nightly sweep's output pastes straight into a regression
//! corpus (`corpus/campaign.txt`, replayed as a tier-1 test).
//!
//! Everything is derived from the one seed: the network stream, each
//! node's storage-fault stream, the skew offsets, and the cut endpoints,
//! so the same `(scenario, seed)` line replays byte-for-byte.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;

use escape_core::config::Configuration;
use escape_core::log::{Entry, Payload};
use escape_core::rand::{Rng64, Xoshiro256};
use escape_core::storage::{Barrier, RecoveredState, Storage};
use escape_core::time::Duration;
use escape_core::types::{LogIndex, ServerId, Term};
use escape_obs::{Observer, PhaseBounds};
use escape_simnet::latency::LatencyModel;
use escape_simnet::loss::{ChaosModel, LossModel};
use escape_simnet::skew::ClockSkew;
use escape_storage::{tear_wal_tail, FaultSpec, FaultStats, FaultyStorage, WalOptions, WalStorage};

use crate::cluster::{ClusterConfig, ObservedEvent, Protocol, SimCluster, StorageHarness};

/// Salt separating the campaign's own draws (skew, victims, cut
/// endpoints) from the network stream, which uses the raw seed.
const CAMPAIGN_SALT: u64 = 0xC0FF_EE00_D15E_A5E5;

/// One composable fault. A [`FaultPlan`] is a set of these; each atom is
/// independently removable, which is what makes greedy shrinking work.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAtom {
    /// Crash the leader once the cluster has settled.
    KillLeader,
    /// Restart the killed node after the successor takes over (requires
    /// [`FaultAtom::KillLeader`]; a no-op without it).
    RestartKilled,
    /// Frame duplication and reordering on every link.
    Chaos {
        /// Probability a delivered frame arrives twice.
        duplicate_p: f64,
        /// Probability a delivered frame picks up extra delay.
        reorder_p: f64,
        /// Maximum extra delay for a reordered frame.
        reorder_span: Duration,
    },
    /// Independent per-frame loss.
    Loss(f64),
    /// Sever one direction of one link between two random followers.
    OneWayCut,
    /// Give every node a random clock offset and drift.
    Skew {
        /// Largest absolute offset a node can start with.
        max_offset: Duration,
        /// Largest absolute drift in parts per million.
        max_drift_ppm: i64,
    },
    /// Each fsync lies (acks without flushing) with this probability.
    LyingFsync(f64),
    /// Each persist reports a survivable IO error with this probability.
    TransientIo(f64),
    /// One random node's disk fills after this many persist operations;
    /// the node must fail-stop.
    DiskFull(u64),
    /// Crashes tear a seeded number of bytes off the victim's newest WAL
    /// segment, so restarts exercise torn-tail recovery.
    TornTail,
    /// Every node's storage defers the leader's log barrier
    /// ([`Storage::sync_deferred`]): the flush reaches the disk this long
    /// after it was requested, and a crash in between loses what it
    /// covered. With [`FaultAtom::KillLeader`], the kill lands inside that
    /// window, on a write the followers have already acknowledged.
    DeferredBarrier(Duration),
    /// This many failovers in a row, each killing the leader the previous
    /// one elected: kill the leader, restart it once its successor leads,
    /// kill the successor [`REJOIN_TO_KILL`] after the rejoin. Runs on the
    /// shape the TCP runtime has (3 servers, leased reads, 50 ms vote
    /// retry), where the prepared candidate needs the vote of the server
    /// that has only just come back, and holds every failover to one
    /// campaign inside [`PhaseBounds::reflex_200ms`].
    RepeatedKill(u32),
}

/// How long after a killed leader's rejoin its successor is killed.
const REJOIN_TO_KILL: Duration = Duration::from_millis(200);

impl fmt::Display for FaultAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAtom::KillLeader => write!(f, "kill-leader"),
            FaultAtom::RestartKilled => write!(f, "restart-killed"),
            FaultAtom::Chaos {
                duplicate_p,
                reorder_p,
                reorder_span,
            } => write!(
                f,
                "chaos(dup={duplicate_p:.2},reorder={reorder_p:.2},span={}ms)",
                reorder_span.as_millis()
            ),
            FaultAtom::Loss(p) => write!(f, "loss({p:.2})"),
            FaultAtom::OneWayCut => write!(f, "one-way-cut"),
            FaultAtom::Skew {
                max_offset,
                max_drift_ppm,
            } => write!(
                f,
                "skew(±{}ms,±{max_drift_ppm}ppm)",
                max_offset.as_millis()
            ),
            FaultAtom::LyingFsync(p) => write!(f, "lying-fsync({p:.2})"),
            FaultAtom::TransientIo(p) => write!(f, "transient-io({p:.2})"),
            FaultAtom::DiskFull(after) => write!(f, "disk-full({after})"),
            FaultAtom::TornTail => write!(f, "torn-tail"),
            FaultAtom::DeferredBarrier(flush) => {
                write!(f, "deferred-barrier({}ms)", flush.as_millis())
            }
            FaultAtom::RepeatedKill(rounds) => write!(f, "repeated-kill({rounds})"),
        }
    }
}

/// A declarative set of faults to inflict on one trial.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// The atoms, applied together.
    pub atoms: Vec<FaultAtom>,
}

impl FaultPlan {
    /// A plan with no faults (the trial still checks the base invariants).
    pub fn quiet() -> Self {
        FaultPlan { atoms: Vec::new() }
    }

    /// `true` if any atom needs real (fault-injecting) storage under the
    /// nodes.
    pub fn needs_storage(&self) -> bool {
        self.atoms.iter().any(|a| {
            matches!(
                a,
                FaultAtom::LyingFsync(_)
                    | FaultAtom::TransientIo(_)
                    | FaultAtom::DiskFull(_)
                    | FaultAtom::TornTail
                    | FaultAtom::DeferredBarrier(_)
            )
        })
    }

    fn has(&self, probe: impl Fn(&FaultAtom) -> bool) -> bool {
        self.atoms.iter().any(probe)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "quiet");
        }
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{atom}")?;
        }
        Ok(())
    }
}

/// The named scenario matrix: deterministic generators, so a corpus line
/// `scenario seed` fully identifies a trial.
pub const SCENARIO_NAMES: &[&str] = &[
    "quiet",
    "baseline",
    "chaos-net",
    "lossy-net",
    "one-way-cut",
    "split-clocks",
    "lying-disk",
    "flaky-disk",
    "disk-full",
    "disk-full-failover",
    "crash-before-own-sync",
    "repeated-kill",
    "kitchen-sink",
];

/// The plan a scenario name denotes, or `None` for an unknown name.
pub fn scenario_plan(name: &str) -> Option<FaultPlan> {
    let chaos = FaultAtom::Chaos {
        duplicate_p: 0.15,
        reorder_p: 0.25,
        reorder_span: Duration::from_millis(20),
    };
    let skew = FaultAtom::Skew {
        max_offset: Duration::from_millis(5),
        max_drift_ppm: 200,
    };
    let atoms = match name {
        "quiet" => vec![],
        "baseline" => vec![FaultAtom::KillLeader],
        "chaos-net" => vec![FaultAtom::KillLeader, chaos],
        "lossy-net" => vec![FaultAtom::KillLeader, FaultAtom::Loss(0.05)],
        "one-way-cut" => vec![FaultAtom::KillLeader, FaultAtom::OneWayCut],
        "split-clocks" => vec![FaultAtom::KillLeader, skew],
        "lying-disk" => vec![
            FaultAtom::KillLeader,
            FaultAtom::LyingFsync(0.3),
            FaultAtom::TornTail,
            FaultAtom::RestartKilled,
        ],
        "flaky-disk" => vec![FaultAtom::KillLeader, FaultAtom::TransientIo(0.2)],
        "disk-full" => vec![FaultAtom::DiskFull(4)],
        // The PR 9 residual case: a leader kill *measured for bounds*
        // while some node's disk fills and fail-stops it nearby. The
        // timeline is keyed by the killed leader's own crash event, so
        // the victim's extra crash cannot garble the phase measurements.
        "disk-full-failover" => vec![FaultAtom::KillLeader, FaultAtom::DiskFull(4)],
        // The window the deferred leader barrier opens: the leader has
        // sent a write, the followers have acknowledged it, and the
        // leader dies — tail torn — before its own flush. The write was
        // acknowledged without the leader's copy, so it must survive.
        "crash-before-own-sync" => vec![
            FaultAtom::KillLeader,
            FaultAtom::DeferredBarrier(Duration::from_millis(30)),
            FaultAtom::TornTail,
            FaultAtom::RestartKilled,
        ],
        // The benchmark's `leader-kill` schedule with the network taken
        // out: whatever costs a second campaign here is election policy
        // (a rejoiner's stale configuration clock, a late PPF re-issue,
        // the vote fence), not a lost frame.
        "repeated-kill" => vec![FaultAtom::RepeatedKill(3)],
        "kitchen-sink" => vec![
            FaultAtom::KillLeader,
            chaos,
            FaultAtom::OneWayCut,
            skew,
            FaultAtom::LyingFsync(0.25),
            FaultAtom::TornTail,
            FaultAtom::RestartKilled,
        ],
        _ => return None,
    };
    Some(FaultPlan { atoms })
}

/// Knobs for one trial.
#[derive(Clone, Debug)]
pub struct TrialOptions {
    /// Failover phase bounds, checked whenever the plan kills the leader
    /// — keyed on that leader's own crash event, so concurrent
    /// fault-induced crashes (disk-full fail-stops) don't muddy it.
    pub bounds: PhaseBounds,
    /// Where fault-injecting storage puts node directories; `None` uses
    /// a fresh temp directory that is removed when the trial ends.
    pub storage_root: Option<PathBuf>,
}

impl Default for TrialOptions {
    fn default() -> Self {
        TrialOptions {
            // Generous campaign bound: failover under compounded faults
            // must still complete within a second per phase (the clean
            // reflex bound is 200 ms; see `PhaseBounds::reflex_200ms`).
            bounds: PhaseBounds {
                detect_micros: 1_000_000,
                campaign_micros: 1_000_000,
                elect_micros: 1_000_000,
                commit_micros: 1_000_000,
            },
            storage_root: None,
        }
    }
}

/// What one `(plan, seed)` trial produced.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// The trial's seed.
    pub seed: u64,
    /// Invariant violations, empty when the trial passed.
    pub failures: Vec<String>,
    /// Concatenated per-node typed event logs — byte-identical across
    /// replays of the same `(plan, seed)`.
    pub digest: String,
}

impl TrialOutcome {
    /// `true` when every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A self-contained recipe for replaying one failure.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// The scenario the failing seed came from.
    pub scenario: String,
    /// The seed.
    pub seed: u64,
    /// The minimal failing plan ([`shrink`]'s fixed point).
    pub plan: FaultPlan,
    /// What failed under the shrunken plan.
    pub failures: Vec<String>,
}

impl fmt::Display for Reproducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario {} seed {} shrinks to [{}]",
            self.scenario, self.seed, self.plan
        )?;
        for failure in &self.failures {
            writeln!(f, "  - {failure}")?;
        }
        write!(
            f,
            "  replay: cargo run -p escape-cluster --bin campaign -- --scenario {} --seed {}",
            self.scenario, self.seed
        )
    }
}

/// What a seed sweep found.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Trials run.
    pub trials: u64,
    /// One shrunken reproducer per failing seed.
    pub failures: Vec<Reproducer>,
}

impl SweepReport {
    /// `true` when every seed passed.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---- the storage harness ----

/// [`StorageHarness`] for campaigns: every node gets a [`FaultyStorage`]
/// over a real WAL directory, with per-node fault specs and a shared
/// virtual clock, all seeded from the campaign stream.
#[derive(Debug)]
pub struct CampaignStorage {
    root: PathBuf,
    default_spec: FaultSpec,
    overrides: BTreeMap<ServerId, FaultSpec>,
    torn_tail: bool,
    rng: Xoshiro256,
    stats: BTreeMap<ServerId, Arc<FaultStats>>,
    clock: Arc<AtomicU64>,
    /// How long a deferred barrier takes; `None` keeps every barrier
    /// blocking (the storages then never see `sync_deferred`).
    deferred_flush: Option<Duration>,
    /// Each node's storage, shared with the engine, when barriers defer.
    deferring: BTreeMap<ServerId, Arc<Mutex<Deferring>>>,
}

/// A node's storage plus the deferred barriers it has issued and the
/// cluster has not yet collected. Shared between the engine (through
/// [`DeferringStorage`]) and the harness, which runs the real flush when
/// the simulated disk gets to it.
#[derive(Debug)]
struct Deferring {
    storage: FaultyStorage,
    tickets: u64,
    issued: Vec<u64>,
}

/// The engine's end of a [`Deferring`]: every call goes straight through,
/// except that `sync_deferred` only takes a ticket.
#[derive(Debug)]
struct DeferringStorage(Arc<Mutex<Deferring>>);

fn lock(deferring: &Mutex<Deferring>) -> MutexGuard<'_, Deferring> {
    deferring.lock().expect("the simulator is single-threaded")
}

impl Storage for DeferringStorage {
    fn persist_hard_state(&mut self, term: Term, voted_for: Option<ServerId>) -> io::Result<()> {
        lock(&self.0).storage.persist_hard_state(term, voted_for)
    }

    fn persist_entry(&mut self, entry: &Entry) -> io::Result<()> {
        lock(&self.0).storage.persist_entry(entry)
    }

    fn persist_entries(&mut self, entries: &[Entry]) -> io::Result<()> {
        lock(&self.0).storage.persist_entries(entries)
    }

    fn persist_appended(
        &mut self,
        prev_index: LogIndex,
        prev_term: Term,
        entries: &[Entry],
    ) -> io::Result<()> {
        lock(&self.0)
            .storage
            .persist_appended(prev_index, prev_term, entries)
    }

    fn persist_config(&mut self, config: Configuration) -> io::Result<()> {
        lock(&self.0).storage.persist_config(config)
    }

    fn persist_snapshot(
        &mut self,
        index: LogIndex,
        term: Term,
        data: &Bytes,
        tail: &[Entry],
    ) -> io::Result<()> {
        lock(&self.0)
            .storage
            .persist_snapshot(index, term, data, tail)
    }

    fn sync(&mut self) -> io::Result<()> {
        lock(&self.0).storage.sync()
    }

    fn sync_deferred(&mut self) -> io::Result<Barrier> {
        let mut shared = lock(&self.0);
        shared.tickets += 1;
        let ticket = shared.tickets;
        shared.issued.push(ticket);
        Ok(Barrier::Pending(ticket))
    }
}

impl CampaignStorage {
    /// A harness rooted at `root` (one subdirectory per node), injecting
    /// `spec` faults on every node, tearing WAL tails at crash time when
    /// `torn_tail`, all deterministically from `seed`.
    pub fn new(root: PathBuf, spec: FaultSpec, torn_tail: bool, seed: u64) -> Self {
        CampaignStorage {
            root,
            default_spec: spec,
            overrides: BTreeMap::new(),
            torn_tail,
            rng: Xoshiro256::seed_from(seed),
            stats: BTreeMap::new(),
            clock: Arc::new(AtomicU64::new(0)),
            deferred_flush: None,
            deferring: BTreeMap::new(),
        }
    }

    /// Makes every node's storage defer the leader's log barrier, each
    /// flush reaching the disk `flush` after it was requested. Call
    /// before the cluster opens its nodes.
    pub fn defer_barriers(&mut self, flush: Duration) {
        self.deferred_flush = Some(flush);
    }

    /// Overrides the fault spec for one node (e.g. a single disk-full
    /// victim).
    pub fn set_spec_for(&mut self, id: ServerId, spec: FaultSpec) {
        self.overrides.insert(id, spec);
    }

    /// The fault counters for `id`, once its storage has been opened.
    pub fn stats_for(&self, id: ServerId) -> Option<Arc<FaultStats>> {
        self.stats.get(&id).map(Arc::clone)
    }

    fn dir(&self, id: ServerId) -> PathBuf {
        self.root.join(format!("node-{}", id.get()))
    }
}

impl StorageHarness for CampaignStorage {
    fn open(
        &mut self,
        id: ServerId,
        observer: Arc<dyn Observer>,
        at_micros: u64,
    ) -> io::Result<(Box<dyn Storage>, RecoveredState)> {
        let dir = self.dir(id);
        std::fs::create_dir_all(&dir)?;
        let (inner, state) =
            WalStorage::open_observed(&dir, WalOptions::default(), observer.as_ref(), at_micros)?;
        let spec = self
            .overrides
            .get(&id)
            .copied()
            .unwrap_or(self.default_spec);
        // Each open (including reopens after a crash) forks a fresh
        // stream: the parent RNG advances, so the reincarnation's fault
        // schedule differs from its predecessor's but is still a pure
        // function of the campaign seed.
        let fault_rng = self.rng.fork(id.get() as u64);
        let storage = FaultyStorage::new(inner, spec, fault_rng, observer, Arc::clone(&self.clock));
        self.stats.insert(id, storage.stats());
        if self.deferred_flush.is_none() {
            return Ok((Box::new(storage), state));
        }
        let shared = Arc::new(Mutex::new(Deferring {
            storage,
            tickets: 0,
            issued: Vec::new(),
        }));
        self.deferring.insert(id, Arc::clone(&shared));
        Ok((Box::new(DeferringStorage(shared)), state))
    }

    fn on_crash(&mut self, id: ServerId) {
        if self.torn_tail {
            // A crash that outran the disk: chop a seeded number of
            // bytes off the newest segment. Nothing to tear (empty log)
            // is fine; IO errors here mean the trial directory vanished,
            // which the restart's reopen will surface anyway.
            let _ = tear_wal_tail(&self.dir(id), &mut self.rng);
        }
    }

    fn fail_stop(&self, id: ServerId) -> bool {
        self.stats
            .get(&id)
            .is_some_and(|stats| stats.is_disk_full())
    }

    fn tick(&mut self, at_micros: u64) {
        self.clock.store(at_micros, Ordering::Relaxed);
    }

    fn take_deferred(&mut self, id: ServerId) -> Vec<(u64, Duration)> {
        let (Some(flush), Some(shared)) = (self.deferred_flush, self.deferring.get(&id)) else {
            return Vec::new();
        };
        let issued = std::mem::take(&mut lock(shared).issued);
        issued.into_iter().map(|ticket| (ticket, flush)).collect()
    }

    fn complete_deferred(&mut self, id: ServerId, _ticket: u64) {
        if let Some(shared) = self.deferring.get(&id) {
            // `FaultyStorage` never fails a sync (it may lie, which is
            // the fault it models); a real error here would surface as
            // the trial's lost write.
            let _ = lock(shared).storage.sync();
        }
    }
}

// ---- the trial ----

/// The reflex-scale cluster every trial runs: LAN latencies and Eq. 1
/// parameters small enough that clean failovers fit the paper's 200 ms
/// reflex bound, so the campaign bounds measure fault impact, not WAN
/// latency.
///
/// `tcp_shape` swaps in what a TCP deployment of this workspace runs: three
/// servers, and `ProtocolSpec::local_options`' leased reads (which arm the
/// vote fence) and heartbeat-paced vote retry.
fn trial_config(seed: u64, loss: LossModel, tcp_shape: bool) -> ClusterConfig {
    let heartbeat_interval = Duration::from_millis(50);
    let defaults = escape_core::engine::Options::default();
    ClusterConfig {
        n: if tcp_shape { 3 } else { 5 },
        protocol: Protocol::Escape {
            base_time: Duration::from_millis(150),
            spacing: Duration::from_millis(50),
        },
        latency: LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(5),
        },
        loss,
        seed,
        options: escape_core::engine::Options {
            heartbeat_interval,
            lease_duration: tcp_shape.then(|| Duration::from_millis(100)),
            vote_retry_interval: if tcp_shape {
                Some(heartbeat_interval)
            } else {
                defaults.vote_retry_interval
            },
            ..defaults
        },
        check_safety: false,
    }
}

fn fresh_root(seed: u64) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "escape-campaign-{}-{seed:016x}-{n}",
        std::process::id()
    ))
}

/// Proposes through whoever currently leads, waiting out leader changes
/// (a disk-full leader fail-stops mid-workload and a successor takes
/// over). Returns the accepted index, or `None` if no leader ever took
/// the command.
fn propose_with_retry(cluster: &mut SimCluster, command: Bytes, retries: u32) -> Option<u64> {
    for _ in 0..=retries {
        match cluster.propose(command.clone()) {
            Ok(index) => return Some(index.get()),
            Err(_) => cluster.run_for(Duration::from_millis(500)),
        }
    }
    None
}

/// Runs one deterministic trial of `plan` at `seed` and checks every
/// invariant: liveness (a leader exists, a successor gets elected),
/// safety (election + commit safety via [`crate::invariants`]), a
/// committed workload, fail-stop semantics for disk-full victims, and —
/// when the plan kills the leader — the failover-timeline phase bounds
/// reconstructed from the typed event streams.
pub fn run_trial(plan: &FaultPlan, seed: u64, opts: &TrialOptions) -> TrialOutcome {
    let mut failures: Vec<String> = Vec::new();
    let mut rng = Xoshiro256::seed_from(seed ^ CAMPAIGN_SALT);

    // Atom → model translation. Draw order is fixed (skew, then victim,
    // then cut endpoints) so every draw is a pure function of the seed.
    let mut loss = LossModel::None;
    let mut chaos = ChaosModel::none();
    let mut spec = FaultSpec::none();
    let mut torn_tail = false;
    let mut disk_full_after: Option<u64> = None;
    let mut deferred_flush: Option<Duration> = None;
    let repeated_kills = plan.atoms.iter().find_map(|a| match a {
        FaultAtom::RepeatedKill(rounds) => Some(*rounds),
        _ => None,
    });
    let kills = repeated_kills
        .unwrap_or_else(|| u32::from(plan.has(|a| matches!(a, FaultAtom::KillLeader))));
    let restart_killed = plan.has(|a| matches!(a, FaultAtom::RestartKilled));
    let one_way_cut = plan.has(|a| matches!(a, FaultAtom::OneWayCut));
    for atom in &plan.atoms {
        match atom {
            FaultAtom::Loss(p) => loss = LossModel::Bernoulli(*p),
            FaultAtom::Chaos {
                duplicate_p,
                reorder_p,
                reorder_span,
            } => {
                chaos = ChaosModel {
                    duplicate_p: *duplicate_p,
                    reorder_p: *reorder_p,
                    reorder_span: *reorder_span,
                }
            }
            FaultAtom::LyingFsync(p) => spec.lying_fsync_p = *p,
            FaultAtom::TransientIo(p) => spec.transient_io_p = *p,
            FaultAtom::DiskFull(after) => disk_full_after = Some(*after),
            FaultAtom::TornTail => torn_tail = true,
            FaultAtom::DeferredBarrier(flush) => deferred_flush = Some(*flush),
            FaultAtom::KillLeader | FaultAtom::RestartKilled | FaultAtom::OneWayCut => {}
            FaultAtom::Skew { .. } | FaultAtom::RepeatedKill(_) => {}
        }
    }

    let config = trial_config(seed, loss, repeated_kills.is_some());
    let n = config.n;
    let ids: Vec<ServerId> = (1..=n as u32).map(ServerId::new).collect();

    // Clock skew draws happen before construction so they precede every
    // other campaign draw regardless of which atoms are present.
    let mut skew = ClockSkew::none();
    if let Some(FaultAtom::Skew {
        max_offset,
        max_drift_ppm,
    }) = plan
        .atoms
        .iter()
        .find(|a| matches!(a, FaultAtom::Skew { .. }))
    {
        let max_off = max_offset.as_micros();
        for id in &ids {
            let offset = rng.gen_range(0, 2 * max_off + 1) as i64 - max_off as i64;
            let drift =
                rng.gen_range(0, 2 * *max_drift_ppm as u64 + 1) as i64 - *max_drift_ppm;
            skew.set(*id, offset, drift);
        }
    }

    let disk_full_victim = disk_full_after.map(|after| {
        let victim = ids[rng.gen_range(0, n as u64) as usize];
        (victim, after)
    });

    let needs_storage = plan.needs_storage();
    let auto_root = needs_storage && opts.storage_root.is_none();
    let root = opts.storage_root.clone().unwrap_or_else(|| fresh_root(seed));

    let mut cluster = if needs_storage {
        let mut harness = CampaignStorage::new(root.clone(), spec, torn_tail, seed ^ CAMPAIGN_SALT);
        if let Some((victim, after)) = disk_full_victim {
            let mut victim_spec = spec;
            victim_spec.disk_full_after = Some(after);
            harness.set_spec_for(victim, victim_spec);
        }
        if let Some(flush) = deferred_flush {
            harness.defer_barriers(flush);
        }
        match SimCluster::with_storage(config, Box::new(harness)) {
            Ok(cluster) => cluster,
            Err(error) => {
                return TrialOutcome {
                    seed,
                    failures: vec![format!("storage: failed to open trial dirs: {error}")],
                    digest: String::new(),
                }
            }
        }
    } else {
        SimCluster::new(config)
    };
    cluster.sim_mut().set_chaos(chaos);
    cluster.set_clock_skew(skew);

    // Phase 1: bootstrap (a liveness check in itself — no panic, a
    // leaderless cluster is a reportable failure).
    let horizon = cluster.now() + Duration::from_secs(300);
    let Some(_) = cluster.run_until_new_leader(Term::ZERO, horizon) else {
        failures.push("liveness: no initial leader within 5 virtual minutes".into());
        return finish_trial(seed, failures, &cluster, auto_root, &root);
    };
    cluster.run_until(cluster.now() + Duration::from_millis(500));

    // Phase 2: the cut, then the kill.
    if one_way_cut {
        if let Some(leader) = cluster.current_leader() {
            let followers: Vec<ServerId> = ids
                .iter()
                .copied()
                .filter(|id| *id != leader && cluster.is_alive(*id))
                .collect();
            if followers.len() >= 2 {
                let src = followers[rng.gen_range(0, followers.len() as u64) as usize];
                let rest: Vec<ServerId> =
                    followers.into_iter().filter(|id| *id != src).collect();
                let dst = rest[rng.gen_range(0, rest.len() as u64) as usize];
                cluster.sim_mut().partitions_mut().sever_one_way(src, dst);
            }
        }
    }

    let mut killed: Option<ServerId> = None;
    let mut acknowledged: Option<(LogIndex, Bytes)> = None;
    for round in 1..=kills {
        if let Some(previous) = killed {
            // A further round: the last victim rejoins under its
            // successor, and the successor is the next to die.
            cluster.restart(previous);
            cluster.run_for(REJOIN_TO_KILL);
        }
        // Under loss the leadership can be mid-handover at this exact
        // instant; give the cluster (bounded) time to show a live leader
        // before declaring the kill impossible.
        let mut patience = 0;
        while cluster.current_leader().is_none() && patience < 100 {
            cluster.run_for(Duration::from_millis(100));
            patience += 1;
        }
        let Some(leader) = cluster.current_leader() else {
            failures.push("liveness: leader vanished before the kill".into());
            break;
        };
        let old_term = cluster.node(leader).current_term();
        if let Some(flush) = deferred_flush {
            match acknowledge_before_own_sync(&mut cluster, leader, flush, seed) {
                Ok(write) => acknowledged = Some(write),
                Err(missed) => failures.push(missed),
            }
        }
        cluster.crash(leader);
        killed = Some(leader);
        let horizon = cluster.now() + Duration::from_secs(10);
        if cluster.run_until_new_leader(old_term, horizon).is_none() {
            failures.push("liveness: no successor within 10 virtual seconds".into());
        }
        cluster.run_for(Duration::from_millis(500));

        // Phase 3: failover timeline bounds, keyed on the killed leader's
        // own crash event — so a disk-full victim fail-stopping before or
        // after the kill cannot shift the anchor. (This check used to be
        // skipped outright for any plan carrying a disk-full atom, because
        // the reconstructor keyed off the most recent crash of *anyone*.)
        if !failures.is_empty() {
            break;
        }
        match cluster.failover_timeline_for(leader) {
            Ok(timeline) => {
                // A repeated-kill trial has a clean network: the reflex
                // bound and the one-campaign property apply in full.
                let reflex = repeated_kills.is_some();
                let bounds = if reflex {
                    PhaseBounds::reflex_200ms()
                } else {
                    opts.bounds
                };
                if let Err(violations) = timeline.check_bounds(&bounds) {
                    failures.push(format!("bounds: kill #{round}: {violations}"));
                }
                if reflex && timeline.campaigns != 1 {
                    failures.push(format!(
                        "campaigns: kill #{round} took {} campaigns, not one",
                        timeline.campaigns
                    ));
                }
            }
            Err(error) => failures.push(format!("timeline: {error:?}")),
        }
    }

    // Phase 4: the killed node rejoins.
    if restart_killed {
        if let Some(node) = killed {
            cluster.restart(node);
            cluster.run_for(Duration::from_secs(1));
            if !cluster.is_alive(node) {
                failures.push(format!("restart: node {} did not stay up", node.get()));
            }
        }
    }

    // Phase 5: the cluster still commits real work under whatever faults
    // remain active. The invariant is "commit progress continues", not
    // "this exact index commits": a proposal accepted by a leader that
    // then loses leadership may legitimately never commit (Raft §8), so
    // only a cluster that stops committing altogether fails.
    let committed_before = max_commit(&cluster);
    let mut accepted = false;
    for i in 0..6u32 {
        let command = Bytes::from(format!("campaign-{seed}-{i}"));
        if propose_with_retry(&mut cluster, command, 6).is_some() {
            accepted = true;
        }
    }
    cluster.run_for(Duration::from_secs(2));
    if !accepted {
        failures.push("workload: no leader accepted a command".into());
    } else if max_commit(&cluster) <= committed_before {
        failures.push(format!(
            "workload: commit index stuck at {committed_before} despite accepted proposals"
        ));
    }

    // Phase 5b: the write acknowledged just before the kill is still
    // there — recommitted by the successor, identical, on every node that
    // has committed that far.
    if let Some((index, command)) = &acknowledged {
        let committed: Vec<ServerId> = ids
            .iter()
            .copied()
            .filter(|id| cluster.is_alive(*id) && cluster.node(*id).commit_index() >= *index)
            .collect();
        if committed.is_empty() {
            failures.push(format!(
                "acknowledged: nobody has committed through {index} again"
            ));
        }
        for id in committed {
            let held = cluster.node(id).log().entry(*index).map(|e| &e.payload);
            if held != Some(&Payload::Command(command.clone())) {
                failures.push(format!(
                    "acknowledged: write at {index} lost on node {}",
                    id.get()
                ));
            }
        }
    }

    // Phase 6: fail-stop semantics — a full disk must actually have
    // stopped its victim.
    if let Some((victim, _)) = disk_full_victim {
        if cluster.is_alive(victim) {
            failures.push(format!(
                "disk-full: node {} never fail-stopped",
                victim.get()
            ));
        }
    }

    // Phase 7: safety, always.
    if !cluster.safety().is_safe() {
        failures.push(format!("safety: {:?}", cluster.safety().violations()));
    }

    finish_trial(seed, failures, &cluster, auto_root, &root)
}

/// Proposes one command on `leader` and runs the cluster just long enough
/// for the followers to acknowledge it — half the flush time, several
/// network round trips — so the caller's kill lands after the commit and
/// before the leader's own deferred barrier. Returns the acknowledged
/// write, or what kept the trial out of the window.
fn acknowledge_before_own_sync(
    cluster: &mut SimCluster,
    leader: ServerId,
    flush: Duration,
    seed: u64,
) -> Result<(LogIndex, Bytes), String> {
    let command = Bytes::from(format!("campaign-{seed}-before-own-sync"));
    let index = cluster
        .propose(command.clone())
        .map_err(|e| format!("window: the leader refused the write: {e}"))?;
    cluster.run_for(Duration::from_micros(flush.as_micros() / 2));
    let node = cluster.node(leader);
    if node.commit_index() < index {
        return Err(format!(
            "window: followers had not acknowledged {index} half a flush later"
        ));
    }
    if node.durable_index() >= index {
        return Err(format!(
            "window: the leader's own barrier had already covered {index}"
        ));
    }
    Ok((index, command))
}

/// The highest commit index any node has reported so far.
fn max_commit(cluster: &SimCluster) -> u64 {
    cluster
        .events()
        .iter()
        .filter_map(|e| match e {
            ObservedEvent::Commit { index, .. } => Some(index.get()),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

fn finish_trial(
    seed: u64,
    failures: Vec<String>,
    cluster: &SimCluster,
    auto_root: bool,
    root: &Path,
) -> TrialOutcome {
    let digest = cluster
        .ids()
        .into_iter()
        .map(|id| {
            let mut out = format!("node {}\n", id.get());
            for timed in cluster.node_events(id) {
                timed.encode_line(&mut out);
            }
            out
        })
        .collect();
    if auto_root {
        // Best-effort cleanup of the auto-created temp directory.
        let _ = std::fs::remove_dir_all(root);
    }
    TrialOutcome {
        seed,
        failures,
        digest,
    }
}

/// Greedy delta-debugging: repeatedly drops any single atom whose
/// removal still reproduces the failure, until no atom is removable.
/// Deterministic, so the shrunken plan in a [`Reproducer`] replays.
pub fn shrink(plan: &FaultPlan, seed: u64, opts: &TrialOptions) -> FaultPlan {
    let mut atoms = plan.atoms.clone();
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < atoms.len() {
            let mut candidate = atoms.clone();
            candidate.remove(i);
            let outcome = run_trial(
                &FaultPlan {
                    atoms: candidate.clone(),
                },
                seed,
                opts,
            );
            if outcome.passed() {
                i += 1;
            } else {
                atoms = candidate;
                removed = true;
            }
        }
        if !removed {
            break;
        }
    }
    FaultPlan { atoms }
}

/// Sweeps `seeds` through `plan`, shrinking every failure into a
/// [`Reproducer`]. `scenario` labels the reproducers (and their replay
/// command lines).
pub fn sweep(
    scenario: &str,
    plan: &FaultPlan,
    seeds: impl IntoIterator<Item = u64>,
    opts: &TrialOptions,
) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in seeds {
        report.trials += 1;
        let outcome = run_trial(plan, seed, opts);
        if !outcome.passed() {
            let shrunk = shrink(plan, seed, opts);
            let failures = run_trial(&shrunk, seed, opts).failures;
            report.failures.push(Reproducer {
                scenario: scenario.to_string(),
                seed,
                plan: shrunk,
                failures,
            });
        }
    }
    report
}

/// One parsed `scenario seed` corpus line.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusEntry {
    /// Scenario name (must be in [`SCENARIO_NAMES`]).
    pub scenario: String,
    /// The seed to replay.
    pub seed: u64,
}

/// Parses a seed corpus: one `scenario seed` pair per line, `#` comments
/// and blank lines ignored.
///
/// # Errors
///
/// A message naming the offending line when a line is malformed or names
/// an unknown scenario.
pub fn parse_corpus(text: &str) -> Result<Vec<CorpusEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(scenario), Some(seed), None) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("corpus line {}: want `scenario seed`", lineno + 1));
        };
        if scenario_plan(scenario).is_none() {
            return Err(format!(
                "corpus line {}: unknown scenario `{scenario}`",
                lineno + 1
            ));
        }
        let seed = seed
            .parse::<u64>()
            .map_err(|e| format!("corpus line {}: bad seed: {e}", lineno + 1))?;
        entries.push(CorpusEntry {
            scenario: scenario.to_string(),
            seed,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(name: &str) -> FaultPlan {
        scenario_plan(name).expect("known scenario")
    }

    /// The committed seed corpus replays clean — every scenario/seed pair
    /// that once mattered keeps passing (tier-1 regression gate).
    #[test]
    fn corpus_replays_clean() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/campaign.txt");
        let text = std::fs::read_to_string(&path).expect("corpus file");
        let entries = parse_corpus(&text).expect("well-formed corpus");
        assert!(!entries.is_empty(), "corpus must not be empty");
        let opts = TrialOptions::default();
        for entry in entries {
            let outcome = run_trial(&plan(&entry.scenario), entry.seed, &opts);
            assert!(
                outcome.passed(),
                "corpus regression: scenario {} seed {} failed: {:?}",
                entry.scenario,
                entry.seed,
                outcome.failures
            );
        }
    }

    /// The tentpole acceptance: leader kill + lying fsync + asymmetric
    /// partition (plus chaos, skew, torn tails, and a rejoin) runs
    /// deterministically from its seed, passes every invariant, and
    /// stays within the campaign failover bounds.
    #[test]
    fn kitchen_sink_trial_is_deterministic_and_bounded() {
        let plan = plan("kitchen-sink");
        assert!(plan.needs_storage());
        let opts = TrialOptions::default();
        let first = run_trial(&plan, 42, &opts);
        assert!(first.passed(), "failures: {:?}", first.failures);
        let second = run_trial(&plan, 42, &opts);
        assert_eq!(
            first.digest, second.digest,
            "same (plan, seed) must replay byte-for-byte"
        );
        assert!(!first.digest.is_empty());
        let other = run_trial(&plan, 43, &opts);
        assert_ne!(first.digest, other.digest, "different seeds must differ");
    }

    /// A deliberately broken invariant (impossible phase bounds) shrinks
    /// the whole kitchen sink down to the one atom that triggers the
    /// check: the leader kill.
    #[test]
    fn impossible_bound_shrinks_to_the_kill_alone() {
        let full = plan("kitchen-sink");
        let opts = TrialOptions {
            bounds: PhaseBounds {
                detect_micros: 0,
                campaign_micros: 0,
                elect_micros: 0,
                commit_micros: 0,
            },
            ..TrialOptions::default()
        };
        let outcome = run_trial(&full, 42, &opts);
        assert!(!outcome.passed(), "zero bounds must fail a real failover");
        let minimal = shrink(&full, 42, &opts);
        assert_eq!(
            minimal.atoms,
            vec![FaultAtom::KillLeader],
            "shrink must isolate the kill: got [{minimal}]"
        );
    }

    /// Disk-full fail-stop: the victim halts, the rest of the cluster
    /// keeps committing.
    #[test]
    fn disk_full_victim_fail_stops_and_cluster_survives() {
        let outcome = run_trial(&plan("disk-full"), 7, &TrialOptions::default());
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        assert!(
            outcome.digest.contains("disk_full"),
            "the victim's event ring must carry the disk_full event"
        );
    }

    /// Regression (PR 9 residual): disk-full trials used to skip the
    /// failover-bound check entirely, because the victim's fail-stop
    /// crash confused most-recent-crash timeline keying. With the
    /// timeline keyed by the killed leader's own crash, the bound is
    /// enforced again: impossible (zero) bounds must fail the combined
    /// kill+disk-full plan — proving the check actually runs — while the
    /// default generous bounds pass it.
    #[test]
    fn disk_full_no_longer_skips_the_failover_bound() {
        let plan = plan("disk-full-failover");
        let zero = TrialOptions {
            bounds: PhaseBounds {
                detect_micros: 0,
                campaign_micros: 0,
                elect_micros: 0,
                commit_micros: 0,
            },
            ..TrialOptions::default()
        };
        let outcome = run_trial(&plan, 7, &zero);
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.starts_with("bounds:") || f.starts_with("timeline:")),
            "zero bounds must trip the (re-enabled) failover check under \
             disk-full; failures: {:?}",
            outcome.failures
        );
        let outcome = run_trial(&plan, 7, &TrialOptions::default());
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
    }

    /// The deferred-barrier window, end to end: the trial itself fails
    /// unless the kill lands after the followers' acknowledgement and
    /// before the leader's own barrier, so passing means a write committed
    /// without the leader's copy survived the leader's torn-tail crash.
    #[test]
    fn write_acknowledged_before_the_leaders_own_sync_survives_its_crash() {
        let plan = plan("crash-before-own-sync");
        assert!(plan.needs_storage());
        for seed in [11, 12, 13] {
            let outcome = run_trial(&plan, seed, &TrialOptions::default());
            assert!(outcome.passed(), "seed {seed}: {:?}", outcome.failures);
            assert!(
                outcome.digest.contains("wal_sync_barrier"),
                "barriers must show on the event stream"
            );
        }
        let first = run_trial(&plan, 11, &TrialOptions::default());
        let again = run_trial(&plan, 11, &TrialOptions::default());
        assert_eq!(
            first.digest, again.digest,
            "deferred flushes replay exactly"
        );
    }

    /// The repeated-kill schedule really is one: three kills with a rejoin
    /// before the second and the third, and one campaign per kill — four
    /// elections, four campaigns, counting the bootstrap.
    #[test]
    fn repeated_kill_kills_each_successor_and_counts_one_campaign_per_kill() {
        let outcome = run_trial(&plan("repeated-kill"), 1, &TrialOptions::default());
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
        let count = |name: &str| outcome.digest.matches(name).count();
        assert_eq!(count("node_killed"), 3);
        assert_eq!(count("node_restarted"), 2);
        assert_eq!(count("leader_elected"), 4);
        assert_eq!(count("campaign_started"), 4);
    }

    /// A quiet plan exercises the same pipeline with no faults — the
    /// guard that campaign plumbing itself never breaks a clean cluster.
    #[test]
    fn quiet_plan_passes() {
        let outcome = run_trial(&FaultPlan::quiet(), 1, &TrialOptions::default());
        assert!(outcome.passed(), "failures: {:?}", outcome.failures);
    }

    #[test]
    fn corpus_parser_accepts_comments_and_rejects_junk() {
        let ok = parse_corpus("# header\nbaseline 7\n\nkitchen-sink 42 # trailing\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[0].scenario, "baseline");
        assert_eq!(ok[1].seed, 42);
        assert!(parse_corpus("nope 3").is_err());
        assert!(parse_corpus("baseline").is_err());
        assert!(parse_corpus("baseline twelve").is_err());
    }

    #[test]
    fn plans_render_compactly() {
        assert_eq!(FaultPlan::quiet().to_string(), "quiet");
        assert_eq!(plan("baseline").to_string(), "kill-leader");
        assert!(plan("lying-disk").to_string().contains("lying-fsync(0.30)"));
        for name in SCENARIO_NAMES {
            assert!(scenario_plan(name).is_some(), "{name} must resolve");
        }
    }
}
