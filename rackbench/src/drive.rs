//! Boots the rack, bulk-loads it and drives a workload through the public
//! client API, logging every op for the oracle.

use crate::oracle::{check_read, Rec};
use crate::spec::{
    self, hot_keys, initial_tag, put_tag, render, Class, Stream, Workload, HOT_KEYS, KEYS,
    KVS_CAPACITY, SESSIONS, SHARDS,
};
use crate::stats;
use cckvs_net::client::{BatchConfig, BatchOutcome, Client, SharedHistory};
use cckvs_net::metrics::{Metrics, MetricsSnapshot};
use cckvs_net::rack::{Rack, RackConfig};
use cckvs_net::server::ReactorConfig;
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::ZipfGenerator;

/// Nodes in the rack.
pub const NODES: usize = 3;
/// Client batch size of the bulk load.
const LOAD_BATCH: usize = 32;
/// Client batch size of the post-run reads.
const READBACK_BATCH: usize = 64;
/// Unmeasured lead-in of every phase: connections open, caches warm.
const WARMUP: Duration = Duration::from_millis(500);
/// Length of one lap of the measured window; throughput and CPU per op
/// are medians over laps, so a lap disturbed by the host counts once.
const LAP: Duration = Duration::from_secs(1);

fn rack_config(w: &Workload, metrics: bool) -> RackConfig {
    let mut cfg = RackConfig::small(ConsistencyModel::Lin, NODES);
    cfg.cache_capacity = HOT_KEYS as usize;
    cfg.kvs_capacity = KVS_CAPACITY;
    cfg.metrics = metrics;
    cfg.reactor = ReactorConfig { shards: SHARDS };
    cfg.transport = w.transport;
    cfg
}

/// Launches the rack, bulk-loads every key with its derived value and
/// installs the hot set. Returns the rack and the seconds it took.
pub fn set_up(w: &Workload, metrics: bool) -> io::Result<(Rack, f64)> {
    let started = Instant::now();
    let rack = Rack::launch(rack_config(w, metrics))?;
    std::thread::scope(|s| {
        let loaders: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let builder = rack.client().session(1000 + i).batching(BatchConfig {
                    max_ops: LOAD_BATCH,
                    ..BatchConfig::default()
                });
                s.spawn(move || load_slice(builder, i as u64, u64::from(SESSIONS)))
            })
            .collect();
        loaders
            .into_iter()
            .try_for_each(|h| h.join().expect("loader thread panicked"))
    })?;
    let hot: Vec<(u64, Vec<u8>)> = hot_keys()
        .into_iter()
        .map(|k| (k, render(k, initial_tag(k))))
        .collect();
    rack.install_hot_set(&hot)?;
    Ok((rack, started.elapsed().as_secs_f64()))
}

/// Writes keys `first, first + step, ...` with their bulk-loaded values.
fn load_slice(builder: cckvs_net::client::ClientBuilder, first: u64, step: u64) -> io::Result<()> {
    let mut client = builder.connect()?;
    let mut key = first;
    while key < KEYS {
        client.queue_put(key, &render(key, initial_tag(key)))?;
        key += step;
        if client.queued() == 0 || key >= KEYS {
            for outcome in client.flush()? {
                if !matches!(outcome, BatchOutcome::Put { cached: false, .. }) {
                    return Err(io::Error::other(format!("bulk load: {outcome:?}")));
                }
            }
        }
    }
    Ok(())
}

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// State shared by the sessions of a run.
pub struct Shared {
    phase: AtomicU8,
    /// The oracle's logical clock: ticks at every invoke and response.
    clock: AtomicU64,
    /// Ops completed in the measured window, across sessions.
    done: AtomicU64,
    pub history: Arc<SharedHistory>,
}

impl Shared {
    pub fn new() -> Shared {
        Shared {
            phase: AtomicU8::new(WARM),
            clock: AtomicU64::new(1),
            done: AtomicU64::new(0),
            history: Arc::new(SharedHistory::new()),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }
}

/// What one session did.
#[derive(Default)]
pub struct SessionOut {
    pub log: Vec<Rec>,
    /// Per-op latency in ns of measured ops, by [`Class`].
    pub lat: [Vec<u64>; 4],
    /// Round trip in ns of each measured flush (each op, unbatched).
    pub flush_ns: Vec<u64>,
    pub measured_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Ops per [`Class`], over the whole session.
    pub class_ops: [u64; 4],
    /// Cache hits the client counted from the servers' responses.
    pub client_hits: u64,
    pub violations: Vec<String>,
}

/// One lap of the measured window: ops completed, CPU spent, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    pub ops: u64,
    pub cpu_s: f64,
    pub secs: f64,
}

/// Results of one timed phase.
pub struct PhaseOut {
    pub sessions: Vec<SessionOut>,
    pub laps: Vec<Lap>,
    /// Per-node server counters at the start and end of the window.
    pub before: Vec<MetricsSnapshot>,
    pub after: Vec<MetricsSnapshot>,
}

impl PhaseOut {
    pub fn measured_ops(&self) -> u64 {
        self.sessions.iter().map(|s| s.measured_ops).sum()
    }

    /// Median over laps of ops per second.
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self.laps.iter().map(|l| l.ops as f64 / l.secs).collect();
        stats::median(&rates)
    }

    /// Median over laps of process CPU µs per completed op.
    pub fn cpu_us_per_op(&self) -> f64 {
        let costs: Vec<f64> = self
            .laps
            .iter()
            .map(|l| l.cpu_s * 1e6 / l.ops as f64)
            .collect();
        stats::median(&costs)
    }

    /// Latencies of `class` across sessions, ns.
    pub fn lat(&self, class: Class) -> Vec<u64> {
        self.sessions
            .iter()
            .flat_map(|s| s.lat[class as usize].iter().copied())
            .collect()
    }
}

fn snapshots(rack: &Rack) -> Vec<MetricsSnapshot> {
    (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot())
        .collect()
}

/// Session ids of phase `phase`: distinct per phase, so put tags and
/// op streams never repeat within a run.
fn session_id(phase: u32, session: u32) -> u32 {
    phase * SESSIONS + session
}

/// Drives the workload from [`SESSIONS`] closed-loop sessions for a
/// warm-up plus `secs` measured seconds.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    rack: &Rack,
    w: &Workload,
    zipf: &ZipfGenerator,
    seed: u64,
    secs: f64,
    phase: u32,
    trace_every: u64,
    shared: &Shared,
) -> PhaseOut {
    shared.phase.store(WARM, Ordering::SeqCst);
    shared.done.store(0, Ordering::SeqCst);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let id = session_id(phase, i);
                let stream = Stream::new(w, zipf, seed, id);
                let metrics = Arc::new(Metrics::new());
                let client = session_builder(rack, w, id, shared, &metrics)
                    .trace_sampling(trace_every)
                    .connect();
                s.spawn(move || drive(client, stream, id, w.batch, None, shared, &metrics))
            })
            .collect();
        std::thread::sleep(WARMUP);
        let before = snapshots(rack);
        let laps = measure_laps(secs, shared);
        let sessions = handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect();
        PhaseOut {
            sessions,
            laps,
            before,
            after: snapshots(rack),
        }
    })
}

/// Opens the measured window for `secs` seconds, cut into laps of
/// [`LAP`] (the last one may be shorter), then stops the sessions.
fn measure_laps(secs: f64, shared: &Shared) -> Vec<Lap> {
    let laps = (secs / LAP.as_secs_f64()).round().max(1.0) as u32;
    let lap = Duration::from_secs_f64(secs / f64::from(laps));
    let mut out = Vec::with_capacity(laps as usize);
    let started = Instant::now();
    let (mut ops0, mut cpu0, mut t0) = (0, stats::usage().cpu_s, 0.0);
    shared.phase.store(MEASURE, Ordering::SeqCst);
    for i in 1..=laps {
        let due = lap * i;
        std::thread::sleep(due.saturating_sub(started.elapsed()));
        if i == laps {
            shared.phase.store(STOP, Ordering::SeqCst);
        }
        let (ops, cpu, t) = (
            shared.done.load(Ordering::SeqCst),
            stats::usage().cpu_s,
            started.elapsed().as_secs_f64(),
        );
        out.push(Lap {
            ops: ops - ops0,
            cpu_s: cpu - cpu0,
            secs: t - t0,
        });
        (ops0, cpu0, t0) = (ops, cpu, t);
    }
    out
}

/// Drives exactly `ops` ops of a seeded stream from one session, with the
/// rack otherwise idle: every count it moves repeats exactly per seed.
pub fn run_counted(
    rack: &Rack,
    w: &Workload,
    zipf: &ZipfGenerator,
    seed: u64,
    ops: u64,
    phase: u32,
    shared: &Shared,
) -> (SessionOut, Vec<MetricsSnapshot>, Vec<MetricsSnapshot>) {
    let id = session_id(phase, 0);
    let stream = Stream::new(w, zipf, seed, id);
    let metrics = Arc::new(Metrics::new());
    let client = session_builder(rack, w, id, shared, &metrics).connect();
    let before = snapshots(rack);
    shared.phase.store(MEASURE, Ordering::SeqCst);
    let out = drive(client, stream, id, w.batch, Some(ops), shared, &metrics);
    shared.phase.store(STOP, Ordering::SeqCst);
    (out, before, snapshots(rack))
}

fn session_builder(
    rack: &Rack,
    w: &Workload,
    id: u32,
    shared: &Shared,
    metrics: &Arc<Metrics>,
) -> cckvs_net::client::ClientBuilder {
    let builder = rack
        .client()
        .session(id)
        .policy(LoadBalancePolicy::RoundRobin)
        .history(Arc::clone(&shared.history))
        .metrics(Arc::clone(metrics));
    match w.batch {
        Some(max_ops) => builder.batching(BatchConfig {
            max_ops,
            ..BatchConfig::default()
        }),
        None => builder,
    }
}

/// One op of the current round: what was generated, the tag it writes,
/// its logical invocation time and when it was issued.
struct Issued {
    op: spec::GenOp,
    tag: u64,
    inv: u64,
    at: Instant,
}

/// Issues one round: a single op unbatched, or a whole batch then its
/// flush. Returns the value each get read (`None` for puts).
fn issue_round(
    client: &mut Client,
    stream: &mut Stream,
    id: u32,
    puts: &mut u64,
    batch: Option<usize>,
    shared: &Shared,
    round: &mut Vec<Issued>,
) -> io::Result<Vec<Option<Vec<u8>>>> {
    for _ in 0..batch.unwrap_or(1) {
        let op = stream.next_op();
        let tag = if op.class.is_put() {
            *puts += 1;
            put_tag(id, *puts)
        } else {
            0
        };
        let inv = shared.tick();
        round.push(Issued {
            op,
            tag,
            inv,
            at: Instant::now(),
        });
        match (batch, op.class.is_put()) {
            (None, false) => return Ok(vec![Some(client.get(op.key)?)]),
            (None, true) => {
                client.put(op.key, &render(op.key, tag))?;
                return Ok(vec![None]);
            }
            (Some(_), false) => client.queue_get(op.key)?,
            (Some(_), true) => client.queue_put(op.key, &render(op.key, tag))?,
        }
    }
    Ok(client
        .flush()?
        .into_iter()
        .map(|o| match o {
            BatchOutcome::Get { value, .. } => Some(value),
            BatchOutcome::Put { .. } => None,
        })
        .collect())
}

/// The session loop: runs until the phase stops, or for `limit` ops.
fn drive(
    client: io::Result<Client>,
    mut stream: Stream,
    id: u32,
    batch: Option<usize>,
    limit: Option<u64>,
    shared: &Shared,
    metrics: &Metrics,
) -> SessionOut {
    let mut out = SessionOut::default();
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            out.violations
                .push(format!("session {id}: connect failed: {e}"));
            return out;
        }
    };
    let mut puts = 0u64;
    let mut round = Vec::with_capacity(batch.unwrap_or(1));
    loop {
        let phase = shared.phase.load(Ordering::SeqCst);
        let done = match limit {
            Some(n) => out.attempted >= n,
            None => phase == STOP,
        };
        if done {
            break;
        }
        round.clear();
        let result = issue_round(
            &mut client,
            &mut stream,
            id,
            &mut puts,
            batch,
            shared,
            &mut round,
        );
        let finished = Instant::now();
        let resp = shared.tick();
        out.attempted += round.len() as u64;
        let values = match result {
            Ok(values) if values.len() == round.len() => values,
            Ok(values) => {
                out.failed += round.len() as u64;
                out.violations.push(format!(
                    "session {id}: flush of {} ops returned {} outcomes",
                    round.len(),
                    values.len()
                ));
                break;
            }
            Err(e) => {
                out.failed += round.len() as u64;
                out.violations.push(format!("session {id}: op failed: {e}"));
                break;
            }
        };
        let measured = phase == MEASURE;
        if measured {
            out.flush_ns
                .push((finished - round[0].at).as_nanos() as u64);
        }
        for (issued, value) in round.iter().zip(values) {
            let op = issued.op;
            out.class_ops[op.class as usize] += 1;
            let tag = match value {
                None => issued.tag,
                Some(value) => match check_read(op.key, &value) {
                    Ok(tag) => tag,
                    Err(e) => {
                        out.violations.push(e);
                        continue;
                    }
                },
            };
            out.log.push(Rec {
                key: op.key,
                put: op.class.is_put(),
                tag,
                inv: issued.inv,
                resp,
            });
            if measured {
                shared.done.fetch_add(1, Ordering::Relaxed);
                // A batched op's latency runs from its queueing to the
                // flush that returned it.
                out.lat[op.class as usize].push((finished - issued.at).as_nanos() as u64);
                out.measured_ops += 1;
            }
        }
    }
    out.client_hits = metrics.snapshot().cache_hits;
    out
}

/// Reads `keys` through one session pinned to `node`, in batches.
pub fn read_back(rack: &Rack, node: usize, keys: &[u64]) -> io::Result<Vec<(u64, Vec<u8>)>> {
    let mut client = rack
        .client()
        .session(2000 + node as u32)
        .policy(LoadBalancePolicy::Pinned(node))
        .batching(BatchConfig {
            max_ops: READBACK_BATCH,
            ..BatchConfig::default()
        })
        .connect()?;
    let mut values = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(READBACK_BATCH) {
        for &key in chunk {
            client.queue_get(key)?;
        }
        for (&key, outcome) in chunk.iter().zip(client.flush()?) {
            match outcome {
                BatchOutcome::Get { value, .. } => values.push((key, value)),
                other => return Err(io::Error::other(format!("read back: {other:?}"))),
            }
        }
    }
    Ok(values)
}
