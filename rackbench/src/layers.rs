//! The per-layer ledger. Each layer is timed through its public functions,
//! called from here; nothing is instrumented inside the program.
//!
//! - core, symcache, kvstore: a single-thread replay of the op stream
//!   through three `CcNode`s, one call per layer step;
//! - wire: `Frame` encode/decode of the frames that replay would send;
//! - transport: a small-frame echo through the `Transport` trait;
//! - reactor: `Waker::wake` to `Poller::wait` return;
//! - server: the rack's own metric snapshots and sampled traces.

use crate::drive::NODES;
use crate::spec::{
    self, hot_keys, initial_tag, put_tag, render, Class, Stream, Workload, HOT_KEYS, KEYS,
    KVS_CAPACITY, SESSIONS,
};
use crate::stats::{median, percentile};
use cckvs::node::{CacheGet, CachePut, CcNode, NodeConfig, Outgoing, DEFAULT_KVS_THREADS};
use cckvs_net::metrics::MetricsSnapshot;
use cckvs_net::transport::TransportConfig;
use cckvs_net::wire::{encode_frame_into, read_frame, write_frame, Frame};
use cckvs_trace::{Event, EventKind};
use consistency::engine::Destination;
use consistency::lamport::Timestamp;
use consistency::messages::ConsistencyModel;
use reactor::{Events, Poller, Token, Waker};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workload::ZipfGenerator;

/// Median cost of reading the clock twice back to back, ns: subtracted
/// from every per-call timing.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..20_000)
        .map(|_| {
            let t = Instant::now();
            black_box(t.elapsed().as_nanos() as u64)
        })
        .collect();
    percentile(&mut samples, 50.0)
}

/// Per-call samples (ns) of one replayed layer step.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_nanos() as u64);
        out
    }

    /// Median per-call cost in ns, net of the clock's own cost.
    pub fn median_ns(&mut self, overhead: f64) -> f64 {
        (percentile(&mut self.0, 50.0) - overhead).max(0.0)
    }
}

/// What the single-thread replay measured.
#[derive(Default)]
pub struct Replay {
    pub read_hit: Samples,
    pub put_hot: Samples,
    pub kv_get: Samples,
    pub kv_put: Samples,
    pub deliver_inv: Samples,
    pub deliver_ack: Samples,
    pub deliver_update: Samples,
    /// The frames the replayed ops would put on the wire, in order.
    pub frames: Vec<Frame>,
    pub ops: u64,
}

fn peers(of: usize, dest: Destination) -> Vec<usize> {
    match dest {
        Destination::Broadcast => (0..NODES).filter(|&n| n != of).collect(),
        Destination::To(node) => vec![usize::from(node.0)],
    }
}

fn protocol_frame(out: &Outgoing) -> Frame {
    Frame::Protocol {
        msg: out.msg,
        bytes: out.bytes.as_deref().map(<[u8]>::to_vec),
    }
}

/// Replays the first `ops` ops of the workload's seeded session streams
/// through three in-process `CcNode`s on one thread, routing each op the
/// way a round-robin client and the rack would.
pub fn replay(w: &Workload, zipf: &ZipfGenerator, seed: u64, ops: u64) -> Replay {
    let nodes: Vec<CcNode> = (0..NODES)
        .map(|n| {
            CcNode::new(NodeConfig {
                model: ConsistencyModel::Lin,
                node: n,
                nodes: NODES,
                cache_capacity: HOT_KEYS as usize,
                kvs_capacity: KVS_CAPACITY,
                value_capacity: 64,
                kvs_threads: DEFAULT_KVS_THREADS,
            })
        })
        .collect();
    let home = |key: u64| nodes[0].home_node(key);
    for key in 0..KEYS {
        nodes[home(key)]
            .kvs_put(key, &render(key, initial_tag(key)), 1, home(key) as u8)
            .expect("replay load fits the KVS");
    }
    for key in hot_keys() {
        for node in &nodes {
            assert!(node.install_hot(key, &render(key, initial_tag(key)), Timestamp::ZERO));
        }
    }
    let mut r = Replay::default();
    let mut streams: Vec<Stream> = (0..SESSIONS)
        .map(|s| Stream::new(w, zipf, seed, s))
        .collect();
    let mut rr: Vec<usize> = (0..SESSIONS as usize).map(|s| s % NODES).collect();
    let mut puts = vec![0u64; SESSIONS as usize];
    // Client frames of each session waiting to fill a batch.
    let mut pending: Vec<(Vec<Frame>, Vec<Frame>)> = vec![Default::default(); SESSIONS as usize];
    let mut cold_version = 2u32;
    let mut corr = 0u64;
    for i in 0..ops {
        let s = (i % u64::from(SESSIONS)) as usize;
        let op = streams[s].next_op();
        let n = rr[s];
        rr[s] = (n + 1) % NODES;
        let key = op.key;
        let h = home(key);
        let value = op.class.is_put().then(|| {
            puts[s] += 1;
            render(key, put_tag(s as u32, puts[s]))
        });
        let (request, response) = match op.class {
            Class::GetHot => {
                let got = r.read_hit.time(|| nodes[n].try_cache_get(key));
                let Some(CacheGet::Hit { value, ts }) = got else {
                    panic!("replayed hot read of {key} missed: {got:?}");
                };
                (
                    Frame::Get { key },
                    Frame::GetResp {
                        cached: true,
                        ts,
                        value,
                    },
                )
            }
            Class::GetCold => {
                let value = r.kv_get.time(|| nodes[h].kvs_get(key));
                if h != n {
                    corr += 1;
                    r.frames.push(Frame::RpcReq {
                        corr,
                        inner: Box::new(Frame::MissGet { key }),
                    });
                    r.frames.push(Frame::RpcResp {
                        corr,
                        inner: Box::new(Frame::MissGetResp {
                            value: value.clone(),
                        }),
                    });
                }
                (
                    Frame::Get { key },
                    Frame::GetResp {
                        cached: false,
                        ts: Timestamp::ZERO,
                        value,
                    },
                )
            }
            Class::PutHot => {
                let value = value.expect("puts carry a value");
                let tag = spec::tag_of(key, &value).expect("rendered");
                let put = r.put_hot.time(|| nodes[n].try_cache_put(key, &value, tag));
                let Some(CachePut::Pending { ts, outgoing }) = put else {
                    panic!("replayed Lin write of {key} did not start: {put:?}");
                };
                nodes[n].on_committed(key, ts, Box::new(|| {}));
                let mut acks = Vec::new();
                for inv in &outgoing {
                    for p in peers(n, inv.dest) {
                        r.frames.push(protocol_frame(inv));
                        acks.extend(r.deliver_inv.time(|| nodes[p].deliver(&inv.msg, None)));
                    }
                }
                let mut updates = Vec::new();
                for ack in &acks {
                    r.frames.push(protocol_frame(ack));
                    updates.extend(r.deliver_ack.time(|| nodes[n].deliver(&ack.msg, None)));
                }
                for update in &updates {
                    for p in peers(n, update.dest) {
                        r.frames.push(protocol_frame(update));
                        let bytes = update.bytes.as_deref();
                        r.deliver_update
                            .time(|| nodes[p].deliver(&update.msg, bytes));
                    }
                }
                (
                    Frame::Put { key, value },
                    Frame::PutResp { cached: true, ts },
                )
            }
            Class::PutCold => {
                let value = value.expect("puts carry a value");
                cold_version += 1;
                r.kv_put
                    .time(|| nodes[h].kvs_put(key, &value, cold_version, n as u8))
                    .expect("replayed cold put fits the KVS");
                let ts = Timestamp::new(cold_version, consistency::lamport::NodeId(h as u8));
                if h != n {
                    corr += 1;
                    r.frames.push(Frame::RpcReq {
                        corr,
                        inner: Box::new(Frame::MissPut {
                            key,
                            tag: cold_version,
                            writer: n as u8,
                            value: value.clone(),
                        }),
                    });
                    r.frames.push(Frame::RpcResp {
                        corr,
                        inner: Box::new(Frame::MissPutResp { ts }),
                    });
                }
                (
                    Frame::Put { key, value },
                    Frame::PutResp { cached: false, ts },
                )
            }
        };
        match w.batch {
            None => r.frames.extend([request, response]),
            Some(batch) => {
                let (reqs, resps) = &mut pending[s];
                reqs.push(request);
                resps.push(response);
                if reqs.len() == batch {
                    r.frames.push(Frame::Batch {
                        frames: std::mem::take(reqs),
                    });
                    r.frames.push(Frame::Batch {
                        frames: std::mem::take(resps),
                    });
                }
            }
        }
        r.ops += 1;
    }
    for (reqs, resps) in pending {
        if !reqs.is_empty() {
            r.frames.push(Frame::Batch { frames: reqs });
            r.frames.push(Frame::Batch { frames: resps });
        }
    }
    r
}

/// Wire costs of a frame sequence.
pub struct WireCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes: u64,
}

/// Encodes and decodes `frames` repeatedly for at least `budget`; reports
/// ns per frame and the encoded size of one pass (length prefixes
/// included).
pub fn wire_cost(frames: &[Frame], budget: Duration) -> WireCost {
    let mut buf = Vec::with_capacity(1 << 16);
    let bytes: u64 = frames
        .iter()
        .map(|f| {
            buf.clear();
            encode_frame_into(&mut buf, f);
            buf.len() as u64
        })
        .sum();
    let payloads: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let per_pass = |pass: &mut dyn FnMut()| {
        let mut laps = Vec::new();
        let started = Instant::now();
        while started.elapsed() < budget || laps.len() < 3 {
            let t = Instant::now();
            pass();
            laps.push(t.elapsed().as_nanos() as f64 / frames.len().max(1) as f64);
        }
        median(&laps)
    };
    let encode_ns = per_pass(&mut || {
        for f in frames {
            buf.clear();
            encode_frame_into(&mut buf, black_box(f));
            black_box(&buf);
        }
    });
    let decode_ns = per_pass(&mut || {
        for p in &payloads {
            black_box(Frame::decode(black_box(p)).expect("own encoding decodes"));
        }
    });
    WireCost {
        encode_ns,
        decode_ns,
        bytes,
    }
}

/// Median round trip, µs, of a small frame echoed through the fabric's
/// `Transport` over loopback.
pub fn echo_rtt_us(fabric: TransportConfig, rounds: usize) -> io::Result<f64> {
    let transport = fabric.build();
    let mut listener = transport.listen("127.0.0.1:0".parse().expect("loopback address"))?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> io::Result<()> {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut conn = loop {
                if let Some(conn) = listener.accept()? {
                    break conn;
                }
                if Instant::now() > deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "echo accept"));
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            conn.set_nonblocking(false)?;
            while let Some(frame) = read_frame(&mut conn)? {
                write_frame(&mut conn, &frame)?;
                conn.flush()?;
            }
            Ok(())
        });
        let mut conn = transport.dial(addr, Duration::from_secs(5))?;
        let mut samples = Vec::with_capacity(rounds);
        for i in 0..rounds + rounds / 10 {
            let t = Instant::now();
            write_frame(&mut conn, &Frame::Ping)?;
            conn.flush()?;
            read_frame(&mut conn)?;
            if i >= rounds / 10 {
                samples.push(t.elapsed().as_nanos() as u64);
            }
        }
        drop(conn);
        echo.join().expect("echo thread panicked")?;
        Ok(percentile(&mut samples, 50.0) / 1e3)
    })
}

/// Median time, µs, from `Waker::wake` on one thread to `Poller::wait`
/// returning on another.
pub fn wake_us(rounds: usize) -> io::Result<f64> {
    let poller = Poller::new()?;
    let waker = Waker::new(&poller, Token(0))?;
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| -> io::Result<()> {
            let mut events = Events::with_capacity(4);
            loop {
                poller.wait(&mut events, None)?;
                let woke = Instant::now();
                waker.drain();
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                if tx.send(woke).is_err() {
                    return Ok(());
                }
            }
        });
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            waker.wake();
            let woke = rx.recv().expect("waiter alive");
            samples.push(woke.saturating_duration_since(t).as_nanos() as u64);
        }
        stop.store(true, Ordering::SeqCst);
        waker.wake();
        waiter.join().expect("waiter thread panicked")?;
        Ok(percentile(&mut samples, 50.0) / 1e3)
    })
}

/// Rack-wide server counters over a window (sum of node deltas).
pub struct ServerDelta {
    pub ops: f64,
    pub puts: f64,
    pub hits: f64,
    pub misses: f64,
    pub remote_reads: f64,
    pub remote_writes: f64,
    pub protocol_out: f64,
    pub priority_lane_frames: f64,
    pub cork_full: f64,
    pub cork_deadline: f64,
    pub cork_idle: f64,
    pub credit_stalls: f64,
}

pub fn server_delta(before: &[MetricsSnapshot], after: &[MetricsSnapshot]) -> ServerDelta {
    let d = |f: fn(&MetricsSnapshot) -> u64| -> f64 {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| (f(a) - f(b)) as f64)
            .sum()
    };
    ServerDelta {
        ops: d(|s| s.gets + s.puts),
        puts: d(|s| s.puts),
        hits: d(|s| s.cache_hits),
        misses: d(|s| s.cache_misses),
        remote_reads: d(|s| s.remote_reads),
        remote_writes: d(|s| s.remote_writes),
        protocol_out: d(|s| s.protocol_out),
        priority_lane_frames: d(|s| s.priority_lane_frames),
        cork_full: d(|s| s.cork_flush_full),
        cork_deadline: d(|s| s.cork_flush_deadline),
        cork_idle: d(|s| s.cork_flush_idle),
        credit_stalls: d(|s| s.credit_stalls),
    }
}

/// A phase histogram's p50 (or p99) across nodes, µs, each node's value
/// weighted by its sample count.
pub fn weighted_us(snaps: &[MetricsSnapshot], f: fn(&MetricsSnapshot) -> (u64, u64)) -> f64 {
    let (sum, count) = snaps.iter().fold((0.0, 0.0), |(sum, count), s| {
        let (value_ns, n) = f(s);
        (sum + value_ns as f64 * n as f64, count + n as f64)
    });
    if count == 0.0 {
        0.0
    } else {
        sum / count / 1e3
    }
}

/// Decode-to-respond residency of sampled client ops, from every node's
/// trace dump: median µs and the number of ops it covers.
pub fn residency_us(dumps: &[(u64, Vec<Event>)]) -> (f64, usize) {
    let mut samples = Vec::new();
    for (_, events) in dumps {
        let mut spans: HashMap<u64, (Option<u64>, Option<u64>)> = HashMap::new();
        for ev in events {
            let span = spans.entry(ev.trace_id).or_default();
            match ev.kind {
                EventKind::Decode => span.0 = Some(span.0.map_or(ev.t_ns, |t| t.min(ev.t_ns))),
                EventKind::Respond => span.1 = Some(span.1.map_or(ev.t_ns, |t| t.max(ev.t_ns))),
                _ => {}
            }
        }
        samples.extend(spans.values().filter_map(|span| match *span {
            (Some(d), Some(r)) if r >= d => Some(r - d),
            _ => None,
        }));
    }
    let n = samples.len();
    (percentile(&mut samples, 50.0) / 1e3, n)
}
