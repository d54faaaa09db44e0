//! `rackbench`: boots a 3-node loopback ccKVS rack, bulk-loads a dataset
//! whose every value the benchmark can verify, drives one named skewed
//! workload and prints every metric by name and unit, then, as its last
//! line, one JSON object.
//!
//! ```text
//! rackbench --workload skew-read --seed 1 --seconds 10 --trace 0
//! rackbench --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` splits the
//! measured time into an untraced and a traced half, then prints the
//! per-layer ledger, the exact counts of a fixed-length single-session
//! phase, the reconciliation of layer sums against the end-to-end p50s,
//! and the tracing overhead. Every run checks the rack's outputs with the
//! benchmark's own oracle (see `oracle.rs`) and the per-key Lin checker.

mod drive;
mod layers;
mod oracle;
mod spec;
mod stats;

use cckvs_net::transport::{TransportConfig, TransportKind};
use drive::{PhaseOut, SessionOut, Shared};
use spec::{Class, Workload};
use std::collections::BTreeSet;
use std::io;
use std::time::Duration;

/// Rack set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// One traced client op in this many, in the traced half.
const TRACE_EVERY: u64 = 32;
/// Ops of the fixed-length phase whose counts repeat exactly.
const COUNT_OPS: u64 = 4_000;
/// Ops replayed through the in-process nodes.
const REPLAY_OPS: u64 = 400_000;
/// Round trips timed by the transport echo and the reactor wake.
const PROBE_ROUNDS: usize = 2_000;

const USAGE: &str = "usage: rackbench --workload <skew-read|skew-write|udp-batched> \
--seed <n> --seconds <s> --trace <0|1>\n       rackbench --self-test";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
}

fn parse_args() -> Result<Mode, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--self-test" {
            return Ok(Mode::SelfTest);
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Mode::SelfTest) => match oracle::self_test() {
            Ok(caught) => {
                println!("oracle self-test: all {caught} planted faults flagged");
                return;
            }
            Err(e) => {
                eprintln!("oracle self-test FAILED: {e}");
                std::process::exit(1);
            }
        },
        Ok(Mode::Run(args)) => args,
        Err(e) => {
            eprintln!("rackbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(w) = spec::workload(&args.workload) else {
        eprintln!("rackbench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    if let Err(e) = run(&w, &args) {
        eprintln!("rackbench: {e}");
        std::process::exit(1);
    }
}

/// A named metric as printed.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn print_section(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("{:<40} {:>14.3} {}", m.name, m.value, m.unit);
    }
}

fn p(samples: Vec<u64>, pct: f64) -> f64 {
    let mut samples = samples;
    stats::percentile(&mut samples, pct) / 1e3
}

fn run(w: &Workload, args: &Args) -> io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Every thread of the run (reactors, sessions, probes) shares one CPU,
    // so each hand-off is a wake-up on a CPU that is already running.
    // Spread over both CPUs of a 2-vCPU guest, a hand-off often waits for
    // the hypervisor to resume an idle vCPU: runs then lost up to half
    // their throughput to get p99s of 1-2 ms while the p50s barely moved.
    let cpu = stats::pin_to_one_cpu()?;
    println!(
        "rackbench workload={} seed={} seconds={} trace={} | host nproc={nproc}, run pinned to cpu {cpu}, fabric={} over loopback",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.transport.kind.label()
    );
    let mut violations: Vec<String> = Vec::new();
    match oracle::self_test() {
        Ok(caught) => println!("oracle self-test: all {caught} planted faults flagged"),
        Err(e) => violations.push(format!("oracle self-test: {e}")),
    }

    // Set up several times; the last rack serves the run.
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut rack = None;
    for _ in 0..SETUPS {
        if let Some(old) = rack.take() {
            cckvs_net::rack::Rack::shutdown(old);
        }
        let (fresh, secs) = drive::set_up(w, args.trace)?;
        setup_secs.push(secs);
        rack = Some(fresh);
    }
    let rack = rack.expect("at least one set-up");
    // Peak memory of the loaded rack, read before the run's own op logs
    // and checked history start to grow.
    let rss_peak_mb = stats::usage().peak_rss_mb;
    println!("set-ups (s): {setup_secs:.3?}");

    let zipf = spec::zipf();
    let shared = Shared::new();
    let half = args.seconds / 2.0;
    let (main, traced, traces, counted) = if args.trace {
        let main = drive::run_phase(&rack, w, &zipf, args.seed, half, 0, 0, &shared);
        let traced = drive::run_phase(&rack, w, &zipf, args.seed, half, 1, TRACE_EVERY, &shared);
        let traces = cckvs_net::client::collect_traces_via(
            &*rack.transport().build(),
            &rack.client_addrs(),
        )?;
        let counted = drive::run_counted(&rack, w, &zipf, args.seed, COUNT_OPS, 2, &shared);
        (main, Some(traced), traces, Some(counted))
    } else {
        let main = drive::run_phase(&rack, w, &zipf, args.seed, args.seconds, 0, 0, &shared);
        (main, None, Vec::new(), None)
    };

    // Oracle checks, on the quiescent rack.
    let mut sessions: Vec<&SessionOut> = main.sessions.iter().collect();
    sessions.extend(traced.iter().flat_map(|t| t.sessions.iter()));
    sessions.extend(counted.iter().map(|c| &c.0));
    let attempted: u64 = sessions.iter().map(|s| s.attempted).sum();
    let failed: u64 = sessions.iter().map(|s| s.failed).sum();
    for s in &sessions {
        violations.extend(s.violations.iter().cloned());
        let hot = s.class_ops[Class::GetHot as usize] + s.class_ops[Class::PutHot as usize];
        if hot != s.client_hits {
            violations.push(format!(
                "{hot} ops on hot-set keys but {} cache hits",
                s.client_hits
            ));
        }
    }
    let log: Vec<oracle::Rec> = sessions
        .iter()
        .flat_map(|s| s.log.iter().copied())
        .collect();
    let checks = verify(&rack, &log, &shared)?;
    violations.extend(checks.violations);
    println!(
        "checks: {} ops logged, {} final reads, {} hot keys compared on every node, {} ops in the Lin history",
        log.len(),
        checks.finals,
        spec::HOT_KEYS,
        checks.lin_ops
    );
    rack.shutdown();

    // End-to-end metrics, from the untraced phase.
    let mut gets = main.lat(Class::GetHot);
    gets.extend(main.lat(Class::GetCold));
    let mut puts = main.lat(Class::PutHot);
    puts.extend(main.lat(Class::PutCold));
    let title = format!(
        "end-to-end ({} measured ops: {} gets, {} puts)",
        main.measured_ops(),
        gets.len(),
        puts.len()
    );
    let e2e = vec![
        metric("throughput_ops_s", main.throughput(), "ops/s"),
        metric("get_hot_p50_us", p(main.lat(Class::GetHot), 50.0), "us"),
        metric("get_cold_p50_us", p(main.lat(Class::GetCold), 50.0), "us"),
        metric("put_hot_p50_us", p(main.lat(Class::PutHot), 50.0), "us"),
        metric("put_cold_p50_us", p(main.lat(Class::PutCold), 50.0), "us"),
        metric("get_p99_us", p(gets, 99.0), "us"),
        metric("put_p99_us", p(puts, 99.0), "us"),
        metric("cpu_us_per_op", main.cpu_us_per_op(), "us"),
        metric("setup_s", stats::median(&setup_secs), "s"),
        metric("rss_peak_mb", rss_peak_mb, "MB"),
    ];
    let lap_rates: Vec<String> = main
        .laps
        .iter()
        .map(|l| format!("{:.0}", l.ops as f64 / l.secs))
        .collect();
    println!("lap throughputs (ops/s): {}", lap_rates.join(" "));
    print_section(&title, &e2e);

    let reported = if args.trace {
        let traced = traced.expect("traced phase ran");
        let (count_out, count_before, count_after) = counted.expect("count phase ran");
        ledger(
            w,
            args.seed,
            &main,
            &traced,
            &traces,
            &count_out,
            &layers::server_delta(&count_before, &count_after),
            &mut violations,
        )?
    } else {
        e2e.into_iter().filter(|m| gated(&m.name)).collect()
    };

    for v in &violations {
        println!("VIOLATION: {v}");
    }
    let correct = violations.is_empty();
    println!("{}", result_json(correct, attempted, failed, &reported));
    Ok(())
}

/// End-to-end metrics held to a bound in `BENCHMARK.json`; the rest print
/// but are not gated (their run-to-run spread is recorded in the README).
fn gated(name: &str) -> bool {
    !matches!(name, "get_p99_us" | "put_p99_us")
}

struct Checks {
    violations: Vec<String>,
    finals: usize,
    lin_ops: usize,
}

/// Runs the oracle over the op log, reads every written key and every hot
/// key back, and runs the program's per-key Lin checker on its history.
fn verify(
    rack: &cckvs_net::rack::Rack,
    log: &[oracle::Rec],
    shared: &Shared,
) -> io::Result<Checks> {
    let mut violations = Vec::new();
    if let Err(e) = oracle::check_history(log) {
        violations.push(e);
    }
    let hot: Vec<u64> = spec::hot_keys();
    let hot_set: BTreeSet<u64> = hot.iter().copied().collect();
    let written: BTreeSet<u64> = log.iter().filter(|r| r.put).map(|r| r.key).collect();
    let cold_written: Vec<u64> = written.difference(&hot_set).copied().collect();
    let mut finals = Vec::new();
    let mut tag_of = |key: u64, value: &[u8]| match oracle::check_read(key, value) {
        Ok(tag) => Some(tag),
        Err(e) => {
            violations.push(format!("final read: {e}"));
            None
        }
    };
    for (key, value) in drive::read_back(rack, 0, &cold_written)? {
        finals.extend(tag_of(key, &value).map(|t| (key, t)));
    }
    let mut replicas: Vec<(u64, Vec<u64>)> = hot.iter().map(|&k| (k, Vec::new())).collect();
    for node in 0..rack.nodes() {
        for (i, (key, value)) in drive::read_back(rack, node, &hot)?.into_iter().enumerate() {
            if let Some(tag) = tag_of(key, &value) {
                replicas[i].1.push(tag);
                if written.contains(&key) {
                    finals.push((key, tag));
                }
            }
        }
    }
    violations.extend(oracle::check_final(log, &finals).err());
    violations.extend(oracle::check_symmetry(&replicas).err());
    let history = shared.history.snapshot();
    if let Err(v) = history.check_per_key_lin() {
        violations.push(format!("per-key Lin checker: {v}"));
    }
    Ok(Checks {
        violations,
        finals: finals.len(),
        lin_ops: history.len(),
    })
}

/// The traced run's per-layer ledger, exact counts and reconciliation.
#[allow(clippy::too_many_arguments)]
fn ledger(
    w: &Workload,
    seed: u64,
    main: &PhaseOut,
    traced: &PhaseOut,
    traces: &[(u64, Vec<cckvs_trace::Event>)],
    counted: &SessionOut,
    count_delta: &layers::ServerDelta,
    violations: &mut Vec<String>,
) -> io::Result<Vec<Metric>> {
    let overhead = layers::timer_overhead_ns();
    let zipf = spec::zipf();
    let mut replay = layers::replay(w, &zipf, seed, REPLAY_OPS);
    let wire = layers::wire_cost(&replay.frames, Duration::from_millis(300));
    // Both fabrics are probed on every workload, so the datagram path
    // stays measured even where the workload runs over TCP.
    let tcp_echo_us = layers::echo_rtt_us(TransportConfig::tcp(), PROBE_ROUNDS)?;
    let udp_echo_us = layers::echo_rtt_us(TransportConfig::udp(), PROBE_ROUNDS)?;
    let echo_us = match w.transport.kind {
        TransportKind::Udp => udp_echo_us,
        _ => tcp_echo_us,
    };
    let wake_us = layers::wake_us(PROBE_ROUNDS)?;

    let read_hit = replay.read_hit.median_ns(overhead);
    let put_hot = replay.put_hot.median_ns(overhead);
    let kv_get = replay.kv_get.median_ns(overhead);
    let kv_put = replay.kv_put.median_ns(overhead);
    let inv = replay.deliver_inv.median_ns(overhead);
    let ack = replay.deliver_ack.median_ns(overhead);
    let upd = replay.deliver_update.median_ns(overhead);
    let codec_us = (wire.encode_ns + wire.decode_ns) / 1e3;
    let flush_rtt: Vec<u64> = main
        .sessions
        .iter()
        .flat_map(|s| s.flush_ns.iter().copied())
        .collect();
    let ops_per_flush = main.measured_ops() as f64 / flush_rtt.len() as f64;

    let server = layers::server_delta(&main.before, &traced.after);
    let per_op = |x: f64| x / server.ops;
    let per_kop = |x: f64| x * 1e3 / server.ops;
    let snaps = &traced.after;
    let (residency, residency_n) = layers::residency_us(traces);

    // Reconciliation: the steps that block each op class, summed, against
    // the untraced p50. Each message crossing costs one encode and one
    // decode; a round trip over the fabric is one echo.
    let get_hot_p50 = p(main.lat(Class::GetHot), 50.0);
    let get_cold_p50 = p(main.lat(Class::GetCold), 50.0);
    let put_hot_p50 = p(main.lat(Class::PutHot), 50.0);
    let get_hot_sum = echo_us + 2.0 * codec_us + read_hit / 1e3;
    // The median cold read is remote (two homes in three are elsewhere).
    let get_cold_sum = 2.0 * echo_us + 4.0 * codec_us + kv_get / 1e3;
    let put_hot_sum = 2.0 * echo_us + 4.0 * codec_us + (put_hot + inv + 2.0 * ack) / 1e3;

    let layer_metrics = vec![
        metric("symcache.read_hit_ns", read_hit, "ns"),
        metric("core.cache_put_hot_ns", put_hot, "ns"),
        metric("kvstore.get_ns", kv_get, "ns"),
        metric("kvstore.put_ns", kv_put, "ns"),
        metric("core.deliver_inv_ns", inv, "ns"),
        metric("core.deliver_ack_ns", ack, "ns"),
        metric("core.deliver_update_ns", upd, "ns"),
        metric("wire.encode_ns", wire.encode_ns, "ns"),
        metric("wire.decode_ns", wire.decode_ns, "ns"),
        metric("transport.tcp_echo_rtt_us", tcp_echo_us, "us"),
        metric("transport.udp_echo_rtt_us", udp_echo_us, "us"),
        metric("reactor.wake_us", wake_us, "us"),
        metric("client.ops_per_flush", ops_per_flush, "ops"),
        metric("client.flush_rtt_us", p(flush_rtt, 50.0), "us"),
        metric(
            "server.hit_ratio",
            server.hits / (server.hits + server.misses),
            "ratio",
        ),
        metric(
            "server.remote_reads_per_op",
            per_op(server.remote_reads),
            "1/op",
        ),
        metric(
            "server.remote_writes_per_op",
            per_op(server.remote_writes),
            "1/op",
        ),
        metric(
            "server.protocol_out_per_put",
            server.protocol_out / server.puts,
            "1/put",
        ),
        metric(
            "server.priority_lane_frames_per_op",
            per_op(server.priority_lane_frames),
            "1/op",
        ),
        metric(
            "server.cork_flush_full_per_kop",
            per_kop(server.cork_full),
            "1/kop",
        ),
        metric(
            "server.cork_flush_deadline_per_kop",
            per_kop(server.cork_deadline),
            "1/kop",
        ),
        metric(
            "server.cork_flush_idle_per_kop",
            per_kop(server.cork_idle),
            "1/kop",
        ),
        metric("server.credit_stalls", server.credit_stalls, "count"),
        metric(
            "server.lin_ack_wait_p50_us",
            layers::weighted_us(snaps, |s| (s.lin_ack_wait_p50_ns, s.lin_ack_wait_count)),
            "us",
        ),
        metric(
            "server.fanout_p50_us",
            layers::weighted_us(snaps, |s| (s.fanout_p50_ns, s.fanout_count)),
            "us",
        ),
        metric(
            "server.continuation_fire_p50_us",
            layers::weighted_us(snaps, |s| {
                (s.continuation_fire_p50_ns, s.continuation_fire_count)
            }),
            "us",
        ),
        metric(
            "server.loop_lap_p99_us",
            layers::weighted_us(snaps, |s| (s.loop_lap_p99_ns, 1)),
            "us",
        ),
        metric("server.residency_p50_us", residency, "us"),
        metric(
            "reconcile.get_hot_unexplained_us",
            get_hot_p50 - get_hot_sum,
            "us",
        ),
        metric(
            "reconcile.get_cold_unexplained_us",
            get_cold_p50 - get_cold_sum,
            "us",
        ),
        metric(
            "reconcile.put_hot_unexplained_us",
            put_hot_p50 - put_hot_sum,
            "us",
        ),
        metric("trace.untraced_ops_s", main.throughput(), "ops/s"),
        metric("trace.traced_ops_s", traced.throughput(), "ops/s"),
        metric(
            "trace.overhead_pct",
            (1.0 - traced.throughput() / main.throughput()) * 100.0,
            "%",
        ),
    ];
    print_section("per-layer (traced run)", &layer_metrics);
    // No bulk-class peer traffic corks on these workloads, so this phase
    // reads 0 on every run: printed for the ledger, kept out of the JSON.
    print_section(
        "per-layer, printed only",
        &[metric(
            "server.cork_wait_p50_us",
            layers::weighted_us(snaps, |s| (s.cork_wait_p50_ns, s.cork_wait_count)),
            "us",
        )],
    );
    println!(
        "# reconciliation (us): get_hot p50 {get_hot_p50:.2} = layers {get_hot_sum:.2} + rest; \
         get_cold p50 {get_cold_p50:.2} = layers {get_cold_sum:.2} + rest; \
         put_hot p50 {put_hot_p50:.2} = layers {put_hot_sum:.2} + rest"
    );
    println!("# traces: {residency_n} sampled ops with a decode and a respond span");

    // Exact counts: a fixed op count from one session on an idle rack.
    let ops = counted.attempted as f64;
    let hot_ops = (counted.class_ops[Class::GetHot as usize]
        + counted.class_ops[Class::PutHot as usize]) as f64;
    let hot_puts = counted.class_ops[Class::PutHot as usize] as f64;
    if count_delta.hits != hot_ops {
        violations.push(format!(
            "count phase: {hot_ops} ops on hot-set keys but the servers counted {} hits",
            count_delta.hits
        ));
    }
    let counts = vec![
        metric("count.ops", ops, "ops"),
        metric("count.hot_ops", hot_ops, "ops"),
        metric("count.cold_ops", ops - hot_ops, "ops"),
        metric("count.hot_puts", hot_puts, "ops"),
        metric("count.cache_hits", count_delta.hits, "count"),
        metric(
            "count.remote_reads_per_op",
            count_delta.remote_reads / ops,
            "1/op",
        ),
        metric(
            "count.remote_writes_per_op",
            count_delta.remote_writes / ops,
            "1/op",
        ),
        metric(
            "count.protocol_frames_per_hot_put",
            count_delta.protocol_out / hot_puts,
            "1/put",
        ),
        metric(
            "count.wire_bytes_per_op",
            wire.bytes as f64 / replay.ops as f64,
            "B/op",
        ),
    ];
    print_section("exact counts (repeat exactly for a seed)", &counts);
    Ok(layer_metrics.into_iter().chain(counts).collect())
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; an undefined ratio reads 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
