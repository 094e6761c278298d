//! Federation determinism properties.
//!
//! The pinned contract: however shard ranges are partitioned across
//! 1–4 workers — empty claims included, completion order scrambled —
//! the coordinator's shard-ordered merge is byte-identical to a serial
//! single-process fold of the same `ShardPlan`. A second set of cases
//! pins the lease machinery: an expired claim is reassigned and a
//! heartbeating slow worker is not.

use bb_engine::{ExactMoments, Mergeable, ShardPlan, Snapshot};
use bb_federate::{
    read_frame, run_worker, write_frame, Coordinator, CoordinatorConfig, FederationReport, JobSpec,
    Message, WorkerOptions, PROTOCOL_VERSION,
};
use bb_trace::Telemetry;
use proptest::{run_property, TestRng};
use std::io::BufReader;
use std::net::TcpStream;
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn toy_value(i: u64) -> f64 {
    (i as f64).cos() * 3.0 + (i % 17) as f64
}

fn shard_payload(range: Range<u64>) -> String {
    let mut moments = ExactMoments::new();
    for i in range {
        moments.push(toy_value(i));
    }
    moments.to_snapshot_string()
}

/// Serial single-process reference: per-shard partials merged in shard
/// order, exactly as `run_sharded` folds them.
fn serial_reference(n_items: u64, shards: u64) -> String {
    merge_payloads(
        &ShardPlan::new(shards as usize, 1)
            .ranges(n_items)
            .into_iter()
            .map(shard_payload)
            .collect::<Vec<_>>(),
    )
}

fn merge_payloads(payloads: &[String]) -> String {
    payloads
        .iter()
        .map(|p| ExactMoments::from_snapshot_str(p).expect("decode payload"))
        .reduce(|mut acc, next| {
            acc.merge(next);
            acc
        })
        .expect("at least one payload")
        .to_snapshot_string()
}

fn toy_job(n_items: u64, shards: u64) -> JobSpec {
    JobSpec {
        seed: 11,
        users: n_items,
        days: 1,
        fcc_users: 0,
        chaos_scenario: "-".to_string(),
        chaos_severity: 0.0,
        n_items,
        shards,
    }
}

fn spawn_coordinator(
    cfg: CoordinatorConfig,
) -> (String, JoinHandle<(Vec<String>, FederationReport)>) {
    let coordinator =
        Coordinator::bind("127.0.0.1:0", cfg, Arc::new(Telemetry::system())).expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        coordinator.run(|_, payload| {
            ExactMoments::from_snapshot_str(payload)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })
    });
    (addr, handle)
}

/// Any partition of the shard table across any worker fleet merges to
/// the same bytes as the serial fold: worker count, claim interleaving,
/// and completion order are all invisible in the result.
#[test]
fn any_partition_merges_to_serial_bytes() {
    run_property(
        "any_partition_merges_to_serial_bytes",
        |rng: &mut TestRng, case| {
            // Small worlds keep 128 cases fast; workers regularly outnumber
            // shards so empty claims are exercised, and a per-shard jitter
            // scrambles completion order.
            let n_items = 1 + rng.next_u64() % 200;
            let shards = 1 + rng.next_u64() % 8;
            let workers = 1 + rng.next_u64() % 4;
            let mut cfg = CoordinatorConfig::new(toy_job(n_items, shards));
            cfg.poll_ms = 5;
            let (addr, handle) = spawn_coordinator(cfg);

            let fleet: Vec<JoinHandle<Result<u64, String>>> = (0..workers)
                .map(|w| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        // `max_reconnects: 0` keeps the straggler
                        // fail-fast: a worker that raced completion
                        // reports "connect"/"closed" immediately
                        // instead of burning backoff across 128 cases.
                        let opts = WorkerOptions {
                            max_reconnects: 0,
                            ..WorkerOptions::default()
                        };
                        run_worker(&addr, &opts, |_job| {
                            Ok(move |shard: u64, range: Range<u64>| {
                                // Deterministic per-(case, worker, shard) delay:
                                // late shards finish out of claim order.
                                let jitter = (shard * 7919 + w * 131 + u64::from(case)) % 4;
                                std::thread::sleep(Duration::from_millis(jitter));
                                shard_payload(range)
                            })
                        })
                        .map(|report| report.computed)
                    })
                })
                .collect();

            let (payloads, report) = handle.join().expect("coordinator thread");
            let mut computed = 0;
            for worker in fleet {
                match worker.join().expect("worker thread") {
                    Ok(n) => computed += n,
                    // A straggler that raced job completion and never got a
                    // connection (or a welcome) computed nothing; that must
                    // be the only failure mode in a clean run.
                    Err(e) => assert!(
                        e.contains("connect") || e.contains("closed"),
                        "case {case}: unexpected worker failure: {e}"
                    ),
                }
            }
            assert_eq!(
                computed,
                payloads.len() as u64,
                "case {case}: with no faults every shard is computed exactly once"
            );
            assert_eq!(report.reassignments, 0, "case {case}: {:?}", report.reasons);
            assert_eq!(
                merge_payloads(&payloads),
                serial_reference(n_items, shards),
                "case {case}: {n_items} items / {shards} shards / {workers} workers"
            );
        },
    );
}

/// A claimant that goes silent loses its lease: the shard is reassigned
/// and the run still converges to the serial bytes.
#[test]
fn expired_lease_is_reassigned_and_converges() {
    let n_items = 30;
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, 3));
    cfg.lease_timeout = Duration::from_millis(150);
    cfg.poll_ms = 20;
    let (addr, handle) = spawn_coordinator(cfg);

    // The staller claims a shard over the raw protocol and never
    // computes, never heartbeats, never hangs up.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let send = |writer: &mut TcpStream, message: &Message| {
        write_frame(writer, &message.encode()).expect("send");
    };
    send(
        &mut writer,
        &Message::Hello {
            protocol: PROTOCOL_VERSION,
            prior: 0,
        },
    );
    let worker = match Message::decode(&read_frame(&mut reader).expect("frame")).expect("decode") {
        Message::Welcome { worker, .. } => worker,
        other => panic!("expected Welcome, got {other:?}"),
    };
    send(&mut writer, &Message::Ready { worker });
    assert!(matches!(
        Message::decode(&read_frame(&mut reader).expect("frame")).expect("decode"),
        Message::Assign { .. }
    ));

    // A healthy worker drains the rest, waits out the stalled lease,
    // and picks up the reassignment.
    run_worker(&addr, &WorkerOptions::default(), |_job| {
        Ok(|_shard, range: Range<u64>| shard_payload(range))
    })
    .expect("good worker");

    let (payloads, report) = handle.join().expect("coordinator thread");
    assert!(
        report.reassignments >= 1,
        "the stalled shard must be reassigned: {:?}",
        report.reasons
    );
    assert!(
        report.reasons.iter().any(|r| r.contains("expired")),
        "reasons: {:?}",
        report.reasons
    );
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, 3));
}

/// A slow worker that heartbeats keeps its lease: no reassignment, no
/// duplicate, even though the compute takes several lease lifetimes.
#[test]
fn heartbeat_keeps_a_slow_lease_alive() {
    let n_items = 20;
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, 2));
    cfg.lease_timeout = Duration::from_millis(150);
    cfg.poll_ms = 20;
    let (addr, handle) = spawn_coordinator(cfg);

    let opts = WorkerOptions {
        heartbeat: Duration::from_millis(40),
        ..WorkerOptions::default()
    };
    run_worker(&addr, &opts, |_job| {
        Ok(|shard: u64, range: Range<u64>| {
            if shard == 0 {
                // Several lease lifetimes of honest work.
                std::thread::sleep(Duration::from_millis(600));
            }
            shard_payload(range)
        })
    })
    .expect("slow worker");

    let (payloads, report) = handle.join().expect("coordinator thread");
    assert_eq!(
        report.reassignments, 0,
        "heartbeats must keep the lease: {:?}",
        report.reasons
    );
    assert_eq!(report.duplicate_results, 0);
    assert_eq!(merge_payloads(&payloads), serial_reference(n_items, 2));
}

/// A raw protocol client past its handshake: reader, writer, worker id.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    worker: u64,
}

impl Client {
    fn join(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let hello = Message::Hello {
            protocol: PROTOCOL_VERSION,
            prior: 0,
        };
        write_frame(&mut writer, &hello.encode()).expect("send Hello");
        match Message::decode(&read_frame(&mut reader).expect("frame")).expect("decode") {
            Message::Welcome { worker, .. } => Client {
                reader,
                writer,
                worker,
            },
            other => panic!("expected Welcome, got {other:?}"),
        }
    }

    fn send(&mut self, message: &Message) {
        write_frame(&mut self.writer, &message.encode()).expect("send");
    }

    fn recv(&mut self) -> Message {
        Message::decode(&read_frame(&mut self.reader).expect("frame")).expect("decode")
    }

    /// Ready, expecting an assignment.
    fn claim(&mut self) -> (u64, Range<u64>) {
        self.send(&Message::Ready {
            worker: self.worker,
        });
        match self.recv() {
            Message::Assign { shard, start, end } => (shard, start..end),
            other => panic!("expected Assign, got {other:?}"),
        }
    }

    /// Ready, then check that no reply arrives within 100 ms: the
    /// coordinator is holding it rather than answering `Wait`.
    fn ready_and_see_it_held(&mut self) {
        self.send(&Message::Ready {
            worker: self.worker,
        });
        let socket = self.reader.get_ref();
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        assert!(
            socket.peek(&mut byte).is_err(),
            "the Ready must be held, not answered at once"
        );
        socket.set_read_timeout(None).expect("clear read timeout");
    }
}

/// A config whose hold is far longer than any assertion below, so only
/// a state change can release a held reply in time.
fn long_hold_config(n_items: u64, shards: u64) -> CoordinatorConfig {
    let mut cfg = CoordinatorConfig::new(toy_job(n_items, shards));
    cfg.poll_ms = 10_000;
    cfg
}

/// A `Ready` that arrives while the last shard is leased elsewhere is
/// held and answered `Finished` as soon as that shard's result merges.
#[test]
fn held_ready_is_finished_when_the_last_shard_merges() {
    let (addr, handle) = spawn_coordinator(long_hold_config(10, 1));
    let mut lessee = Client::join(&addr);
    let (shard, range) = lessee.claim();
    let mut idle = Client::join(&addr);
    idle.ready_and_see_it_held();

    let merged_at = std::time::Instant::now();
    lessee.send(&Message::Result {
        worker: lessee.worker,
        shard,
        payload: shard_payload(range),
    });
    assert_eq!(idle.recv(), Message::Finished);
    let lag = merged_at.elapsed();
    assert!(
        lag < Duration::from_millis(200),
        "held Ready answered {lag:?} after the last result"
    );
    assert_eq!(lessee.recv(), Message::Finished);
    let (payloads, _) = handle.join().expect("coordinator thread");
    assert_eq!(merge_payloads(&payloads), serial_reference(10, 1));
}

/// A held `Ready` is answered with the shard its lessee just dropped,
/// without waiting out the hold.
#[test]
fn held_ready_is_assigned_a_shard_its_lessee_dropped() {
    let (addr, handle) = spawn_coordinator(long_hold_config(10, 1));
    let mut lessee = Client::join(&addr);
    let (shard, _) = lessee.claim();
    let mut idle = Client::join(&addr);
    idle.ready_and_see_it_held();

    let dropped_at = std::time::Instant::now();
    drop(lessee);
    let range = match idle.recv() {
        Message::Assign {
            shard: reassigned,
            start,
            end,
        } => {
            assert_eq!(reassigned, shard, "the dropped shard must be reassigned");
            start..end
        }
        other => panic!("expected Assign, got {other:?}"),
    };
    let lag = dropped_at.elapsed();
    assert!(
        lag < Duration::from_millis(200),
        "held Ready assigned {lag:?} after the lessee left"
    );
    idle.send(&Message::Result {
        worker: idle.worker,
        shard,
        payload: shard_payload(range),
    });
    assert_eq!(idle.recv(), Message::Finished);
    let (payloads, report) = handle.join().expect("coordinator thread");
    assert_eq!(report.reassignments, 1, "{:?}", report.reasons);
    assert_eq!(merge_payloads(&payloads), serial_reference(10, 1));
}
