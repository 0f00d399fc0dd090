//! Localhost cluster integration: shard-count invariance, worker
//! failover, front-end limits, and graceful drain — all asserted against
//! byte-identical single-node `dumpd` results.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coldboot::attack::{capture_dump_via_transplant, TransplantParams};
use coldboot_cluster::backend::BackendOptions;
use coldboot_cluster::server::{ClusterConfig, ClusterServer};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_dumpio::format::DumpMeta;
use coldboot_dumpio::json::{self, Json};
use coldboot_dumpio::service::{DumpService, ServiceConfig};
use coldboot_dumpio::writer::write_image;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::{MountedVolume, Volume};

/// Builds the example's scrambled-DDR4 capture and writes it to a CBDF
/// file under the test target dir.
fn dump_file(name: &str, seed: u64) -> PathBuf {
    let geometry = DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows: 64,
        blocks_per_row: 64,
    };
    let volume = Volume::create(b"pw", b"the secret payload", &mut SplitMix64::new(seed));
    let mut victim = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        1,
    );
    let capacity = victim.capacity() as usize;
    victim
        .insert_module(DramModule::with_quality(capacity, seed, 0.35))
        .expect("fresh socket");
    victim.fill(0).expect("module present");
    MountedVolume::mount(&mut victim, &volume, b"pw", 0x8_0070).expect("correct password");
    let mut attacker = Machine::new(
        Microarchitecture::Skylake,
        geometry,
        BiosConfig::default(),
        2,
    );
    let dump = capture_dump_via_transplant(
        &mut victim,
        &mut attacker,
        TransplantParams::paper_demo(),
        DecayModel::paper_calibrated(),
    )
    .expect("transplant");
    let file = write_image(
        Vec::new(),
        DumpMeta::for_image(dump.base_addr(), dump.len() as u64),
        dump.bytes(),
    )
    .expect("encode");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, file).expect("write dump file");
    path
}

/// One persistent line-protocol connection (works against `dumpd` and
/// `clusterd` alike — the verbs are the same).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone stream");
        Self {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn raw(&mut self, line: &str) -> Json {
        let mut out = line.to_string();
        out.push('\n');
        self.writer.write_all(out.as_bytes()).expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        json::parse(response.trim()).expect("well-formed response")
    }

    fn request(&mut self, doc: &Json) -> Json {
        self.raw(&doc.render_compact())
    }

    fn submit(&mut self, pairs: Vec<(&str, Json)>) -> Json {
        let doc = Json::Obj(
            std::iter::once(("verb".to_string(), Json::Str("submit".into())))
                .chain(pairs.into_iter().map(|(k, v)| (k.to_string(), v)))
                .collect(),
        );
        self.request(&doc)
    }

    fn submit_ok(&mut self, pairs: Vec<(&str, Json)>) -> i64 {
        let response = self.submit(pairs);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "submit rejected: {}",
            response.render_compact()
        );
        response.get("id").and_then(Json::as_i64).expect("job id")
    }

    fn status(&mut self, id: i64) -> Json {
        self.request(&Json::Obj(vec![
            ("verb".to_string(), Json::Str("status".into())),
            ("id".to_string(), Json::Int(id)),
        ]))
    }

    fn wait_terminal(&mut self, id: i64) -> String {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let status = self.status(id);
            let state = status
                .get("state")
                .and_then(Json::as_str)
                .expect("state field")
                .to_string();
            if state != "queued" && state != "running" {
                return state;
            }
            assert!(Instant::now() < deadline, "job {id} stuck in {state}");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Waits for `done` and returns the result body rendered compact —
    /// the byte-identity unit of every invariance assertion here.
    fn done_result_line(&mut self, id: i64) -> String {
        let state = self.wait_terminal(id);
        let reply = self.request(&Json::Obj(vec![
            ("verb".to_string(), Json::Str("result".into())),
            ("id".to_string(), Json::Int(id)),
        ]));
        assert_eq!(state, "done", "job {id}: {}", reply.render_compact());
        reply.get("result").expect("result body").render_compact()
    }

    fn stats(&mut self) -> Json {
        let response = self.raw(r#"{"verb":"stats"}"#);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        response.get("metrics").expect("metrics object").clone()
    }
}

fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get(name)
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("counter {name} missing: {}", metrics.render_compact()))
}

fn start_worker() -> DumpService {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    DumpService::start(
        listener,
        ServiceConfig {
            workers: 2,
            queue_limit: 64,
        },
    )
    .expect("start dumpd")
}

/// Failover knobs tuned for test time: fast retries, quick eviction.
fn fast_backend() -> BackendOptions {
    BackendOptions {
        shard_attempts: 8,
        retry_backoff: Duration::from_millis(10),
        evict_after: 2,
        probe_interval: Duration::from_millis(50),
        io_timeout: Duration::from_millis(500),
    }
}

fn start_cluster(config: ClusterConfig) -> ClusterServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    ClusterServer::start(listener, config).expect("start cluster")
}

/// A TCP proxy in front of a real `dumpd` whose link can be cut and
/// restored at runtime — the "kill a worker mid-job" lever. While down it
/// accepts and immediately drops connections, and severs active ones.
struct FlakyProxy {
    addr: SocketAddr,
    down: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
}

impl FlakyProxy {
    fn start(upstream: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        listener.set_nonblocking(true).expect("nonblocking proxy");
        let down = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let down = Arc::clone(&down);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            if down.load(Ordering::Relaxed) {
                                drop(client); // dead worker: connection drops
                                continue;
                            }
                            let Ok(server) = TcpStream::connect(upstream) else {
                                drop(client);
                                continue;
                            };
                            let (c2, s2) = (
                                client.try_clone().expect("clone"),
                                server.try_clone().expect("clone"),
                            );
                            let (d1, s1f) = (Arc::clone(&down), Arc::clone(&stop));
                            let (d2, s2f) = (Arc::clone(&down), Arc::clone(&stop));
                            std::thread::spawn(move || shuttle(client, server, &d1, &s1f));
                            std::thread::spawn(move || shuttle(s2, c2, &d2, &s2f));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            });
        }
        Self { addr, down, stop }
    }

    fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
    }
}

impl Drop for FlakyProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.down.store(true, Ordering::Relaxed);
    }
}

/// One direction of a proxied connection; dies when the proxy goes down.
fn shuttle(mut from: TcpStream, mut to: TcpStream, down: &AtomicBool, stop: &AtomicBool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf = [0u8; 4096];
    loop {
        if down.load(Ordering::Relaxed) || stop.load(Ordering::Relaxed) {
            let _ = to.shutdown(Shutdown::Both);
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

fn path_str(path: &PathBuf) -> Json {
    Json::Str(path.to_string_lossy().into_owned())
}

/// The headline invariance matrix: a cluster of two live workers plus one
/// permanently dead address must produce results byte-identical to a
/// single `dumpd` at 1, 2, 4, and 8 shards — the dead worker in rotation
/// injects connect failures (and shard re-queues) into every run.
#[test]
fn shard_count_invariance_with_a_dead_worker_in_rotation() {
    let path = dump_file("cluster_invariance.cbdf", 9);
    let worker_a = start_worker();
    let worker_b = start_worker();

    // Single-node reference results over the plain dumpd protocol.
    let mut single = Client::connect(worker_a.local_addr());
    let id = single.submit_ok(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", path_str(&path)),
    ]);
    let expected_attack = single.done_result_line(id);
    let id = single.submit_ok(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", path_str(&path)),
        ("top_keys", Json::Int(12)),
    ]);
    let expected_frequency = single.done_result_line(id);
    let id = single.submit_ok(vec![
        ("kind", Json::Str("mine".into())),
        ("dump", path_str(&path)),
    ]);
    let expected_mine = single.done_result_line(id);

    // A port with nothing behind it: connecting is refused instantly, so
    // its runner re-queues whatever it pulls until it gets evicted.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };

    for shards in [1usize, 2, 4, 8] {
        let mut config = ClusterConfig::new(vec![
            worker_a.local_addr().to_string(),
            worker_b.local_addr().to_string(),
            dead_addr.to_string(),
        ]);
        config.shards = shards;
        config.backend = fast_backend();
        let cluster = start_cluster(config);
        let mut client = Client::connect(cluster.local_addr());

        let attack = client.submit_ok(vec![
            ("kind", Json::Str("attack".into())),
            ("dump", path_str(&path)),
        ]);
        let frequency = client.submit_ok(vec![
            ("kind", Json::Str("frequency".into())),
            ("dump", path_str(&path)),
            ("top_keys", Json::Int(12)),
        ]);
        assert_eq!(
            client.done_result_line(attack),
            expected_attack,
            "attack diverged at {shards} shards"
        );
        assert_eq!(
            client.done_result_line(frequency),
            expected_frequency,
            "frequency diverged at {shards} shards"
        );
        if shards == 8 {
            let mine = client.submit_ok(vec![
                ("kind", Json::Str("mine".into())),
                ("dump", path_str(&path)),
            ]);
            assert_eq!(
                client.done_result_line(mine),
                expected_mine,
                "mine diverged at {shards} shards"
            );
        }
        let stats = client.stats();
        assert_eq!(counter(&stats, "cluster_jobs_failed"), 0);
        assert!(counter(&stats, "cluster_shards_dispatched") > 0);
        cluster.shutdown();
    }
}

/// Kill the only worker mid-job: every in-flight and queued shard must be
/// re-queued, the worker evicted, then (once the link is restored) probed
/// back into rotation — and the final result must still be byte-identical.
#[test]
fn killing_a_worker_mid_job_requeues_shards_and_rejoins() {
    let path = dump_file("cluster_failover.cbdf", 21);
    let worker = start_worker();

    let mut single = Client::connect(worker.local_addr());
    let id = single.submit_ok(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", path_str(&path)),
    ]);
    let expected = single.done_result_line(id);

    let proxy = FlakyProxy::start(worker.local_addr());
    let mut config = ClusterConfig::new(vec![proxy.addr.to_string()]);
    config.shards = 4;
    config.backend = fast_backend();
    let cluster = start_cluster(config);
    let mut client = Client::connect(cluster.local_addr());

    let id = client.submit_ok(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", path_str(&path)),
    ]);
    // Let the job get going, then cut the worker's link mid-job.
    let started = Instant::now();
    loop {
        let status = client.status(id);
        let dispatched = status
            .get("shards_done")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            > 0
            || status.get("state").and_then(Json::as_str) == Some("running");
        if dispatched && started.elapsed() > Duration::from_millis(300) {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "job never started"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    proxy.set_down(true);
    std::thread::sleep(Duration::from_millis(400)); // failures accumulate, worker evicted
    proxy.set_down(false);

    assert_eq!(
        client.done_result_line(id),
        expected,
        "failover changed the result"
    );
    let stats = client.stats();
    assert!(
        counter(&stats, "cluster_shards_requeued") >= 1,
        "no shard was re-queued"
    );
    assert!(
        counter(&stats, "cluster_worker_evictions") >= 1,
        "worker was not evicted"
    );
    assert!(
        counter(&stats, "cluster_worker_rejoins") >= 1,
        "worker did not rejoin"
    );
    assert_eq!(counter(&stats, "cluster_jobs_failed"), 0);
    cluster.shutdown();
}

/// The front-end limits: a connection that floods requests gets
/// `rate_limited` (retryable), and a connection over its open-job quota
/// gets `quota_exceeded` (retryable) until a job finishes.
#[test]
fn rate_limits_and_job_quotas_reject_with_retryable_codes() {
    let path = dump_file("cluster_limits.cbdf", 33);
    let worker = start_worker();

    // Rate limit: 3 requests/sec — the 4th ping in the window bounces.
    let mut config = ClusterConfig::new(vec![worker.local_addr().to_string()]);
    config.max_requests_per_sec = 3;
    config.backend = fast_backend();
    let rate_cluster = start_cluster(config);
    let mut client = Client::connect(rate_cluster.local_addr());
    for _ in 0..3 {
        assert_eq!(
            client
                .raw(r#"{"verb":"ping"}"#)
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
    }
    let reply = client.raw(r#"{"verb":"ping"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("rate_limited")
    );
    assert_eq!(reply.get("retryable").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    // A fresh window admits requests again.
    std::thread::sleep(Duration::from_millis(1100));
    let stats = client.stats();
    assert!(counter(&stats, "cluster_rate_limited_rejects") >= 1);
    rate_cluster.shutdown();

    // Quota: one open job per connection.
    let mut config = ClusterConfig::new(vec![worker.local_addr().to_string()]);
    config.max_open_jobs = 1;
    config.backend = fast_backend();
    let quota_cluster = start_cluster(config);
    let mut client = Client::connect(quota_cluster.local_addr());
    let long_job = client.submit_ok(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", path_str(&path)),
    ]);
    let reply = client.submit(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", path_str(&path)),
    ]);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("quota_exceeded")
    );
    assert_eq!(reply.get("retryable").and_then(Json::as_bool), Some(true));
    assert_eq!(client.wait_terminal(long_job), "done");
    // The finished job no longer counts against the quota.
    let id = client.submit_ok(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", path_str(&path)),
    ]);
    assert_eq!(client.wait_terminal(id), "done");
    let stats = client.stats();
    assert!(counter(&stats, "cluster_quota_rejects") >= 1);
    quota_cluster.shutdown();
}

/// Graceful drain: `shutdown` refuses new submits (retryable
/// `shutting_down`) but in-flight jobs run to completion, their results
/// stay fetchable and byte-identical, and `drained()` reports completion.
#[test]
fn graceful_drain_finishes_in_flight_shards() {
    let path = dump_file("cluster_drain.cbdf", 45);
    let worker = start_worker();

    let mut single = Client::connect(worker.local_addr());
    let id = single.submit_ok(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", path_str(&path)),
    ]);
    let expected = single.done_result_line(id);

    let mut config = ClusterConfig::new(vec![worker.local_addr().to_string()]);
    config.shards = 4;
    config.backend = fast_backend();
    let cluster = start_cluster(config);
    let mut client = Client::connect(cluster.local_addr());
    let id = client.submit_ok(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", path_str(&path)),
    ]);

    // Start the drain while the job is in flight.
    assert_eq!(
        client
            .raw(r#"{"verb":"shutdown"}"#)
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    assert!(cluster.is_draining());
    let refused = client.submit(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", path_str(&path)),
    ]);
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        refused.get("code").and_then(Json::as_str),
        Some("shutting_down")
    );
    assert_eq!(refused.get("retryable").and_then(Json::as_bool), Some(true));

    // The in-flight job still completes with the exact single-node bytes.
    assert_eq!(client.done_result_line(id), expected);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cluster.drained() {
        assert!(Instant::now() < deadline, "drain never completed");
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
}

/// Bounded job table: after 64 more jobs finish, the coordinator forgets
/// a finished job (`unknown_job`), keeps the newest, and — with a quota of
/// one open job — the forgotten job no longer holds its connection's slot.
#[test]
fn forgotten_jobs_answer_unknown_and_free_their_quota_slot() {
    let mut image = vec![0u8; 64 << 10];
    SplitMix64::new(5).fill(&mut image);
    let file = write_image(
        Vec::new(),
        DumpMeta::for_image(0, image.len() as u64),
        &image,
    )
    .expect("encode");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cluster_evict.cbdf");
    std::fs::write(&path, file).expect("write dump file");
    let worker = start_worker();

    let mut config = ClusterConfig::new(vec![worker.local_addr().to_string()]);
    config.shards = 1;
    config.max_open_jobs = 1;
    config.backend = fast_backend();
    let cluster = start_cluster(config);
    let frequency = || {
        vec![
            ("kind", Json::Str("frequency".into())),
            ("dump", path_str(&path)),
            ("top_keys", Json::Int(4)),
        ]
    };
    let by_id = |verb: &str, id: i64| {
        Json::Obj(vec![
            ("verb".to_string(), Json::Str(verb.into())),
            ("id".to_string(), Json::Int(id)),
        ])
    };
    let code = |reply: &Json| reply.get("code").and_then(Json::as_str).map(String::from);

    // The first job's connection submits nothing more until it is gone.
    let mut owner = Client::connect(cluster.local_addr());
    let first = owner.submit_ok(frequency());
    assert_eq!(owner.wait_terminal(first), "done");
    let mut other = Client::connect(cluster.local_addr());
    let mut last = 0;
    for _ in 0..64 {
        last = other.submit_ok(frequency());
        assert_eq!(other.wait_terminal(last), "done");
    }

    assert_eq!(code(&owner.status(first)).as_deref(), Some("unknown_job"));
    assert_eq!(
        code(&owner.request(&by_id("result", first))).as_deref(),
        Some("unknown_job")
    );
    let kept = owner.request(&by_id("result", last));
    assert_eq!(kept.get("state").and_then(Json::as_str), Some("done"));
    assert!(kept.get("result").and_then(|r| r.get("keys")).is_some());
    let stats = owner.stats();
    assert_eq!(counter(&stats, "cluster_jobs_submitted"), 65);
    assert_eq!(counter(&stats, "cluster_jobs_done"), 65);

    // The owner's quota slot was held by the forgotten job only.
    let next = owner.submit_ok(frequency());
    assert_eq!(owner.wait_terminal(next), "done");
    cluster.shutdown();
}
