//! `coldboot-dumpd` end-to-end over localhost TCP: concurrent jobs,
//! progress, results, cancellation, timeouts, queue bounds, shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use coldboot::attack::ddr3::frequency_keys;
use coldboot::attack::{
    capture_dump_via_transplant, run_ddr4_attack, AttackConfig, TransplantParams,
};
use coldboot::dump::MemoryDump;
use coldboot::litmus::{mine_candidate_keys, MiningConfig};
use coldboot_crypto::rng::SplitMix64;
use coldboot_dram::geometry::DramGeometry;
use coldboot_dram::mapping::Microarchitecture;
use coldboot_dram::module::DramModule;
use coldboot_dram::retention::DecayModel;
use coldboot_dumpio::format::DumpMeta;
use coldboot_dumpio::json::{self, Json};
use coldboot_dumpio::service::{DumpService, ServiceConfig};
use coldboot_dumpio::wire::hex_lower;
use coldboot_dumpio::writer::write_image;
use coldboot_scrambler::controller::{BiosConfig, Machine};
use coldboot_veracrypt::{MountedVolume, Volume};

/// Builds the example's scrambled-DDR4 capture and writes it to a CBDF
/// file under the test target dir; returns the path and in-memory dump.
fn dump_file(name: &str, seed: u64) -> (PathBuf, MemoryDump) {
    dump_file_with_rows(name, seed, 64)
}

/// [`dump_file`] with a configurable row count: 64 rows is the 1 MiB
/// example geometry; more rows scale the image for slow-scan tests.
fn dump_file_with_rows(name: &str, seed: u64, rows: u32) -> (PathBuf, MemoryDump) {
    let geometry = DramGeometry {
        channels: 1,
        ranks: 1,
        bank_groups: 2,
        banks_per_group: 2,
        rows,
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
    (path, dump)
}

/// One persistent line-protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(service: &DumpService) -> Self {
        let stream = TcpStream::connect(service.local_addr()).expect("connect");
        let writer = stream.try_clone().expect("clone stream");
        Self {
            reader: BufReader::new(stream),
            writer,
        }
    }

    /// Sends one request line; returns the reply line.
    fn line(&mut self, line: &str) -> String {
        let mut out = line.to_string();
        out.push('\n');
        self.writer.write_all(out.as_bytes()).expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        response
    }

    fn raw(&mut self, line: &str) -> Json {
        json::parse(self.line(line).trim()).expect("well-formed response")
    }

    fn request(&mut self, doc: &Json) -> Json {
        self.raw(&doc.render_compact())
    }

    fn submit(&mut self, pairs: Vec<(&str, Json)>) -> i64 {
        let doc = Json::Obj(
            std::iter::once(("verb".to_string(), Json::Str("submit".into())))
                .chain(pairs.into_iter().map(|(k, v)| (k.to_string(), v)))
                .collect(),
        );
        let response = self.request(&doc);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "submit rejected: {}",
            response.render_compact()
        );
        response.get("id").and_then(Json::as_i64).expect("job id")
    }

    fn status(&mut self, id: i64) -> Json {
        self.request(&Json::obj_id("status", id))
    }

    /// Polls until the job reaches a terminal state; returns it.
    fn wait_terminal(&mut self, id: i64) -> String {
        let deadline = Instant::now() + Duration::from_secs(180);
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

    fn result(&mut self, id: i64) -> Json {
        self.request(&Json::obj_id("result", id))
    }

    /// The `stats` verb's metrics object.
    fn stats(&mut self) -> Json {
        let response = self.raw(r#"{"verb":"stats"}"#);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        response.get("metrics").expect("metrics object").clone()
    }
}

/// Reads a plain counter out of a `stats` metrics object.
fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get(name)
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("counter {name} missing: {}", metrics.render_compact()))
}

/// Tiny helper: `{"verb":VERB,"id":ID}`.
trait ObjId {
    fn obj_id(verb: &str, id: i64) -> Json;
}

impl ObjId for Json {
    fn obj_id(verb: &str, id: i64) -> Json {
        Json::Obj(vec![
            ("verb".to_string(), Json::Str(verb.to_string())),
            ("id".to_string(), Json::Int(id)),
        ])
    }
}

fn start_service(config: ServiceConfig) -> DumpService {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    DumpService::start(listener, config).expect("start service")
}

#[test]
fn four_concurrent_jobs_return_correct_results() {
    let (path_a, dump_a) = dump_file("svc_a.cbdf", 9);
    let (path_b, dump_b) = dump_file("svc_b.cbdf", 21);
    let service = start_service(ServiceConfig {
        workers: 4,
        queue_limit: 64,
    });
    let mut client = Client::connect(&service);
    assert_eq!(
        client
            .raw(r#"{"verb":"ping"}"#)
            .get("pong")
            .and_then(Json::as_bool),
        Some(true)
    );

    // Four jobs in flight at once across both dumps and all three kinds.
    let attack_a = client.submit(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", Json::Str(path_a.to_string_lossy().into_owned())),
    ]);
    let attack_b = client.submit(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", Json::Str(path_b.to_string_lossy().into_owned())),
        ("window_blocks", Json::Int(512)),
    ]);
    let mine_a = client.submit(vec![
        ("kind", Json::Str("mine".into())),
        ("dump", Json::Str(path_a.to_string_lossy().into_owned())),
    ]);
    let freq_b = client.submit(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", Json::Str(path_b.to_string_lossy().into_owned())),
        ("top_keys", Json::Int(8)),
    ]);

    for id in [attack_a, attack_b, mine_a, freq_b] {
        assert_eq!(client.wait_terminal(id), "done", "job {id}");
        let status = client.status(id);
        let done = status
            .get("blocks_done")
            .and_then(Json::as_i64)
            .expect("done");
        let total = status
            .get("blocks_total")
            .and_then(Json::as_i64)
            .expect("total");
        assert!(total > 0, "job {id} never set blocks_total");
        assert_eq!(done, total, "job {id} progress did not reach its total");
    }

    // Attack results must carry exactly the in-memory pipeline's keys.
    for (id, dump) in [(attack_a, &dump_a), (attack_b, &dump_b)] {
        let expected = run_ddr4_attack(dump, &AttackConfig::default());
        assert!(
            !expected.outcome.recovered.is_empty(),
            "scenario recovers keys"
        );
        let result = client.result(id);
        assert_eq!(result.get("state").and_then(Json::as_str), Some("done"));
        let body = result.get("result").expect("result body");
        assert_eq!(
            body.get("mined_bytes").and_then(Json::as_i64),
            Some(expected.mined_bytes as i64)
        );
        let recovered = body.get("recovered").and_then(Json::as_arr).expect("rows");
        let mut served: Vec<String> = recovered
            .iter()
            .map(|r| {
                r.get("master_hex")
                    .and_then(Json::as_str)
                    .expect("master_hex")
                    .to_string()
            })
            .collect();
        let mut expected_hex: Vec<String> = expected
            .outcome
            .recovered
            .iter()
            .map(|r| hex_lower(&r.master_key))
            .collect();
        served.sort();
        expected_hex.sort();
        assert_eq!(served, expected_hex, "job {id} master keys");
    }

    // Mine result: the same candidate keys the in-memory miner finds.
    let expected_mine = mine_candidate_keys(
        &dump_a,
        &MiningConfig {
            threads: 1,
            ..MiningConfig::default()
        },
    );
    let result = client.result(mine_a);
    let keys = result
        .get("result")
        .and_then(|r| r.get("keys"))
        .and_then(Json::as_arr)
        .expect("keys");
    assert_eq!(keys.len(), expected_mine.len());
    for (row, expected) in keys.iter().zip(&expected_mine) {
        assert_eq!(
            row.get("key_hex").and_then(Json::as_str),
            Some(hex_lower(&expected.key).as_str())
        );
        assert_eq!(
            row.get("observations").and_then(Json::as_i64),
            Some(i64::from(expected.observations))
        );
    }

    // Frequency result likewise.
    let expected_freq = frequency_keys(&dump_b, 8);
    let result = client.result(freq_b);
    let keys = result
        .get("result")
        .and_then(|r| r.get("keys"))
        .and_then(Json::as_arr)
        .expect("keys");
    assert_eq!(keys.len(), expected_freq.len());
    for (row, expected) in keys.iter().zip(&expected_freq) {
        assert_eq!(
            row.get("key_hex").and_then(Json::as_str),
            Some(hex_lower(&expected.key).as_str())
        );
    }

    service.shutdown();
}

#[test]
fn zero_second_timeout_times_out() {
    let (path, _dump) = dump_file("svc_timeout.cbdf", 33);
    let service = start_service(ServiceConfig {
        workers: 1,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);
    let id = client.submit(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", Json::Str(path.to_string_lossy().into_owned())),
        ("timeout_secs", Json::Int(0)),
    ]);
    assert_eq!(client.wait_terminal(id), "timed_out");
    service.shutdown();
}

#[test]
fn cancel_queue_bounds_and_errors_without_workers() {
    let (path, _dump) = dump_file("svc_queue.cbdf", 41);
    let dump_arg = path.to_string_lossy().into_owned();
    // No workers: jobs stay queued, making cancel and overflow deterministic.
    let service = start_service(ServiceConfig {
        workers: 0,
        queue_limit: 2,
    });
    let mut client = Client::connect(&service);

    let first = client.submit(vec![
        ("kind", Json::Str("mine".into())),
        ("dump", Json::Str(dump_arg.clone())),
    ]);
    let second = client.submit(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", Json::Str(dump_arg.clone())),
    ]);

    // Queue is at its limit of 2: the next submit must be rejected loudly,
    // with the uniform error schema and a *retryable* code — cluster
    // failover re-queues shards on exactly this flag.
    let overflow = client.raw(&format!(
        r#"{{"verb":"submit","kind":"mine","dump":"{dump_arg}"}}"#
    ));
    assert_eq!(overflow.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(overflow.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        overflow.get("code").and_then(Json::as_str),
        Some("queue_full")
    );
    assert_eq!(
        overflow.get("retryable").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        overflow.get("error").and_then(Json::as_str),
        Some("queue full")
    );

    // Cancelling a queued job is immediate and terminal.
    let cancelled = client.request(&Json::obj_id("cancel", first));
    assert_eq!(
        cancelled.get("state").and_then(Json::as_str),
        Some("cancelled")
    );
    assert_eq!(client.wait_terminal(first), "cancelled");
    // The untouched job is still queued.
    assert_eq!(
        client.status(second).get("state").and_then(Json::as_str),
        Some("queued")
    );

    // Protocol error paths: every rejection is the same shape, and the
    // fatal codes are marked non-retryable.
    let code_of = |response: &Json| {
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(response.get("status").and_then(Json::as_str), Some("error"));
        response
            .get("code")
            .and_then(Json::as_str)
            .expect("error code")
            .to_string()
    };
    let unknown = client.request(&Json::obj_id("status", 999));
    assert_eq!(code_of(&unknown), "unknown_job");
    let garbage = client.raw("this is not json");
    assert_eq!(code_of(&garbage), "malformed_request");
    let bad_verb = client.raw(r#"{"verb":"launder"}"#);
    assert_eq!(code_of(&bad_verb), "unknown_verb");
    let no_verb = client.raw("{}");
    assert_eq!(code_of(&no_verb), "malformed_request");
    let missing_file = client.raw(r#"{"verb":"submit","kind":"mine"}"#);
    assert_eq!(code_of(&missing_file), "bad_request");
    let lone_shard = client.raw(&format!(
        r#"{{"verb":"submit","kind":"mine","dump":"{dump_arg}","shard_start":0}}"#
    ));
    assert_eq!(code_of(&lone_shard), "bad_request");
    let rangeless_search = client.raw(&format!(
        r#"{{"verb":"submit","kind":"search_shard","dump":"{dump_arg}"}}"#
    ));
    assert_eq!(code_of(&rangeless_search), "bad_request");
    let sharded_attack = client.raw(&format!(
        r#"{{"verb":"submit","kind":"attack","dump":"{dump_arg}","shard_start":0,"shard_end":8}}"#
    ));
    assert_eq!(code_of(&sharded_attack), "bad_request");
    for fatal in [&unknown, &garbage, &bad_verb, &no_verb, &missing_file] {
        assert_eq!(
            fatal.get("retryable").and_then(Json::as_bool),
            Some(false),
            "{}",
            fatal.render_compact()
        );
    }

    service.shutdown();
}

#[test]
fn cancelling_a_running_job_stops_it() {
    let (path, _dump) = dump_file("svc_cancel_running.cbdf", 55);
    let service = start_service(ServiceConfig {
        workers: 1,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);
    // Tiny windows: lots of cancellation points mid-scan.
    let id = client.submit(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", Json::Str(path.to_string_lossy().into_owned())),
        ("window_blocks", Json::Int(64)),
        ("deep", Json::Bool(true)),
    ]);
    client.request(&Json::obj_id("cancel", id));
    let state = client.wait_terminal(id);
    // Depending on scheduling the cancel lands while queued or running;
    // either way it must not complete.
    assert_eq!(state, "cancelled");
    service.shutdown();
}

#[test]
fn shutdown_verb_drains_and_stops_the_service() {
    let (path, _dump) = dump_file("svc_shutdown.cbdf", 77);
    let service = start_service(ServiceConfig {
        workers: 2,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);
    let id = client.submit(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", Json::Str(path.to_string_lossy().into_owned())),
    ]);
    let ack = client.raw(r#"{"verb":"shutdown"}"#);
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    assert!(service.is_shutting_down());
    // New submissions are refused during drain.
    let refused = client.raw(&format!(
        r#"{{"verb":"submit","kind":"mine","dump":"{}"}}"#,
        path.to_string_lossy()
    ));
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    // Joining the service drains the queue: the submitted job ran.
    service.shutdown();
    let mut late = String::new();
    // The acceptor is gone; the existing connection may or may not still
    // answer, so inspect the job through a fresh service-free check: the
    // job must have left the queue (done), which we verify by reading the
    // old connection if it is still alive, else by the drain guarantee.
    let mut out = Json::obj_id("status", id).render_compact();
    out.push('\n');
    if client.writer.write_all(out.as_bytes()).is_ok()
        && client.reader.read_line(&mut late).is_ok()
        && !late.trim().is_empty()
    {
        let status = json::parse(late.trim()).expect("well-formed response");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    }
}

#[test]
fn stats_verb_reports_scan_counters_after_a_job() {
    let (path, dump) = dump_file("svc_stats.cbdf", 101);
    let service = start_service(ServiceConfig {
        workers: 1,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);

    // A fresh service serves an all-zero (but complete) metric set.
    let before = client.stats();
    assert_eq!(counter(&before, "jobs_submitted"), 0);
    assert_eq!(counter(&before, "mine_blocks"), 0);
    assert_eq!(counter(&before, "search_corrector_runs"), 0);

    let id = client.submit(vec![
        ("kind", Json::Str("mine".into())),
        ("dump", Json::Str(path.to_string_lossy().into_owned())),
    ]);
    assert_eq!(client.wait_terminal(id), "done");

    let after = client.stats();
    let total_blocks = (dump.len() / 64) as i64;
    assert_eq!(counter(&after, "jobs_submitted"), 1);
    assert_eq!(counter(&after, "jobs_done"), 1);
    assert_eq!(counter(&after, "jobs_timed_out"), 0);
    assert_eq!(counter(&after, "queue_depth"), 0);
    // The mining bundle saw every block of the image, through real windows
    // read from a real CBDF file.
    assert_eq!(counter(&after, "mine_blocks"), total_blocks);
    assert!(counter(&after, "pipeline_windows") > 0);
    assert!(
        counter(&after, "dump_chunks_raw") + counter(&after, "dump_chunks_rle") > 0,
        "reader counters never moved"
    );
    // Histograms render with count/sum/buckets.
    let run = after.get("job_run_us").expect("job_run_us histogram");
    assert_eq!(run.get("count").and_then(Json::as_i64), Some(1));
    assert!(run.get("buckets").and_then(Json::as_arr).is_some());

    service.shutdown();
}

#[test]
fn timeout_overshoot_is_bounded_and_counted_once() {
    // 256 rows -> a 4 MiB capture: a single-threaded deep attack takes well
    // over the 1 s deadline, so the timeout machinery genuinely fires
    // mid-scan (timeout_secs=0 would trip before the first window).
    let (path, _dump) = dump_file_with_rows("svc_overshoot.cbdf", 113, 256);
    let service = start_service(ServiceConfig {
        workers: 1,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);
    let submitted = Instant::now();
    // One whole-file window: before deadline checks moved inside the scan
    // (TICK_BLOCKS read slices), this job would overshoot its deadline by
    // the entire remaining scan instead of one slice.
    let id = client.submit(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", Json::Str(path.to_string_lossy().into_owned())),
        ("window_blocks", Json::Int(1 << 20)),
        ("deep", Json::Bool(true)),
        ("timeout_secs", Json::Int(1)),
    ]);
    let state = client.wait_terminal(id);
    let elapsed = submitted.elapsed();
    assert_eq!(state, "timed_out");
    // The deadline itself is respected...
    assert!(
        elapsed >= Duration::from_secs(1),
        "timed out early: {elapsed:?}"
    );
    // ...and the overshoot is one read slice plus polling slack, not the
    // rest of a multi-MiB deep scan. The bound is generous for slow CI.
    assert!(
        elapsed < Duration::from_secs(1) + Duration::from_secs(8),
        "deadline overshot by {:?}",
        elapsed - Duration::from_secs(1)
    );
    // Exactly one timed-out job -> the counter moved exactly once.
    let stats = client.stats();
    assert_eq!(counter(&stats, "jobs_timed_out"), 1);
    assert_eq!(counter(&stats, "jobs_done"), 0);
    // The scan was cut short: progress stopped below the attack total.
    let status = client.status(id);
    let done = status
        .get("blocks_done")
        .and_then(Json::as_i64)
        .expect("done");
    let total = status
        .get("blocks_total")
        .and_then(Json::as_i64)
        .expect("total");
    assert!(done < total, "timed-out job reported a complete scan");
    service.shutdown();
}

#[test]
fn progress_is_monotonic_and_reaches_the_attack_total() {
    let (path, dump) = dump_file("svc_progress.cbdf", 131);
    let service = start_service(ServiceConfig {
        workers: 1,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);
    let id = client.submit(vec![
        ("kind", Json::Str("attack".into())),
        ("dump", Json::Str(path.to_string_lossy().into_owned())),
        ("window_blocks", Json::Int(64)),
    ]);
    // Sample progress while the job runs: it must never move backwards.
    let mut last_done = 0i64;
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let status = client.status(id);
        let done = status
            .get("blocks_done")
            .and_then(Json::as_i64)
            .expect("done");
        assert!(
            done >= last_done,
            "progress went backwards: {last_done} -> {done}"
        );
        last_done = done;
        let state = status.get("state").and_then(Json::as_str).expect("state");
        if state != "queued" && state != "running" {
            assert_eq!(state, "done");
            break;
        }
        assert!(Instant::now() < deadline, "job stuck in {state}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // On completion the counter equals the pipeline's published total for
    // this image and config — the denominator dashboards divide by.
    let expected =
        coldboot_dumpio::pipeline::attack_total_blocks(dump.len() as u64, &AttackConfig::default())
            as i64;
    let status = client.status(id);
    assert_eq!(
        status.get("blocks_done").and_then(Json::as_i64),
        Some(expected)
    );
    assert_eq!(
        status.get("blocks_total").and_then(Json::as_i64),
        Some(expected)
    );
    service.shutdown();
}

#[test]
fn expired_in_queue_jobs_fail_fast_without_running() {
    let service = start_service(ServiceConfig {
        workers: 1,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);
    // The dump path does not exist: if this job ever *ran*, it would fail
    // with a file error — so `timed_out` proves the expired-in-queue fast
    // path skipped execution entirely.
    let id = client.submit(vec![
        ("kind", Json::Str("mine".into())),
        ("dump", Json::Str("/nonexistent/expired.cbdf".into())),
        ("timeout_secs", Json::Int(0)),
    ]);
    assert_eq!(client.wait_terminal(id), "timed_out");
    // Never ran: no scan ever published a denominator.
    let status = client.status(id);
    assert_eq!(status.get("blocks_total").and_then(Json::as_i64), Some(0));
    // Counted exactly once, and as a timeout rather than a failure.
    let stats = client.stats();
    assert_eq!(counter(&stats, "jobs_timed_out"), 1);
    assert_eq!(counter(&stats, "jobs_failed"), 0);
    service.shutdown();
}

#[test]
fn shard_jobs_merge_to_the_single_node_result() {
    use coldboot::attack::ddr3::FrequencyCounter;
    use coldboot::keysearch::merge_search_partials;
    use coldboot::litmus::KeyMiner;
    use coldboot_dumpio::pipeline::plan_shards;
    use coldboot_dumpio::wire::{self, JobKind, ShardPartial};

    let (path, dump) = dump_file("svc_shard.cbdf", 147);
    let service = start_service(ServiceConfig {
        workers: 4,
        queue_limit: 64,
    });
    let mut client = Client::connect(&service);
    let config = AttackConfig::default();
    let expected = run_ddr4_attack(&dump, &config);
    assert!(
        !expected.outcome.recovered.is_empty(),
        "scenario must recover keys for the merge check to mean anything"
    );
    let dump_arg = path.to_string_lossy().into_owned();
    let total_blocks = (dump.len() / 64) as u64;
    let mined_blocks = (expected.mined_bytes / 64) as u64;

    // A shard job's `result` reply, as a client's tree and as the
    // coordinator's one-pass read of the same line.
    let run_shard = |client: &mut Client,
                     kind: JobKind,
                     mut pairs: Vec<(&str, Json)>,
                     range: &std::ops::Range<u64>| {
        pairs.push(("kind", Json::Str(kind.name().into())));
        pairs.push(("dump", Json::Str(dump_arg.clone())));
        pairs.push(("shard_start", Json::Int(range.start as i64)));
        pairs.push(("shard_end", Json::Int(range.end as i64)));
        let id = client.submit(pairs);
        assert_eq!(client.wait_terminal(id), "done", "shard job {id}");
        let line = client.line(&Json::obj_id("result", id).render_compact());
        let body = json::parse(line.trim())
            .and_then(|reply| reply.get("result").cloned())
            .expect("result body");
        let partial = wire::read_result_reply(line.trim(), kind, range)
            .and_then(|reply| reply.result)
            .expect("a result body")
            .expect("a partial of the shard's kind and range");
        (body, partial)
    };

    // Phase 1: mine the prefix in three shards; absorb and finish once.
    let mut miner = KeyMiner::new(&config.mining);
    for range in plan_shards(mined_blocks, 3) {
        let (body, partial) = run_shard(&mut client, JobKind::Mine, Vec::new(), &range);
        assert_eq!(body.get("kind").and_then(Json::as_str), Some("mine_shard"));
        let ShardPartial::Mine(observations) = partial else {
            panic!("parse observations")
        };
        miner.absorb_observations(observations);
    }
    let candidates = miner.finish();
    assert_eq!(candidates, expected.candidates, "merged mining diverged");

    // Phase 2: search in three shards with the candidates passed through;
    // concatenate partials in shard order and replay the dedup.
    let candidates_json = wire::candidates_to_json(&candidates);
    let mut partials = Vec::new();
    for range in plan_shards(total_blocks, 3) {
        let (body, partial) = run_shard(
            &mut client,
            JobKind::SearchShard,
            vec![("candidates", candidates_json.clone())],
            &range,
        );
        assert_eq!(
            body.get("kind").and_then(Json::as_str),
            Some("search_shard")
        );
        let ShardPartial::Search(partial) = partial else {
            panic!("parse partial")
        };
        partials.push(partial);
    }
    let outcome = merge_search_partials(partials);
    assert_eq!(outcome.hits, expected.outcome.hits, "merged hits diverged");
    assert_eq!(
        outcome.recovered, expected.outcome.recovered,
        "merged recoveries diverged"
    );
    assert_eq!(outcome.blocks_scanned, expected.outcome.blocks_scanned);

    // Frequency histograms sum across shards.
    let mut freq = FrequencyCounter::new();
    for range in plan_shards(total_blocks, 3) {
        let (body, partial) = run_shard(&mut client, JobKind::Frequency, Vec::new(), &range);
        assert_eq!(
            body.get("kind").and_then(Json::as_str),
            Some("frequency_shard")
        );
        let ShardPartial::Frequency(counts) = partial else {
            panic!("parse counts")
        };
        freq.absorb_counts(counts);
    }
    assert_eq!(
        freq.finish(24),
        frequency_keys(&dump, 24),
        "merged frequency diverged"
    );

    service.shutdown();
}

#[test]
fn slow_writers_are_buffered_across_read_timeouts() {
    // The connection loop's read timeout is 100 ms; a client dribbling a
    // request byte-wise with longer pauses exercises the partial-line
    // buffering (and the old Interrupted-kills-connection path never had a
    // test at all).
    let service = start_service(ServiceConfig {
        workers: 0,
        queue_limit: 2,
    });
    let stream = TcpStream::connect(service.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    let request = b"{\"verb\":\"ping\"}\n";
    for piece in request.chunks(4) {
        writer.write_all(piece).expect("send piece");
        writer.flush().expect("flush piece");
        std::thread::sleep(Duration::from_millis(150));
    }
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    let response = json::parse(response.trim()).expect("well-formed response");
    assert_eq!(response.get("pong").and_then(Json::as_bool), Some(true));

    // The same connection still works at full speed afterwards, and two
    // requests in one segment are answered in order.
    writer
        .write_all(b"{\"verb\":\"stats\"}\n{\"verb\":\"ping\"}\n")
        .expect("send pair");
    let mut first = String::new();
    reader.read_line(&mut first).expect("receive stats");
    assert!(json::parse(first.trim())
        .expect("stats json")
        .get("metrics")
        .is_some());
    let mut second = String::new();
    reader.read_line(&mut second).expect("receive pong");
    assert_eq!(
        json::parse(second.trim())
            .expect("pong json")
            .get("pong")
            .and_then(Json::as_bool),
        Some(true)
    );
    service.shutdown();
}

/// A 64 KiB CBDF of seeded bytes: a frequency job over it finishes in
/// milliseconds.
fn small_dump(name: &str) -> PathBuf {
    let mut image = vec![0u8; 64 << 10];
    SplitMix64::new(5).fill(&mut image);
    let file = write_image(
        Vec::new(),
        DumpMeta::for_image(0, image.len() as u64),
        &image,
    )
    .expect("encode");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, file).expect("write dump file");
    path
}

/// `{"verb":"wait","id":ID,"timeout_ms":MS}`.
fn wait_request(id: i64, timeout_ms: i64) -> Json {
    Json::obj([
        ("verb", Json::Str("wait".into())),
        ("id", Json::Int(id)),
        ("timeout_ms", Json::Int(timeout_ms)),
    ])
}

fn error_code(response: &Json) -> Option<&str> {
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    response.get("code").and_then(Json::as_str)
}

#[test]
fn wait_times_out_on_a_queued_job() {
    let path = small_dump("svc_wait_queued.cbdf");
    // No workers: the job can only stay queued.
    let service = start_service(ServiceConfig {
        workers: 0,
        queue_limit: 2,
    });
    let mut client = Client::connect(&service);
    let id = client.submit(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", Json::Str(path.to_string_lossy().into_owned())),
    ]);
    let started = Instant::now();
    let reply = client.request(&wait_request(id, 300));
    let elapsed = started.elapsed();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("state").and_then(Json::as_str), Some("queued"));
    assert_eq!(reply.get("result"), Some(&Json::Null));
    assert!(
        elapsed >= Duration::from_millis(300),
        "returned early: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(800),
        "returned late: {elapsed:?}"
    );
    service.shutdown();
}

#[test]
fn wait_returns_the_result_as_soon_as_the_job_is_done() {
    let path = small_dump("svc_wait_done.cbdf");
    let service = start_service(ServiceConfig {
        workers: 1,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);
    let id = client.submit(vec![
        ("kind", Json::Str("frequency".into())),
        ("dump", Json::Str(path.to_string_lossy().into_owned())),
        ("top_keys", Json::Int(4)),
    ]);
    let started = Instant::now();
    let waited = client.request(&wait_request(id, 60_000));
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "wait held on past completion: {:?}",
        started.elapsed()
    );
    assert_eq!(waited.get("state").and_then(Json::as_str), Some("done"));
    let body = waited.get("result").expect("result body");
    assert_eq!(body.get("kind").and_then(Json::as_str), Some("frequency"));
    // The same reply `result` gives, byte for byte once rendered.
    let fetched = client.result(id);
    assert_eq!(fetched.render_compact(), waited.render_compact());

    // Error paths: an unknown id, and every malformed timeout.
    assert_eq!(
        error_code(&client.request(&wait_request(999, 10))),
        Some("unknown_job")
    );
    for bad in [
        format!(r#"{{"verb":"wait","id":{id}}}"#),
        format!(r#"{{"verb":"wait","id":{id},"timeout_ms":-1}}"#),
        format!(r#"{{"verb":"wait","id":{id},"timeout_ms":60001}}"#),
        format!(r#"{{"verb":"wait","id":{id},"timeout_ms":"10"}}"#),
    ] {
        assert_eq!(error_code(&client.raw(&bad)), Some("bad_request"), "{bad}");
    }
    service.shutdown();
}

#[test]
fn the_table_forgets_the_oldest_of_65_finished_jobs() {
    let path = small_dump("svc_evict.cbdf");
    let service = start_service(ServiceConfig {
        workers: 1,
        queue_limit: 8,
    });
    let mut client = Client::connect(&service);
    let mut ids = Vec::new();
    for _ in 0..65 {
        let id = client.submit(vec![
            ("kind", Json::Str("frequency".into())),
            ("dump", Json::Str(path.to_string_lossy().into_owned())),
            ("top_keys", Json::Int(4)),
        ]);
        let waited = client.request(&wait_request(id, 60_000));
        assert_eq!(waited.get("state").and_then(Json::as_str), Some("done"));
        ids.push(id);
    }
    let (first, last) = (ids[0], ids[64]);
    assert_eq!(error_code(&client.status(first)), Some("unknown_job"));
    assert_eq!(error_code(&client.result(first)), Some("unknown_job"));
    assert_eq!(
        error_code(&client.request(&wait_request(first, 0))),
        Some("unknown_job")
    );
    let kept = client.result(last);
    assert_eq!(kept.get("state").and_then(Json::as_str), Some("done"));
    assert!(kept.get("result").and_then(|r| r.get("keys")).is_some());
    // Forgetting a job leaves the lifecycle counters alone.
    let stats = client.stats();
    assert_eq!(counter(&stats, "jobs_submitted"), 65);
    assert_eq!(counter(&stats, "jobs_done"), 65);
    service.shutdown();
}

#[test]
fn shutdown_of_an_idle_service_is_prompt() {
    let service = start_service(ServiceConfig {
        workers: 2,
        queue_limit: 8,
    });
    let started = Instant::now();
    service.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
}
