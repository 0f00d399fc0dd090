//! The job protocol's documents: every JSON shape `coldboot-dumpd` and
//! the `coldboot-cluster` coordinator exchange is rendered and parsed
//! here, so the two services cannot drift.
//!
//! * The `submit` spec: [`parse_spec`] reads a submit line into a
//!   [`JobSpec`] (dumpd for every job, the coordinator for its clients'
//!   jobs) and [`JobSpec::to_json`] renders one back (the coordinator's
//!   shard submits). `crate::service` lists the fields.
//! * Finished results: the `mine`/`frequency` key list
//!   ([`keys_to_json`]) and the `attack` result ([`attack_to_json`]).
//! * Shard replies, the *mergeable* partials a worker returns for one
//!   block range ([`ShardPartial`]): mining observation maps, frequency
//!   histograms, and search hits with *pre-dedup* recoveries, framed with
//!   their `kind` and the `shard_start`/`shard_end` echo.
//! * Reply envelopes: the uniform error ([`error_response`]) and the
//!   `result`/`wait` reply ([`result_reply`]) with its job [`JobState`].
//!
//! Every value the scan engine needs to replay its deterministic merge is
//! carried at full fidelity — keys as lowercase hex, addresses and counts
//! as integers — which is what makes the cluster result byte-identical to
//! a single-node pass.
//!
//! Parsers are total: any structural mismatch yields `None` or an error,
//! never a panic, because the bytes come from the network.

use std::ops::Range;
use std::sync::Arc;

use coldboot::attack::AttackReport;
use coldboot::keysearch::{KeySize, RecoveredAesKey, ScheduleHit, SearchPartial};
use coldboot::litmus::{CandidateKey, MinedObservation};
use coldboot::reconstruct::FlipCounts;
use coldboot_dram::BLOCK_BYTES;

use crate::json::Json;
use crate::pipeline::DEFAULT_WINDOW_BLOCKS;

/// Lowercase hex of `bytes` (the line protocol's only binary encoding).
pub fn hex_lower(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0F) as usize] as char);
    }
    out
}

/// Decodes lowercase/uppercase hex; `None` on odd length or non-hex input.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

fn block_from_hex(s: &str) -> Option<[u8; BLOCK_BYTES]> {
    hex_decode(s)?.try_into().ok()
}

fn get_u64(obj: &Json, key: &str) -> Option<u64> {
    obj.get(key)?.as_i64().and_then(|i| u64::try_from(i).ok())
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.get(key)?.as_str()
}

fn key_size_bits(size: KeySize) -> i64 {
    (size.nk() * 32) as i64
}

fn key_size_from_bits(bits: u64) -> Option<KeySize> {
    KeySize::from_key_len(usize::try_from(bits).ok()? / 8).ok()
}

/// Renders mined candidates as the `submit` pass-through shape:
/// `[{"key_hex":...,"observations":N}, ...]`.
pub fn candidates_to_json(candidates: &[CandidateKey]) -> Json {
    Json::Arr(
        candidates
            .iter()
            .map(|c| {
                Json::obj([
                    ("key_hex", Json::Str(hex_lower(&c.key))),
                    ("observations", Json::Int(i64::from(c.observations))),
                ])
            })
            .collect(),
    )
}

/// Parses [`candidates_to_json`]'s output. Order is preserved — candidate
/// order is part of the search's deterministic contract.
pub fn candidates_from_json(value: &Json) -> Option<Vec<CandidateKey>> {
    let Json::Arr(rows) = value else { return None };
    rows.iter()
        .map(|row| {
            Some(CandidateKey {
                key: block_from_hex(get_str(row, "key_hex")?)?,
                observations: u32::try_from(get_u64(row, "observations")?).ok()?,
            })
        })
        .collect()
}

/// Renders a mining shard's raw observation export:
/// `[{"key_hex":...,"count":N,"first_idx":N}, ...]`.
pub fn observations_to_json(observations: &[MinedObservation]) -> Json {
    Json::Arr(
        observations
            .iter()
            .map(|o| {
                Json::obj([
                    ("key_hex", Json::Str(hex_lower(&o.value))),
                    ("count", Json::Int(i64::from(o.count))),
                    ("first_idx", Json::Int(o.first_idx as i64)),
                ])
            })
            .collect(),
    )
}

/// Parses [`observations_to_json`]'s output.
pub fn observations_from_json(value: &Json) -> Option<Vec<MinedObservation>> {
    let Json::Arr(rows) = value else { return None };
    rows.iter()
        .map(|row| {
            Some(MinedObservation {
                value: block_from_hex(get_str(row, "key_hex")?)?,
                count: u32::try_from(get_u64(row, "count")?).ok()?,
                first_idx: usize::try_from(get_u64(row, "first_idx")?).ok()?,
            })
        })
        .collect()
}

/// Renders a frequency shard's histogram export:
/// `[{"key_hex":...,"count":N}, ...]`.
pub fn counts_to_json(counts: &[([u8; BLOCK_BYTES], u32)]) -> Json {
    Json::Arr(
        counts
            .iter()
            .map(|(value, count)| {
                Json::obj([
                    ("key_hex", Json::Str(hex_lower(value))),
                    ("count", Json::Int(i64::from(*count))),
                ])
            })
            .collect(),
    )
}

/// Parses [`counts_to_json`]'s output.
pub fn counts_from_json(value: &Json) -> Option<Vec<([u8; BLOCK_BYTES], u32)>> {
    let Json::Arr(rows) = value else { return None };
    rows.iter()
        .map(|row| {
            Some((
                block_from_hex(get_str(row, "key_hex")?)?,
                u32::try_from(get_u64(row, "count")?).ok()?,
            ))
        })
        .collect()
}

fn hit_to_json(hit: &ScheduleHit) -> Json {
    Json::obj([
        ("block_addr", Json::Int(hit.block_addr as i64)),
        (
            "scrambler_key_hex",
            Json::Str(hex_lower(&hit.scrambler_key)),
        ),
        ("key_bits", Json::Int(key_size_bits(hit.key_size))),
        ("window_offset", Json::Int(hit.window_offset as i64)),
        ("start_word", Json::Int(hit.start_word as i64)),
        (
            "prediction_distance",
            Json::Int(i64::from(hit.prediction_distance)),
        ),
    ])
}

fn hit_from_json(value: &Json) -> Option<ScheduleHit> {
    Some(ScheduleHit {
        block_addr: get_u64(value, "block_addr")?,
        scrambler_key: block_from_hex(get_str(value, "scrambler_key_hex")?)?,
        key_size: key_size_from_bits(get_u64(value, "key_bits")?)?,
        window_offset: usize::try_from(get_u64(value, "window_offset")?).ok()?,
        start_word: usize::try_from(get_u64(value, "start_word")?).ok()?,
        prediction_distance: u32::try_from(get_u64(value, "prediction_distance")?).ok()?,
    })
}

/// A recovered key's row: what the `attack` result lists, and what a
/// search partial carries ahead of the raw `hit`.
fn recovery_fields(rec: &RecoveredAesKey) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("key_bits", Json::Int((rec.master_key.len() * 8) as i64)),
        ("master_hex", Json::Str(hex_lower(&rec.master_key))),
        ("schedule_addr", Json::Int(rec.schedule_addr as i64)),
        (
            "total_error_bits",
            Json::Int(i64::from(rec.total_error_bits)),
        ),
        (
            "unexplained_blocks",
            Json::Int(i64::from(rec.unexplained_blocks)),
        ),
    ];
    // Channel-reconstruction fields travel only when the job ran with
    // reconstruction on: their absence is what keeps the off-mode shapes
    // byte-identical to the historical protocol.
    if let Some(cost) = rec.cost_millinats {
        fields.push((
            "cost_mnat",
            Json::Int(i64::try_from(cost).unwrap_or(i64::MAX)),
        ));
    }
    if let Some(flips) = rec.flips {
        fields.push(("to_ground_bits", Json::Int(i64::from(flips.to_ground))));
        fields.push(("anti_ground_bits", Json::Int(i64::from(flips.anti_ground))));
    }
    fields
}

fn recovery_to_json(rec: &RecoveredAesKey) -> Json {
    let mut fields = recovery_fields(rec);
    fields.push(("hit", hit_to_json(&rec.hit)));
    Json::obj(fields)
}

fn recovery_from_json(value: &Json) -> Option<RecoveredAesKey> {
    let master_key = hex_decode(get_str(value, "master_hex")?)?;
    let flips = match (value.get("to_ground_bits"), value.get("anti_ground_bits")) {
        (Some(_), Some(_)) => Some(FlipCounts {
            to_ground: u32::try_from(get_u64(value, "to_ground_bits")?).ok()?,
            anti_ground: u32::try_from(get_u64(value, "anti_ground_bits")?).ok()?,
        }),
        (None, None) => None,
        // Half a flip report is a corrupt frame, not an off-mode one.
        _ => return None,
    };
    Some(RecoveredAesKey {
        key_size: KeySize::from_key_len(master_key.len()).ok()?,
        master_key,
        schedule_addr: get_u64(value, "schedule_addr")?,
        total_error_bits: u32::try_from(get_u64(value, "total_error_bits")?).ok()?,
        unexplained_blocks: u32::try_from(get_u64(value, "unexplained_blocks")?).ok()?,
        cost_millinats: match value.get("cost_mnat") {
            Some(_) => Some(get_u64(value, "cost_mnat")?),
            None => None,
        },
        flips,
        hit: hit_from_json(value.get("hit")?)?,
    })
}

/// A search shard's mergeable partial: hits in block order, *pre-dedup*
/// recoveries in verification order, and the shard's region-filtered
/// scan count.
fn search_partial_fields(partial: &SearchPartial) -> [(&'static str, Json); 3] {
    [
        (
            "hits",
            Json::Arr(partial.hits.iter().map(hit_to_json).collect()),
        ),
        (
            "recoveries",
            Json::Arr(partial.recoveries.iter().map(recovery_to_json).collect()),
        ),
        ("blocks_scanned", Json::Int(partial.blocks_scanned as i64)),
    ]
}

/// Parses a search shard reply's partial. Sequence order is preserved
/// exactly — the coordinator's dedup replay depends on it.
pub fn search_partial_from_json(value: &Json) -> Option<SearchPartial> {
    let Json::Arr(hit_rows) = value.get("hits")? else {
        return None;
    };
    let Json::Arr(rec_rows) = value.get("recoveries")? else {
        return None;
    };
    Some(SearchPartial {
        hits: hit_rows.iter().map(hit_from_json).collect::<Option<_>>()?,
        recoveries: rec_rows
            .iter()
            .map(recovery_from_json)
            .collect::<Option<_>>()?,
        blocks_scanned: usize::try_from(get_u64(value, "blocks_scanned")?).ok()?,
    })
}

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Mine scrambler keys from a prefix, then search the whole image for
    /// AES schedules and run each back to its master key.
    Attack,
    /// Mining only.
    Mine,
    /// Block-frequency census.
    Frequency,
    /// One shard of a cluster search: scans a block range against a
    /// passed-through candidate list and returns a mergeable partial.
    SearchShard,
}

impl JobKind {
    /// The `kind` a submit names the job by (`"search"` also parses as
    /// [`JobKind::Attack`]), and the `kind` of its finished result.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Attack => "attack",
            JobKind::Mine => "mine",
            JobKind::Frequency => "frequency",
            JobKind::SearchShard => "search_shard",
        }
    }
}

/// One `submit` request, as [`parse_spec`] reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The computation to run.
    pub kind: JobKind,
    /// Path of the CBDF dump, as the service that runs the job sees it.
    pub dump: String,
    /// Streaming window in blocks.
    pub window_blocks: usize,
    /// Wall-clock budget, spent from submit time.
    pub timeout_secs: Option<u64>,
    /// Scan threads for the job.
    pub threads: usize,
    /// Thorough search preset (attack and search shards).
    pub deep: bool,
    /// Mining prefix in bytes (attack and whole-image mine jobs).
    pub max_bytes: Option<u64>,
    /// How many keys a frequency census reports.
    pub top_keys: usize,
    /// Global block range this job owns (cluster shard jobs). With a
    /// range, `mine`/`frequency` return mergeable partials instead of
    /// finished results; `search_shard` requires one.
    pub shard: Option<Range<u64>>,
    /// Pass-through scrambler candidates for `search_shard`.
    pub candidates: Vec<CandidateKey>,
    /// Ground-state dump path; enables channel-model reconstruction for
    /// `attack`/`search_shard` jobs when present.
    pub ground: Option<String>,
    /// Explicit charged-bit decay fraction. Without it, a reconstruction
    /// job derives the channel from the dump's capture metadata
    /// (temperature + transfer time) via the paper-calibrated model.
    pub decay_fraction: Option<f64>,
    /// Branch-and-bound work budget override (popped nodes per span).
    pub work_budget: Option<u64>,
}

impl JobSpec {
    /// Renders the spec as a `submit` request that [`parse_spec`] reads
    /// back to an equal spec. Unset options and an empty candidate list
    /// are left out.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("verb", Json::Str("submit".to_string())),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("dump", Json::Str(self.dump.clone())),
            ("window_blocks", Json::Int(self.window_blocks as i64)),
            ("threads", Json::Int(self.threads as i64)),
            ("deep", Json::Bool(self.deep)),
            ("top_keys", Json::Int(self.top_keys as i64)),
        ];
        let counts = [
            ("timeout_secs", self.timeout_secs),
            ("max_bytes", self.max_bytes),
            ("shard_start", self.shard.as_ref().map(|s| s.start)),
            ("shard_end", self.shard.as_ref().map(|s| s.end)),
            ("work_budget", self.work_budget),
        ];
        for (name, value) in counts {
            if let Some(value) = value {
                pairs.push((name, Json::Int(value as i64)));
            }
        }
        if !self.candidates.is_empty() {
            pairs.push(("candidates", candidates_to_json(&self.candidates)));
        }
        if let Some(ground) = &self.ground {
            pairs.push(("ground", Json::Str(ground.clone())));
        }
        if let Some(d) = self.decay_fraction {
            pairs.push(("decay_fraction", Json::Num(d)));
        }
        Json::obj(pairs)
    }
}

/// Reads an optional non-negative integer field of a request; any other
/// value is a `bad_request` reply.
///
/// # Errors
///
/// The error reply naming the field.
pub fn opt_u64(request: &Json, name: &str) -> Result<Option<u64>, Json> {
    match request.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_i64() {
            Some(i) if i >= 0 => Ok(Some(i as u64)),
            _ => {
                let mut message = String::from(name);
                message.push_str(" must be a non-negative integer");
                Err(error_response("bad_request", &message))
            }
        },
    }
}

/// Reads a `submit` request into a [`JobSpec`].
///
/// # Errors
///
/// The `bad_request` reply for the first field that is missing, of the
/// wrong type or range, or not allowed with the others.
pub fn parse_spec(request: &Json) -> Result<JobSpec, Json> {
    let kind = match request.get("kind").and_then(Json::as_str) {
        Some("attack" | "search") => JobKind::Attack,
        Some("mine") => JobKind::Mine,
        Some("frequency") => JobKind::Frequency,
        Some("search_shard") => JobKind::SearchShard,
        _ => {
            return Err(error_response(
                "bad_request",
                "kind must be attack, mine, frequency, or search_shard",
            ))
        }
    };
    let Some(dump) = request.get("dump").and_then(Json::as_str) else {
        return Err(error_response("bad_request", "missing dump path"));
    };
    let window_blocks = match opt_u64(request, "window_blocks")? {
        Some(0) => {
            return Err(error_response(
                "bad_request",
                "window_blocks must be positive",
            ))
        }
        Some(n) => n as usize,
        None => DEFAULT_WINDOW_BLOCKS,
    };
    let shard = match (
        opt_u64(request, "shard_start")?,
        opt_u64(request, "shard_end")?,
    ) {
        (None, None) => None,
        (Some(start), Some(end)) if start <= end => Some(start..end),
        (Some(_), Some(_)) => {
            return Err(error_response(
                "bad_request",
                "shard_start must not exceed shard_end",
            ))
        }
        _ => {
            return Err(error_response(
                "bad_request",
                "shard_start and shard_end must be given together",
            ))
        }
    };
    if kind == JobKind::SearchShard && shard.is_none() {
        return Err(error_response(
            "bad_request",
            "search_shard requires shard_start and shard_end",
        ));
    }
    if kind == JobKind::Attack && shard.is_some() {
        return Err(error_response(
            "bad_request",
            "attack does not shard; submit mine and search_shard phases instead",
        ));
    }
    let candidates = match request.get("candidates") {
        None | Some(Json::Null) => Vec::new(),
        Some(value) => match candidates_from_json(value) {
            Some(candidates) => candidates,
            None => {
                return Err(error_response(
                    "bad_request",
                    "candidates must be an array of {key_hex, observations}",
                ))
            }
        },
    };
    let ground = request
        .get("ground")
        .and_then(Json::as_str)
        .map(String::from);
    let decay_fraction = match request.get("decay_fraction") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_f64() {
            Some(d) if d.is_finite() && (0.0..=1.0).contains(&d) => Some(d),
            _ => {
                return Err(error_response(
                    "bad_request",
                    "decay_fraction must be a number in [0, 1]",
                ))
            }
        },
    };
    if ground.is_none() && (decay_fraction.is_some() || request.get("work_budget").is_some()) {
        return Err(error_response(
            "bad_request",
            "decay_fraction and work_budget require a ground dump",
        ));
    }
    if ground.is_some() && !matches!(kind, JobKind::Attack | JobKind::SearchShard) {
        return Err(error_response(
            "bad_request",
            "ground applies only to attack and search_shard jobs",
        ));
    }
    Ok(JobSpec {
        kind,
        dump: dump.to_string(),
        window_blocks,
        timeout_secs: opt_u64(request, "timeout_secs")?,
        threads: opt_u64(request, "threads")?.map_or(1, |t| (t as usize).max(1)),
        deep: request.get("deep").and_then(Json::as_bool).unwrap_or(false),
        max_bytes: opt_u64(request, "max_bytes")?,
        top_keys: opt_u64(request, "top_keys")?.map_or(48, |n| n as usize),
        shard,
        candidates,
        ground,
        decay_fraction,
        work_budget: opt_u64(request, "work_budget")?,
    })
}

/// The finished `mine` or `frequency` result:
/// `{"kind":KIND,"keys":[{"key_hex":...,"observations":N}, ...]}`.
#[must_use]
pub fn keys_to_json(kind: JobKind, keys: &[CandidateKey]) -> Json {
    Json::obj([
        ("kind", Json::Str(kind.name().to_string())),
        ("keys", candidates_to_json(keys)),
    ])
}

/// The finished `attack` result: its counts, then one row per recovered
/// key (a search partial's recovery row without the raw `hit`).
#[must_use]
pub fn attack_to_json(report: &AttackReport) -> Json {
    let outcome = &report.outcome;
    let recovered = outcome
        .recovered
        .iter()
        .map(|rec| Json::obj(recovery_fields(rec)))
        .collect();
    Json::obj([
        ("kind", Json::Str(JobKind::Attack.name().to_string())),
        ("mined_bytes", Json::Int(report.mined_bytes as i64)),
        ("candidates", Json::Int(report.candidates.len() as i64)),
        ("hits", Json::Int(outcome.hits.len() as i64)),
        ("blocks_scanned", Json::Int(outcome.blocks_scanned as i64)),
        ("recovered", Json::Arr(recovered)),
    ])
}

/// A shard job's mergeable partial: what a worker returns for one block
/// range, and the coordinator absorbs.
#[derive(Debug, Clone)]
pub enum ShardPartial {
    /// A `mine` shard's raw observation map.
    Mine(Vec<MinedObservation>),
    /// A `frequency` shard's histogram.
    Frequency(Vec<([u8; BLOCK_BYTES], u32)>),
    /// A `search_shard`'s hits, pre-dedup recoveries and scan count.
    Search(SearchPartial),
}

/// Frames a shard's partial as the worker's result: its `kind`
/// (`mine_shard`, `frequency_shard` or `search_shard`), the
/// `shard_start`/`shard_end` echo, then the partial's own fields.
#[must_use]
pub fn shard_reply_to_json(shard: &Range<u64>, partial: &ShardPartial) -> Json {
    let (kind, fields) = match partial {
        ShardPartial::Mine(observations) => (
            "mine_shard",
            vec![("observations", observations_to_json(observations))],
        ),
        ShardPartial::Frequency(counts) => {
            ("frequency_shard", vec![("counts", counts_to_json(counts))])
        }
        ShardPartial::Search(partial) => ("search_shard", search_partial_fields(partial).into()),
    };
    let mut pairs = vec![
        ("kind", Json::Str(kind.to_string())),
        ("shard_start", Json::Int(shard.start as i64)),
        ("shard_end", Json::Int(shard.end as i64)),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// Reads a worker's result for a `kind` shard job over `shard`.
///
/// # Errors
///
/// Names the first violation: an `attack` kind (it does not shard), a
/// reply of another kind, a range echo other than `shard`, or a malformed
/// partial.
pub fn shard_reply_from_json(
    body: &Json,
    kind: JobKind,
    shard: &Range<u64>,
) -> Result<ShardPartial, String> {
    let expected = match kind {
        JobKind::Mine => "mine_shard",
        JobKind::Frequency => "frequency_shard",
        JobKind::SearchShard => "search_shard",
        JobKind::Attack => return Err("attack jobs do not shard".to_string()),
    };
    let got = body.get("kind").and_then(Json::as_str).unwrap_or("");
    if got != expected {
        return Err(format!("expected {expected} reply, got {got:?}"));
    }
    let echo = |field: &str| body.get(field).and_then(Json::as_i64);
    if echo("shard_start") != Some(shard.start as i64)
        || echo("shard_end") != Some(shard.end as i64)
    {
        return Err("shard range echo mismatch".to_string());
    }
    let partial = match kind {
        JobKind::Mine => body
            .get("observations")
            .and_then(observations_from_json)
            .map(ShardPartial::Mine),
        JobKind::Frequency => body
            .get("counts")
            .and_then(counts_from_json)
            .map(ShardPartial::Frequency),
        JobKind::SearchShard | JobKind::Attack => {
            search_partial_from_json(body).map(ShardPartial::Search)
        }
    };
    partial.ok_or_else(|| format!("malformed {} partial", kind.name()))
}

/// Whether a request rejected with `code` can succeed verbatim later (or
/// on another worker or coordinator). Cluster failover re-queues shards
/// on retryable rejections and fails them on fatal ones, so the split
/// matters. Only the coordinator's front end sends `rate_limited` and
/// `quota_exceeded`.
#[must_use]
pub fn error_code_retryable(code: &str) -> bool {
    matches!(
        code,
        "queue_full" | "shutting_down" | "rate_limited" | "quota_exceeded"
    )
}

/// The uniform error reply: every rejection, whatever the verb, renders
/// as `{"ok":false,"status":"error","code":...,"retryable":...,"error":...}`.
#[must_use]
pub fn error_response(code: &str, message: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("status", Json::Str("error".to_string())),
        ("code", Json::Str(code.to_string())),
        ("retryable", Json::Bool(error_code_retryable(code))),
        ("error", Json::Str(message.to_string())),
    ])
}

/// Where a job stands. A dumpd job can take every state; a cluster job
/// is `running` until it is `done` or `failed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Being scanned.
    Running,
    /// Finished, with the result document rendered compact once.
    Done(Arc<str>),
    /// Ended with this error.
    Failed(String),
    /// Cancelled by a client.
    Cancelled,
    /// Ran past its wall-clock budget.
    TimedOut,
}

impl JobState {
    /// The state's name in `status`, `result` and `wait` replies.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
        }
    }

    /// Whether the job has ended.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// The `result` reply (and dumpd's `wait` reply) for job `id`:
/// `{"ok":true,"id":N,"state":S,"result":R}`, plus `error` for a failed
/// job. A done job's rendered document is spliced in, never re-rendered;
/// `result` is `null` in every other state.
#[must_use]
pub fn result_reply(id: u64, state: &JobState) -> Json {
    let result = match state {
        JobState::Done(rendered) => Json::Raw(Arc::clone(rendered)),
        _ => Json::Null,
    };
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Int(id as i64)),
        ("state", Json::Str(state.name().to_string())),
        ("result", result),
    ];
    if let JobState::Failed(why) = state {
        pairs.push(("error", Json::Str(why.clone())));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot_crypto::rng::SplitMix64;

    #[test]
    fn hex_roundtrips() {
        assert_eq!(hex_lower(&[]), "");
        assert_eq!(hex_lower(&[0x00, 0xAB, 0xFF, 0x1e]), "00abff1e");
        assert_eq!(hex_decode("00abff1e"), Some(vec![0x00, 0xAB, 0xFF, 0x1e]));
        assert_eq!(hex_decode("00ABFF1E"), Some(vec![0x00, 0xAB, 0xFF, 0x1e]));
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("zz"), None, "non-hex digit");
    }

    fn sample_hit(seed: u8) -> ScheduleHit {
        ScheduleHit {
            block_addr: 0x8000 + u64::from(seed) * 64,
            scrambler_key: core::array::from_fn(|i| (i as u8).wrapping_mul(3) ^ seed),
            key_size: if seed % 2 == 0 {
                KeySize::Aes256
            } else {
                KeySize::Aes128
            },
            window_offset: usize::from(seed % 17),
            start_word: usize::from(seed % 40),
            prediction_distance: u32::from(seed % 7),
        }
    }

    #[test]
    fn shard_partial_shapes_roundtrip() {
        let candidates = vec![
            CandidateKey {
                key: [0x5A; BLOCK_BYTES],
                observations: 12,
            },
            CandidateKey {
                key: [0x00; BLOCK_BYTES],
                observations: 1,
            },
        ];
        assert_eq!(
            candidates_from_json(&candidates_to_json(&candidates)).as_deref(),
            Some(&candidates[..])
        );

        let observations = vec![
            MinedObservation {
                value: [7; BLOCK_BYTES],
                count: 3,
                first_idx: 42,
            },
            MinedObservation {
                value: [9; BLOCK_BYTES],
                count: 1,
                first_idx: 0,
            },
        ];
        assert_eq!(
            observations_from_json(&observations_to_json(&observations)).as_deref(),
            Some(&observations[..])
        );

        let counts = vec![([1u8; BLOCK_BYTES], 5u32), ([2; BLOCK_BYTES], 1)];
        assert_eq!(
            counts_from_json(&counts_to_json(&counts)).as_deref(),
            Some(&counts[..])
        );

        let partial = SearchPartial {
            hits: vec![sample_hit(2), sample_hit(3)],
            recoveries: vec![
                RecoveredAesKey {
                    key_size: KeySize::Aes256,
                    master_key: (0..32u8).collect(),
                    schedule_addr: 0x9000,
                    total_error_bits: 17,
                    unexplained_blocks: 1,
                    cost_millinats: Some(123_456),
                    flips: Some(FlipCounts {
                        to_ground: 17,
                        anti_ground: 0,
                    }),
                    hit: sample_hit(2),
                },
                RecoveredAesKey {
                    key_size: KeySize::Aes128,
                    master_key: (0..16u8).collect(),
                    schedule_addr: 0xA000,
                    total_error_bits: 0,
                    unexplained_blocks: 0,
                    cost_millinats: None,
                    flips: None,
                    hit: sample_hit(3),
                },
            ],
            blocks_scanned: 4096,
        };
        let reply = shard_reply_to_json(&(0..64), &ShardPartial::Search(partial.clone()));
        let parsed = search_partial_from_json(&reply).expect("roundtrip parses");
        assert_eq!(parsed.hits, partial.hits);
        assert_eq!(parsed.recoveries, partial.recoveries);
        assert_eq!(parsed.blocks_scanned, partial.blocks_scanned);

        // Off-mode recoveries keep the historical wire shape: no channel
        // keys appear at all, so pre-reconstruction parsers still work.
        let off = recovery_to_json(&partial.recoveries[1]);
        assert!(off.get("cost_mnat").is_none());
        assert!(off.get("to_ground_bits").is_none());
        assert!(off.get("anti_ground_bits").is_none());
        let on = recovery_to_json(&partial.recoveries[0]);
        assert_eq!(on.get("cost_mnat").and_then(Json::as_i64), Some(123_456));
    }

    #[test]
    fn recovery_rejects_half_a_flip_report() {
        let rec = RecoveredAesKey {
            key_size: KeySize::Aes256,
            master_key: (0..32u8).collect(),
            schedule_addr: 0x9000,
            total_error_bits: 1,
            unexplained_blocks: 0,
            cost_millinats: Some(7),
            flips: Some(FlipCounts {
                to_ground: 1,
                anti_ground: 0,
            }),
            hit: sample_hit(2),
        };
        let Json::Obj(mut fields) = recovery_to_json(&rec) else {
            panic!("recovery renders an object")
        };
        fields.retain(|(k, _)| k != "anti_ground_bits");
        assert!(recovery_from_json(&Json::Obj(fields)).is_none());
    }

    #[test]
    fn parsers_reject_malformed_input() {
        assert!(candidates_from_json(&Json::Null).is_none());
        let short_key = Json::Arr(vec![Json::obj([
            ("key_hex", Json::Str("abcd".into())),
            ("observations", Json::Int(1)),
        ])]);
        assert!(
            candidates_from_json(&short_key).is_none(),
            "key must be 64 bytes"
        );
        let negative = Json::Arr(vec![Json::obj([
            ("key_hex", Json::Str(hex_lower(&[0u8; BLOCK_BYTES]))),
            ("count", Json::Int(-1)),
        ])]);
        assert!(counts_from_json(&negative).is_none());
        assert!(search_partial_from_json(&Json::obj([("hits", Json::Null)])).is_none());
    }

    /// A valid spec of `kind` with each optional field set or left out at
    /// random, and values drawn from what the parser accepts.
    fn random_spec(rng: &mut SplitMix64, kind: JobKind) -> JobSpec {
        let count = |rng: &mut SplitMix64| rng.gen_bool(0.5).then(|| rng.range(0..1 << 40));
        let start = rng.range(0..1 << 30);
        let shard = match kind {
            JobKind::Attack => None,
            JobKind::SearchShard => Some(start..start + rng.range(0..1 << 20)),
            JobKind::Mine | JobKind::Frequency => rng
                .gen_bool(0.5)
                .then(|| start..start + rng.range(0..1 << 20)),
        };
        let ground = matches!(kind, JobKind::Attack | JobKind::SearchShard) && rng.gen_bool(0.5);
        let candidates = (0..rng.range(0..4))
            .map(|_| CandidateKey {
                key: rng.bytes(),
                observations: rng.range(1..1000) as u32,
            })
            .collect();
        JobSpec {
            kind,
            dump: format!("/captures/{}.cbdf", rng.next_u64()),
            window_blocks: rng.range(1..1 << 20) as usize,
            timeout_secs: count(rng),
            threads: rng.range(1..64) as usize,
            deep: rng.gen_bool(0.5),
            max_bytes: count(rng),
            top_keys: rng.range(0..1 << 16) as usize,
            shard,
            candidates,
            ground: ground.then(|| format!("/captures/ground-{}.cbdf", rng.next_u64())),
            decay_fraction: (ground && rng.gen_bool(0.5)).then(|| rng.unit()),
            work_budget: if ground { count(rng) } else { None },
        }
    }

    #[test]
    fn specs_roundtrip_through_their_submit_lines() {
        let kinds = [
            JobKind::Attack,
            JobKind::Mine,
            JobKind::Frequency,
            JobKind::SearchShard,
        ];
        for case in 0..256u64 {
            let mut rng = SplitMix64::new(case);
            let spec = random_spec(&mut rng, kinds[(case % 4) as usize]);
            let line = spec.to_json().render_compact();
            match crate::json::parse(&line).map(|request| parse_spec(&request)) {
                Some(Ok(parsed)) => assert_eq!(parsed, spec, "case {case}: {line}"),
                other => panic!("case {case}: {line} was refused: {other:?}"),
            }
        }
    }
}
