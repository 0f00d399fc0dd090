//! The job protocol's documents: every JSON shape `coldboot-dumpd` and
//! the `coldboot-cluster` coordinator exchange is written and read here,
//! so the two services cannot drift.
//!
//! * The `submit` spec: [`parse_spec`] reads a submit line into a
//!   [`JobSpec`] (dumpd for every job, the coordinator for its clients'
//!   jobs) and [`JobSpec::to_json`] renders one back (the coordinator's
//!   shard submits). `crate::service` lists the fields.
//! * Finished results: the `mine`/`frequency` key list
//!   ([`keys_to_json`]) and the `attack` result ([`attack_result_line`]).
//! * Shard replies, the *mergeable* partials a worker returns for one
//!   block range ([`ShardPartial`]): mining observation maps, frequency
//!   histograms, and search hits with *pre-dedup* recoveries, framed with
//!   their `kind` and the `shard_start`/`shard_end` echo.
//! * Reply envelopes: the uniform error ([`error_response`]) and the
//!   `result`/`wait` reply ([`result_reply`]) with its job [`JobState`].
//!
//! Two kinds of document travel differently. Control documents (submits,
//! key lists, errors, `status`, `stats`, the reply envelopes) are small
//! and go through [`Json`] trees. Shard replies carry thousands of rows
//! (a `frequency_shard` over a 1 MiB capture is ~380 KB), so they never
//! become trees: dumpd writes each one straight into its line
//! ([`shard_reply_line`]), and the coordinator decodes the `wait` reply
//! that carries it in one pass, envelope and partial together, with the
//! pull [`crate::json::Reader`] ([`read_result_reply`]). The `attack`
//! result shares the recovery row with search partials, so it is written
//! the same way. Each row shape has one writer and one reader here.
//!
//! Every value the scan engine needs to replay its deterministic merge is
//! carried at full fidelity — keys as lowercase hex, addresses and counts
//! as integers — which is what makes the cluster result byte-identical to
//! a single-node pass.
//!
//! Readers are total: any structural mismatch yields `None` or an error,
//! never a panic, because the bytes come from the network. The line
//! readers accept what [`crate::json::parse`] accepts, in any field order,
//! skip unknown fields, and take the first of duplicate keys, as
//! [`Json::get`] does.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use coldboot::attack::AttackReport;
use coldboot::keysearch::{KeySize, RecoveredAesKey, ScheduleHit, SearchPartial};
use coldboot::litmus::{CandidateKey, MinedObservation};
use coldboot::reconstruct::FlipCounts;
use coldboot_dram::BLOCK_BYTES;

use crate::json::{Json, ObjectWriter, Reader, Scalar};
use crate::pipeline::DEFAULT_WINDOW_BLOCKS;

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends the lowercase hex digits of `bytes`.
fn push_hex(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0x0F)]));
    }
}

/// Lowercase hex of `bytes` (the line protocol's only binary encoding).
pub fn hex_lower(bytes: &[u8]) -> String {
    let mut out = String::new();
    push_hex(&mut out, bytes);
    out
}

fn hex_nibble(digit: u8) -> Option<u8> {
    match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        b'A'..=b'F' => Some(digit - b'A' + 10),
        _ => None,
    }
}

fn hex_byte(pair: &[u8]) -> Option<u8> {
    match pair {
        [hi, lo] => Some((hex_nibble(*hi)? << 4) | hex_nibble(*lo)?),
        _ => None,
    }
}

/// Decodes lowercase/uppercase hex; `None` on odd length or non-hex input.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    s.as_bytes().chunks_exact(2).map(hex_byte).collect()
}

fn block_from_hex(s: &str) -> Option<[u8; BLOCK_BYTES]> {
    let digits = s.as_bytes();
    if digits.len() != 2 * BLOCK_BYTES {
        return None;
    }
    let mut block = [0u8; BLOCK_BYTES];
    for (byte, pair) in block.iter_mut().zip(digits.chunks_exact(2)) {
        *byte = hex_byte(pair)?;
    }
    Some(block)
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

// Shard rows. Each shape has one writer, which writes the row compact into
// a line, and one reader, which decodes it from a `Reader`. A reader
// returns `None` for malformed JSON (the whole line is then unreadable)
// and `Some(None)` for well-formed JSON that is not a row of its shape.

/// A hex field: `"name":"<lowercase hex>"`.
fn hex_field(row: &mut ObjectWriter<'_>, name: &str, bytes: &[u8]) {
    let out = row.field(name);
    out.push('"');
    push_hex(out, bytes);
    out.push('"');
}

/// Reads an object's fields named in `names`, each at its first
/// occurrence as `Json::get` finds it, and skips the rest. A slot stays
/// `None` for a field the object lacks, and all do for a value that is
/// not an object.
fn read_fields<'a, const N: usize>(
    r: &mut Reader<'a>,
    names: [&str; N],
) -> Option<[Option<Scalar<'a>>; N]> {
    let mut slots = std::array::from_fn(|_| None);
    r.object(|r, name| {
        match names.iter().position(|n| *n == name) {
            Some(i) if slots[i].is_none() => slots[i] = Some(r.scalar()?),
            _ => r.skip()?,
        }
        Some(())
    })?;
    Some(slots)
}

/// A present non-negative integer of type `T`, as `get_u64` and a
/// `try_from` read it from a tree.
fn uint<T: TryFrom<u64>>(value: Option<Scalar<'_>>) -> Option<T> {
    T::try_from(u64::try_from(value?.int()?).ok()?).ok()
}

/// A present 64-byte block as lowercase or uppercase hex.
fn block(value: Option<Scalar<'_>>) -> Option<[u8; BLOCK_BYTES]> {
    block_from_hex(&value?.string()?)
}

/// A mining shard's observation row:
/// `{"key_hex":...,"count":N,"first_idx":N}`.
fn write_observation(out: &mut String, observation: &MinedObservation) {
    let mut row = ObjectWriter::new(out);
    hex_field(&mut row, "key_hex", &observation.value);
    row.int("count", i64::from(observation.count));
    row.int("first_idx", observation.first_idx as i64);
    row.end();
}

fn read_observation(r: &mut Reader<'_>) -> Option<Option<MinedObservation>> {
    let [value, count, first_idx] = read_fields(r, ["key_hex", "count", "first_idx"])?;
    let (Some(value), Some(count), Some(first_idx)) = (block(value), uint(count), uint(first_idx))
    else {
        return Some(None);
    };
    Some(Some(MinedObservation {
        value,
        count,
        first_idx,
    }))
}

/// A frequency shard's histogram row: `{"key_hex":...,"count":N}`.
fn write_count(out: &mut String, (value, count): &([u8; BLOCK_BYTES], u32)) {
    let mut row = ObjectWriter::new(out);
    hex_field(&mut row, "key_hex", value);
    row.int("count", i64::from(*count));
    row.end();
}

fn read_count(r: &mut Reader<'_>) -> Option<Option<([u8; BLOCK_BYTES], u32)>> {
    let [value, count] = read_fields(r, ["key_hex", "count"])?;
    Some(block(value).zip(uint(count)))
}

/// A search shard's single-block hit row.
fn write_hit(out: &mut String, hit: &ScheduleHit) {
    let mut row = ObjectWriter::new(out);
    row.int("block_addr", hit.block_addr as i64);
    hex_field(&mut row, "scrambler_key_hex", &hit.scrambler_key);
    row.int("key_bits", key_size_bits(hit.key_size));
    row.int("window_offset", hit.window_offset as i64);
    row.int("start_word", hit.start_word as i64);
    row.int("prediction_distance", i64::from(hit.prediction_distance));
    row.end();
}

fn read_hit(r: &mut Reader<'_>) -> Option<Option<ScheduleHit>> {
    let [addr, key, bits, offset, start, distance] = read_fields(
        r,
        [
            "block_addr",
            "scrambler_key_hex",
            "key_bits",
            "window_offset",
            "start_word",
            "prediction_distance",
        ],
    )?;
    let (Some(block_addr), Some(scrambler_key), Some(key_size)) = (
        uint(addr),
        block(key),
        uint(bits).and_then(key_size_from_bits),
    ) else {
        return Some(None);
    };
    let (Some(window_offset), Some(start_word), Some(prediction_distance)) =
        (uint(offset), uint(start), uint(distance))
    else {
        return Some(None);
    };
    Some(Some(ScheduleHit {
        block_addr,
        scrambler_key,
        key_size,
        window_offset,
        start_word,
        prediction_distance,
    }))
}

/// A recovered key's row: what the `attack` result lists, and, with the
/// raw `hit` after it, what a search partial carries.
fn write_recovery(out: &mut String, rec: &RecoveredAesKey, with_hit: bool) {
    let mut row = ObjectWriter::new(out);
    row.int("key_bits", (rec.master_key.len() * 8) as i64);
    hex_field(&mut row, "master_hex", &rec.master_key);
    row.int("schedule_addr", rec.schedule_addr as i64);
    row.int("total_error_bits", i64::from(rec.total_error_bits));
    row.int("unexplained_blocks", i64::from(rec.unexplained_blocks));
    // Channel-reconstruction fields travel only when the job ran with
    // reconstruction on: their absence is what keeps the off-mode shapes
    // byte-identical to the historical protocol.
    if let Some(cost) = rec.cost_millinats {
        row.int("cost_mnat", i64::try_from(cost).unwrap_or(i64::MAX));
    }
    if let Some(flips) = rec.flips {
        row.int("to_ground_bits", i64::from(flips.to_ground));
        row.int("anti_ground_bits", i64::from(flips.anti_ground));
    }
    if with_hit {
        write_hit(row.field("hit"), &rec.hit);
    }
    row.end();
}

/// Reads a search partial's recovery row (the one with its `hit`).
fn read_recovery(r: &mut Reader<'_>) -> Option<Option<RecoveredAesKey>> {
    let [master, addr, total, unexplained, cost, to_ground, anti_ground, hit] = read_fields(
        r,
        [
            "master_hex",
            "schedule_addr",
            "total_error_bits",
            "unexplained_blocks",
            "cost_mnat",
            "to_ground_bits",
            "anti_ground_bits",
            "hit",
        ],
    )?;
    let flips = match (to_ground.is_some(), anti_ground.is_some()) {
        (false, false) => None,
        // Half a flip report is a corrupt frame, not an off-mode one.
        (true, true) => match (uint(to_ground), uint(anti_ground)) {
            (Some(to_ground), Some(anti_ground)) => Some(FlipCounts {
                to_ground,
                anti_ground,
            }),
            _ => return Some(None),
        },
        _ => return Some(None),
    };
    // Absent is off-mode; present must be a count.
    let cost_millinats = match cost {
        None => None,
        cost => match uint(cost) {
            Some(cost) => Some(cost),
            None => return Some(None),
        },
    };
    // The hit was read through whole; it is a few hundred bytes.
    let hit = match hit {
        Some(Scalar::Nested(text)) => read_hit(&mut Reader::new(text)).flatten(),
        _ => None,
    };
    let master_key = master.and_then(Scalar::string).and_then(|s| hex_decode(&s));
    let (Some(master_key), Some(schedule_addr), Some(hit)) = (master_key, uint(addr), hit) else {
        return Some(None);
    };
    let (Ok(key_size), Some(total_error_bits), Some(unexplained_blocks)) = (
        KeySize::from_key_len(master_key.len()),
        uint(total),
        uint(unexplained),
    ) else {
        return Some(None);
    };
    Some(Some(RecoveredAesKey {
        key_size,
        master_key,
        schedule_addr,
        total_error_bits,
        unexplained_blocks,
        cost_millinats,
        flips,
        hit,
    }))
}

/// Reads an array of `row`s; `Some(None)` when the value is not an array
/// or any element is not a row of its shape.
fn read_rows<'a, T>(
    r: &mut Reader<'a>,
    mut row: impl FnMut(&mut Reader<'a>) -> Option<Option<T>>,
) -> Option<Option<Vec<T>>> {
    let mut rows = Some(Vec::new());
    let is_array = r.array(|r| {
        match row(r)? {
            Some(item) => {
                if let Some(rows) = rows.as_mut() {
                    rows.push(item);
                }
            }
            // Keep reading: the rest of the line must still be JSON.
            None => rows = None,
        }
        Some(())
    })?;
    Some(rows.filter(|_| is_array))
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

/// Reads an optional field of a request with `read`: absent and `null`
/// are `None`, and a value `read` refuses is a `bad_request` reply saying
/// the field `must be` `what`.
fn opt_field<'a, T>(
    request: &'a Json,
    name: &str,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, Json> {
    match request.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v).map(Some).ok_or_else(|| {
            let mut message = String::from(name);
            message.push_str(" must be ");
            message.push_str(what);
            error_response("bad_request", &message)
        }),
    }
}

/// Reads an optional non-negative integer field of a request; any other
/// value is a `bad_request` reply.
///
/// # Errors
///
/// The error reply naming the field.
pub fn opt_u64(request: &Json, name: &str) -> Result<Option<u64>, Json> {
    opt_field(request, name, "a non-negative integer", |v| {
        v.as_i64().and_then(|i| u64::try_from(i).ok())
    })
}

/// Reads a `submit` request into a [`JobSpec`]. An optional field that is
/// absent or `null` takes its default; one of the wrong type is refused.
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
    let ground = opt_field(request, "ground", "a path", Json::as_str)?.map(String::from);
    let decay_fraction = opt_field(request, "decay_fraction", "a number in [0, 1]", |v| {
        v.as_f64()
            .filter(|d| d.is_finite() && (0.0..=1.0).contains(d))
    })?;
    let work_budget = opt_u64(request, "work_budget")?;
    if ground.is_none() && (decay_fraction.is_some() || work_budget.is_some()) {
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
        deep: opt_field(request, "deep", "true or false", Json::as_bool)?.unwrap_or(false),
        max_bytes: opt_u64(request, "max_bytes")?,
        top_keys: opt_u64(request, "top_keys")?.map_or(48, |n| n as usize),
        shard,
        candidates,
        ground,
        decay_fraction,
        work_budget,
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

/// The finished `attack` result, written compact: its counts, then one
/// row per recovered key (a search partial's recovery row without the raw
/// `hit`).
#[must_use]
pub fn attack_result_line(report: &AttackReport) -> String {
    let outcome = &report.outcome;
    let mut line = String::new();
    let mut doc = ObjectWriter::new(&mut line);
    doc.str("kind", JobKind::Attack.name());
    doc.int("mined_bytes", report.mined_bytes as i64);
    doc.int("candidates", report.candidates.len() as i64);
    doc.int("hits", outcome.hits.len() as i64);
    doc.int("blocks_scanned", outcome.blocks_scanned as i64);
    doc.array("recovered", &outcome.recovered, |out, rec| {
        write_recovery(out, rec, false);
    });
    doc.end();
    line
}

/// A shard job's mergeable partial: what a worker returns for one block
/// range, and the coordinator absorbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPartial {
    /// A `mine` shard's raw observation map.
    Mine(Vec<MinedObservation>),
    /// A `frequency` shard's histogram.
    Frequency(Vec<([u8; BLOCK_BYTES], u32)>),
    /// A `search_shard`'s hits, pre-dedup recoveries and scan count.
    Search(SearchPartial),
}

impl ShardPartial {
    /// The kind of shard job that returns this partial.
    #[must_use]
    pub fn kind(&self) -> JobKind {
        match self {
            ShardPartial::Mine(_) => JobKind::Mine,
            ShardPartial::Frequency(_) => JobKind::Frequency,
            ShardPartial::Search(_) => JobKind::SearchShard,
        }
    }
}

/// The `kind` a `kind` shard job's reply names itself by; `None` for
/// [`JobKind::Attack`], which does not shard.
fn reply_kind(kind: JobKind) -> Option<&'static str> {
    match kind {
        JobKind::Mine => Some("mine_shard"),
        JobKind::Frequency => Some("frequency_shard"),
        JobKind::SearchShard => Some("search_shard"),
        JobKind::Attack => None,
    }
}

/// Writes a shard's partial as the worker's result, compact: its `kind`
/// (`mine_shard`, `frequency_shard` or `search_shard`), the
/// `shard_start`/`shard_end` echo, then the partial's rows.
#[must_use]
pub fn shard_reply_line(shard: &Range<u64>, partial: &ShardPartial) -> String {
    let mut line = String::new();
    let mut reply = ObjectWriter::new(&mut line);
    reply.str("kind", reply_kind(partial.kind()).unwrap_or_default());
    reply.int("shard_start", shard.start as i64);
    reply.int("shard_end", shard.end as i64);
    match partial {
        ShardPartial::Mine(observations) => {
            reply.array("observations", observations, write_observation);
        }
        ShardPartial::Frequency(counts) => reply.array("counts", counts, write_count),
        ShardPartial::Search(partial) => {
            reply.array("hits", &partial.hits, write_hit);
            reply.array("recoveries", &partial.recoveries, |out, rec| {
                write_recovery(out, rec, true);
            });
            reply.int("blocks_scanned", partial.blocks_scanned as i64);
        }
    }
    reply.end();
    line
}

/// A worker's `result` or `wait` reply to a shard job, as
/// [`read_result_reply`] reads it. Each envelope field is what the tree
/// accessor (`get` then `as_bool`/`as_str`) would give: `None` when it is
/// absent or of another type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultReply<'a> {
    /// `ok`.
    pub ok: Option<bool>,
    /// The job's `state`.
    pub state: Option<Cow<'a, str>>,
    /// An error reply's `code`.
    pub code: Option<Cow<'a, str>>,
    /// An error reply's `retryable`.
    pub retryable: Option<bool>,
    /// An error reply's or failed job's `error`.
    pub error: Option<Cow<'a, str>>,
    /// `None` when `result` is absent or `null`; otherwise the shard's
    /// partial, or why the result is not the expected one: another
    /// reply kind, a range echo other than the shard's, or a malformed
    /// partial.
    pub result: Option<Result<ShardPartial, String>>,
}

/// Reads a worker's `result`/`wait` reply line to a `kind` shard job over
/// `shard`, in one pass: the envelope's fields and, as it streams by, the
/// partial, checked against the expected kind and range echo. `None` when
/// the line is not one JSON document ([`crate::json::parse`] would
/// refuse it).
#[must_use]
pub fn read_result_reply<'a>(
    line: &'a str,
    kind: JobKind,
    shard: &Range<u64>,
) -> Option<ResultReply<'a>> {
    let mut r = Reader::new(line);
    let (mut ok, mut state, mut code, mut retryable, mut error, mut result) =
        (None, None, None, None, None, None);
    r.object(|r, name| {
        match &*name {
            "ok" if ok.is_none() => ok = Some(r.scalar()?.boolean()),
            "state" if state.is_none() => state = Some(r.scalar()?.string()),
            "code" if code.is_none() => code = Some(r.scalar()?.string()),
            "retryable" if retryable.is_none() => retryable = Some(r.scalar()?.boolean()),
            "error" if error.is_none() => error = Some(r.scalar()?.string()),
            "result" if result.is_none() => {
                result = Some(if r.null()? {
                    None
                } else {
                    Some(read_shard_result(r, kind, shard)?)
                });
            }
            _ => r.skip()?,
        }
        Some(())
    })?;
    r.finish()?;
    Some(ResultReply {
        ok: ok.flatten(),
        state: state.flatten(),
        code: code.flatten(),
        retryable: retryable.flatten(),
        error: error.flatten(),
        result: result.flatten(),
    })
}

/// Reads a non-null `result`: `None` only for malformed JSON. The checks
/// run in a fixed order whatever the field order: the reply's `kind`,
/// then its range echo, then its partial.
fn read_shard_result(
    r: &mut Reader<'_>,
    kind: JobKind,
    shard: &Range<u64>,
) -> Option<Result<ShardPartial, String>> {
    let Some(expected) = reply_kind(kind) else {
        r.skip()?;
        return Some(Err("attack jobs do not shard".to_string()));
    };
    let (mut got, mut start, mut end) = (None, None, None);
    let (mut observations, mut counts) = (None, None);
    let (mut hits, mut recoveries, mut scanned) = (None, None, None);
    r.object(|r, name| {
        match (&*name, kind) {
            ("kind", _) if got.is_none() => got = Some(r.scalar()?.string()),
            ("shard_start", _) if start.is_none() => start = Some(r.scalar()?.int()),
            ("shard_end", _) if end.is_none() => end = Some(r.scalar()?.int()),
            ("observations", JobKind::Mine) if observations.is_none() => {
                observations = Some(read_rows(r, read_observation)?);
            }
            ("counts", JobKind::Frequency) if counts.is_none() => {
                counts = Some(read_rows(r, read_count)?);
            }
            ("hits", JobKind::SearchShard) if hits.is_none() => {
                hits = Some(read_rows(r, read_hit)?);
            }
            ("recoveries", JobKind::SearchShard) if recoveries.is_none() => {
                recoveries = Some(read_rows(r, read_recovery)?);
            }
            ("blocks_scanned", JobKind::SearchShard) if scanned.is_none() => {
                scanned = Some(uint(Some(r.scalar()?)));
            }
            _ => r.skip()?,
        }
        Some(())
    })?;
    let got = got.flatten();
    let got = got.as_deref().unwrap_or("");
    if got != expected {
        return Some(Err(format!("expected {expected} reply, got {got:?}")));
    }
    if start.flatten() != Some(shard.start as i64) || end.flatten() != Some(shard.end as i64) {
        return Some(Err("shard range echo mismatch".to_string()));
    }
    let partial = match kind {
        JobKind::Mine => observations.flatten().map(ShardPartial::Mine),
        JobKind::Frequency => counts.flatten().map(ShardPartial::Frequency),
        JobKind::SearchShard | JobKind::Attack => {
            match (hits.flatten(), recoveries.flatten(), scanned.flatten()) {
                (Some(hits), Some(recoveries), Some(blocks_scanned)) => {
                    Some(ShardPartial::Search(SearchPartial {
                        hits,
                        recoveries,
                        blocks_scanned,
                    }))
                }
                _ => None,
            }
        }
    };
    Some(partial.ok_or_else(|| format!("malformed {} partial", kind.name())))
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
    use crate::json;
    use coldboot::keysearch::SearchOutcome;
    use coldboot_crypto::rng::SplitMix64;

    /// The tree readers the shard rows had before they were decoded in
    /// one pass, kept as the reference the line reader must agree with.
    mod tree {
        use super::super::*;

        fn observations(value: &Json) -> Option<Vec<MinedObservation>> {
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

        fn counts(value: &Json) -> Option<Vec<([u8; BLOCK_BYTES], u32)>> {
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

        fn hit(value: &Json) -> Option<ScheduleHit> {
            Some(ScheduleHit {
                block_addr: get_u64(value, "block_addr")?,
                scrambler_key: block_from_hex(get_str(value, "scrambler_key_hex")?)?,
                key_size: key_size_from_bits(get_u64(value, "key_bits")?)?,
                window_offset: usize::try_from(get_u64(value, "window_offset")?).ok()?,
                start_word: usize::try_from(get_u64(value, "start_word")?).ok()?,
                prediction_distance: u32::try_from(get_u64(value, "prediction_distance")?).ok()?,
            })
        }

        fn recovery(value: &Json) -> Option<RecoveredAesKey> {
            let master_key = hex_decode(get_str(value, "master_hex")?)?;
            let flips = match (value.get("to_ground_bits"), value.get("anti_ground_bits")) {
                (Some(_), Some(_)) => Some(FlipCounts {
                    to_ground: u32::try_from(get_u64(value, "to_ground_bits")?).ok()?,
                    anti_ground: u32::try_from(get_u64(value, "anti_ground_bits")?).ok()?,
                }),
                (None, None) => None,
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
                hit: hit(value.get("hit")?)?,
            })
        }

        fn search_partial(value: &Json) -> Option<SearchPartial> {
            let Json::Arr(hit_rows) = value.get("hits")? else {
                return None;
            };
            let Json::Arr(rec_rows) = value.get("recoveries")? else {
                return None;
            };
            Some(SearchPartial {
                hits: hit_rows.iter().map(hit).collect::<Option<_>>()?,
                recoveries: rec_rows.iter().map(recovery).collect::<Option<_>>()?,
                blocks_scanned: usize::try_from(get_u64(value, "blocks_scanned")?).ok()?,
            })
        }

        fn shard_reply(
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
                    .and_then(observations)
                    .map(ShardPartial::Mine),
                JobKind::Frequency => body
                    .get("counts")
                    .and_then(counts)
                    .map(ShardPartial::Frequency),
                JobKind::SearchShard | JobKind::Attack => {
                    search_partial(body).map(ShardPartial::Search)
                }
            };
            partial.ok_or_else(|| format!("malformed {} partial", kind.name()))
        }

        /// What the coordinator read from a `wait` reply line before:
        /// `json::parse`, then the envelope's fields through `Json::get`
        /// and the first non-null `result` through the tree readers.
        pub fn result_reply(
            line: &str,
            kind: JobKind,
            shard: &Range<u64>,
        ) -> Option<ResultReply<'static>> {
            let reply = crate::json::parse(line)?;
            let text = |name| {
                reply
                    .get(name)
                    .and_then(Json::as_str)
                    .map(|s| Cow::Owned(s.to_string()))
            };
            let flag = |name| reply.get(name).and_then(Json::as_bool);
            Some(ResultReply {
                ok: flag("ok"),
                state: text("state"),
                code: text("code"),
                retryable: flag("retryable"),
                error: text("error"),
                result: match reply.get("result") {
                    None | Some(Json::Null) => None,
                    Some(body) => Some(shard_reply(body, kind, shard)),
                },
            })
        }
    }

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

    /// One channel-mode recovery (cost and flips) and one off-mode one.
    fn sample_recoveries() -> Vec<RecoveredAesKey> {
        vec![
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
        ]
    }

    /// The worker's `wait` reply for a done shard job with this result.
    fn done_line(result: String) -> String {
        result_reply(7, &JobState::Done(result.into())).render_compact()
    }

    /// Writes `partial` for `shard` into a done `wait` reply and reads it
    /// back as the coordinator does.
    fn roundtrip(shard: &Range<u64>, partial: &ShardPartial) -> Result<ShardPartial, String> {
        let line = done_line(shard_reply_line(shard, partial));
        let reply = read_result_reply(&line, partial.kind(), shard).expect("well-formed line");
        assert_eq!(reply.ok, Some(true));
        assert_eq!(reply.state.as_deref(), Some("done"));
        reply.result.expect("a result body")
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

        let observations = ShardPartial::Mine(vec![
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
        ]);
        assert_eq!(roundtrip(&(0..64), &observations), Ok(observations));

        let counts =
            ShardPartial::Frequency(vec![([1u8; BLOCK_BYTES], 5u32), ([2; BLOCK_BYTES], 1)]);
        assert_eq!(roundtrip(&(0..64), &counts), Ok(counts));

        let partial = ShardPartial::Search(SearchPartial {
            hits: vec![sample_hit(2), sample_hit(3)],
            recoveries: sample_recoveries(),
            blocks_scanned: 4096,
        });
        assert_eq!(roundtrip(&(0..64), &partial), Ok(partial.clone()));

        // Off-mode recoveries keep the historical wire shape: no channel
        // keys appear at all, so pre-reconstruction parsers still work.
        let line = shard_reply_line(&(0..64), &partial);
        let tree = json::parse(&line).expect("the line is JSON");
        let rows = tree.get("recoveries").and_then(Json::as_arr).expect("rows");
        let off = &rows[1];
        assert!(off.get("cost_mnat").is_none());
        assert!(off.get("to_ground_bits").is_none());
        assert!(off.get("anti_ground_bits").is_none());
        assert_eq!(
            rows[0].get("cost_mnat").and_then(Json::as_i64),
            Some(123_456)
        );
    }

    /// Each line writer gives the parent tree writers' exact bytes.
    #[test]
    fn written_lines_match_the_tree_renderings_byte_for_byte() {
        let a = "0a".repeat(BLOCK_BYTES);
        let mine = ShardPartial::Mine(vec![
            MinedObservation {
                value: [0x0A; BLOCK_BYTES],
                count: 3,
                first_idx: 42,
            },
            MinedObservation {
                value: [0xFF; BLOCK_BYTES],
                count: u32::MAX,
                first_idx: 0,
            },
        ]);
        let ff = "ff".repeat(BLOCK_BYTES);
        assert_eq!(
            shard_reply_line(&(8..16), &mine),
            format!(
                r#"{{"kind":"mine_shard","shard_start":8,"shard_end":16,"observations":[{{"key_hex":"{a}","count":3,"first_idx":42}},{{"key_hex":"{ff}","count":4294967295,"first_idx":0}}]}}"#
            )
        );
        let frequency = ShardPartial::Frequency(vec![([0x0A; BLOCK_BYTES], 5)]);
        assert_eq!(
            shard_reply_line(&(0..0), &frequency),
            format!(
                r#"{{"kind":"frequency_shard","shard_start":0,"shard_end":0,"counts":[{{"key_hex":"{a}","count":5}}]}}"#
            )
        );
        assert_eq!(
            shard_reply_line(&(3..4), &ShardPartial::Frequency(Vec::new())),
            r#"{"kind":"frequency_shard","shard_start":3,"shard_end":4,"counts":[]}"#
        );
        let search = ShardPartial::Search(SearchPartial {
            hits: vec![sample_hit(2)],
            recoveries: sample_recoveries(),
            blocks_scanned: 4096,
        });
        let key2 = hex_lower(&sample_hit(2).scrambler_key);
        let key3 = hex_lower(&sample_hit(3).scrambler_key);
        let hit2 = format!(
            r#"{{"block_addr":32896,"scrambler_key_hex":"{key2}","key_bits":256,"window_offset":2,"start_word":2,"prediction_distance":2}}"#
        );
        let hit3 = format!(
            r#"{{"block_addr":32960,"scrambler_key_hex":"{key3}","key_bits":128,"window_offset":3,"start_word":3,"prediction_distance":3}}"#
        );
        let m256 = hex_lower(&(0..32u8).collect::<Vec<_>>());
        let m128 = hex_lower(&(0..16u8).collect::<Vec<_>>());
        let row_on = format!(
            r#"{{"key_bits":256,"master_hex":"{m256}","schedule_addr":36864,"total_error_bits":17,"unexplained_blocks":1,"cost_mnat":123456,"to_ground_bits":17,"anti_ground_bits":0"#
        );
        let row_off = format!(
            r#"{{"key_bits":128,"master_hex":"{m128}","schedule_addr":40960,"total_error_bits":0,"unexplained_blocks":0"#
        );
        assert_eq!(
            shard_reply_line(&(0..64), &search),
            format!(
                r#"{{"kind":"search_shard","shard_start":0,"shard_end":64,"hits":[{hit2}],"recoveries":[{row_on},"hit":{hit2}}},{row_off},"hit":{hit3}}}],"blocks_scanned":4096}}"#
            )
        );
        let report = AttackReport {
            candidates: vec![
                CandidateKey {
                    key: [0; BLOCK_BYTES],
                    observations: 1,
                };
                3
            ],
            outcome: SearchOutcome {
                hits: vec![sample_hit(2); 5],
                recovered: sample_recoveries(),
                blocks_scanned: 4096,
            },
            mined_bytes: 640,
        };
        assert_eq!(
            attack_result_line(&report),
            format!(
                r#"{{"kind":"attack","mined_bytes":640,"candidates":3,"hits":5,"blocks_scanned":4096,"recovered":[{row_on}}},{row_off}}}]}}"#
            )
        );
    }

    #[test]
    fn recovery_rejects_half_a_flip_report() {
        let partial = ShardPartial::Search(SearchPartial {
            hits: Vec::new(),
            recoveries: sample_recoveries()[..1].to_vec(),
            blocks_scanned: 1,
        });
        let line = done_line(shard_reply_line(&(0..1), &partial));
        let half = line.replace(r#","anti_ground_bits":0"#, "");
        assert_ne!(half, line);
        let reply = read_result_reply(&half, JobKind::SearchShard, &(0..1)).expect("JSON");
        assert_eq!(
            reply.result,
            Some(Err("malformed search_shard partial".to_string()))
        );
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
        let zero = hex_lower(&[0u8; BLOCK_BYTES]);
        let negative = format!(
            r#"{{"ok":true,"state":"done","result":{{"kind":"frequency_shard","shard_start":0,"shard_end":1,"counts":[{{"key_hex":"{zero}","count":-1}}]}}}}"#
        );
        let reply = read_result_reply(&negative, JobKind::Frequency, &(0..1)).expect("JSON");
        assert!(matches!(reply.result, Some(Err(_))));
        let no_hits = r#"{"ok":true,"state":"done","result":{"kind":"search_shard","shard_start":0,"shard_end":1,"hits":null}}"#;
        let reply = read_result_reply(no_hits, JobKind::SearchShard, &(0..1)).expect("JSON");
        assert!(matches!(reply.result, Some(Err(_))));
    }

    fn random_partial(rng: &mut SplitMix64, kind: JobKind) -> ShardPartial {
        let rows = rng.range(0..4);
        match kind {
            JobKind::Mine => ShardPartial::Mine(
                (0..rows)
                    .map(|_| MinedObservation {
                        value: rng.bytes(),
                        count: rng.range(1..1 << 32) as u32,
                        first_idx: rng.range(0..1 << 40) as usize,
                    })
                    .collect(),
            ),
            JobKind::Frequency => ShardPartial::Frequency(
                (0..rows)
                    .map(|_| (rng.bytes(), rng.range(1..1 << 32) as u32))
                    .collect(),
            ),
            JobKind::SearchShard | JobKind::Attack => ShardPartial::Search(SearchPartial {
                hits: (0..rows)
                    .map(|_| sample_hit(rng.next_u64() as u8))
                    .collect(),
                recoveries: (0..rng.range(0..3))
                    .map(|_| {
                        let mut rec = sample_recoveries()[rng.range(0..2) as usize].clone();
                        rec.schedule_addr = rng.range(0..1 << 40);
                        rec.hit = sample_hit(rng.next_u64() as u8);
                        rec
                    })
                    .collect(),
                blocks_scanned: rng.range(0..1 << 30) as usize,
            }),
        }
    }

    /// A value of any type, for replacing or adding a field.
    fn random_value(rng: &mut SplitMix64) -> Json {
        let hex = hex_lower(&rng.bytes::<BLOCK_BYTES>());
        match rng.range(0..14) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Int(-1),
            3 => Json::Int(i64::from(u32::MAX) + 1),
            4 => Json::Int(i64::MAX),
            5 => Json::Int(rng.range(0..64) as i64),
            6 => Json::Num(1.5),
            7 => Json::Str(hex[1..].to_string()), // odd length
            8 => Json::Str(hex.replacen(|c: char| c.is_ascii_hexdigit(), "g", 1)),
            9 => Json::Str(hex.to_uppercase()),
            10 => Json::Str(hex),
            11 => Json::Arr(vec![Json::Int(1), Json::Obj(Vec::new())]),
            12 => Json::Str("mine_shard\n\"\\\u{e9}".to_string()),
            _ => Json::Obj(vec![("kind".to_string(), Json::Null)]),
        }
    }

    /// Shuffles fields, adds unknown and duplicate keys, and replaces
    /// values, at any depth.
    fn mutate_tree(rng: &mut SplitMix64, value: &mut Json) {
        match value {
            Json::Obj(pairs) => {
                for pair in pairs.iter_mut() {
                    mutate_tree(rng, &mut pair.1);
                }
                if rng.gen_bool(0.2) && !pairs.is_empty() {
                    let at = rng.range(0..pairs.len() as u64) as usize;
                    let name = pairs[at].0.clone();
                    let dup = (name, random_value(rng));
                    let to = rng.range(0..pairs.len() as u64 + 1) as usize;
                    pairs.insert(to, dup);
                }
                if rng.gen_bool(0.1) {
                    let to = rng.range(0..pairs.len() as u64 + 1) as usize;
                    pairs.insert(to, ("extra".to_string(), random_value(rng)));
                }
                if rng.gen_bool(0.2) {
                    for i in (1..pairs.len()).rev() {
                        pairs.swap(i, rng.range(0..i as u64 + 1) as usize);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(|item| mutate_tree(rng, item)),
            _ if rng.gen_bool(0.03) => *value = random_value(rng),
            _ => {}
        }
    }

    /// Whitespace anywhere JSON allows it.
    fn spread_whitespace(rng: &mut SplitMix64, line: &str) -> String {
        let mut out = String::new();
        let mut in_string = false;
        let mut escaped = false;
        for c in line.chars() {
            out.push(c);
            if in_string {
                (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
            } else if c == '"' {
                in_string = true;
            } else if matches!(c, ',' | ':' | '[' | '{') && rng.gen_bool(0.3) {
                out.push_str([" ", "\n", "\t ", "\r\n"][rng.range(0..4) as usize]);
            }
        }
        out
    }

    fn check_same(line: &str, kind: JobKind, shard: &Range<u64>, what: &str) {
        let reference = tree::result_reply(line, kind, shard);
        assert_eq!(
            read_result_reply(line, kind, shard),
            reference,
            "{what}: {line}"
        );
    }

    /// Hostile `wait` replies: the one-pass reader never panics and reads
    /// every line exactly as `json::parse` plus the tree readers do.
    #[test]
    fn hostile_replies_read_as_the_tree_reference_reads_them() {
        let kinds = [JobKind::Mine, JobKind::Frequency, JobKind::SearchShard];
        // Every prefix of a small reply of each kind.
        for kind in kinds {
            let mut rng = SplitMix64::new(kind as u64);
            let line = done_line(shard_reply_line(&(0..9), &random_partial(&mut rng, kind)));
            for end in 0..line.len() {
                check_same(&line[..end], kind, &(0..9), "prefix");
            }
        }
        for case in 0..3000u64 {
            let mut rng = SplitMix64::new(case);
            let kind = kinds[(case % 3) as usize];
            let shard = rng.range(0..1 << 20)..rng.range(1 << 20..1 << 21);
            let partial = random_partial(&mut rng, kind);
            let mut line = match rng.range(0..8) {
                0 => format!(r#"{{"ok":true,"id":1,"state":"running","result":null}}"#),
                1 => error_response("queue_full", "queue full").render_compact(),
                _ => done_line(shard_reply_line(&shard, &partial)),
            };
            if rng.gen_bool(0.5) {
                let mut tree = json::parse(&line).expect("written lines are JSON");
                mutate_tree(&mut rng, &mut tree);
                line = tree.render_compact();
            }
            if rng.gen_bool(0.3) {
                line = spread_whitespace(&mut rng, &line);
            }
            // Integers past i64 (a JSON number `parse` reads as a float).
            if rng.gen_bool(0.1) {
                line = line.replacen(":1", ":18446744073709551616", 1);
            }
            // Nesting around the depth limit, inside an unknown field.
            if rng.gen_bool(0.05) {
                let depth = rng.range(58..70) as usize;
                let nest = "[".repeat(depth) + &"]".repeat(depth);
                line = line.replacen("{", &format!(r#"{{"extra":{nest},"#), 1 + case as usize % 3);
            }
            for _ in 0..rng.range(0..3) {
                let mut bytes = line.clone().into_bytes();
                if bytes.is_empty() {
                    break;
                }
                let at = rng.range(0..bytes.len() as u64) as usize;
                // Flip only ASCII bytes, and keep them ASCII: a reply line
                // is UTF-8 before it is JSON.
                if bytes[at].is_ascii() {
                    bytes[at] ^= 1 << rng.range(0..7);
                }
                line = String::from_utf8(bytes).expect("ASCII flips keep UTF-8");
            }
            // The expected shard or kind is sometimes not the line's own.
            let expect_kind = if rng.gen_bool(0.05) {
                kinds[rng.range(0..3) as usize]
            } else {
                kind
            };
            let expect_shard = if rng.gen_bool(0.05) {
                shard.start..shard.end + 1
            } else {
                shard
            };
            check_same(&line, expect_kind, &expect_shard, &format!("case {case}"));
        }
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
