//! Shard planning and deterministic result assembly.
//!
//! An [`Assembly`] owns one cluster job from plan to merged result. It
//! splits the job into contiguous block-range shards with
//! [`plan_shards`], emits the exact `submit` bodies the `dumpd` shard
//! protocol expects, and folds the workers' mergeable partials back
//! together with the scan engine's own merge primitives:
//!
//! * **mine** — shards return raw [`MinedObservation`] exports
//!   ([`coldboot_dumpio::wire::observations_from_json`]); the assembly
//!   absorbs them into one [`KeyMiner`] (absorption is commutative) and
//!   calls `finish` exactly once, so consolidation and ordering match a
//!   single-node pass bit for bit.
//! * **search** — shards return *pre-dedup* recovery lists in
//!   verification order ([`SearchPartial`]); the assembly stores them by
//!   shard index and replays the order-sensitive dedup with
//!   [`merge_search_partials`] over the partials in shard order.
//! * **frequency** — shards return `(value, count)` histograms; the
//!   assembly sums them and takes the top-N cut once.
//!
//! An attack job chains two phases (mine over the mining prefix, then
//! search over the whole image with the mined candidates); the phase
//! transition happens inside [`Assembly::accept`] when the last shard of
//! a phase lands, and the caller just dispatches whatever
//! [`Step::Dispatch`] hands back. Because every fold is either
//! commutative or replayed in shard order, the final JSON is
//! byte-identical to the single-node `dumpd` result at any shard count —
//! the cluster integration tests assert exactly that.
//!
//! This module is pure state-machine logic: no sockets, no threads, no
//! clocks. The [`crate::backend`] owns all of those.

use std::ops::Range;

use coldboot::attack::ddr3::FrequencyCounter;
use coldboot::attack::AttackConfig;
use coldboot::keysearch::{merge_search_partials, SearchPartial};
use coldboot::litmus::{CandidateKey, KeyMiner, MiningConfig};
use coldboot_dram::BLOCK_BYTES;
use coldboot_dumpio::json::Json;
use coldboot_dumpio::pipeline::plan_shards;
use coldboot_dumpio::wire;

/// What a cluster job computes — mirrors the `dumpd` job kinds that can
/// be sharded. (`search_shard` is an internal phase, not a client kind.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Full attack: mine the prefix, then search the whole image.
    Attack,
    /// Mining only.
    Mine,
    /// Block-frequency census.
    Frequency,
}

impl JobKind {
    /// Parses the client-facing kind string; `"search"` is an alias for
    /// `"attack"`, as in the `dumpd` protocol.
    #[must_use]
    pub fn parse(kind: &str) -> Option<Self> {
        match kind {
            "attack" | "search" => Some(Self::Attack),
            "mine" => Some(Self::Mine),
            "frequency" => Some(Self::Frequency),
            _ => None,
        }
    }
}

/// A cluster job description: what to scan, how to split it, and the
/// scan knobs forwarded to every shard.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The computation to run.
    pub kind: JobKind,
    /// Path of the CBDF dump **as the workers see it** (shared storage).
    pub dump: String,
    /// Number of shards to split each phase into (≥ 1; capped by the
    /// image's block count when the image is smaller).
    pub shards: usize,
    /// Streaming window forwarded to each shard; `0` keeps the worker's
    /// default.
    pub window_blocks: u64,
    /// Deep search profile for the attack's search phase.
    pub deep: bool,
    /// Top-N cut for the merged frequency census.
    pub top_keys: u64,
    /// Mining prefix override in bytes (attack and mine kinds).
    pub max_bytes: Option<u64>,
    /// Worker threads per shard scan (shards are the cluster's
    /// parallelism; per-shard threading stays conservative).
    pub threads: u64,
    /// Ground-state dump path **as the workers see it**; forwarded to
    /// every search shard to enable channel-model reconstruction.
    pub ground: Option<String>,
    /// Explicit decay-fraction override forwarded with `ground` (the
    /// workers otherwise derive the channel from the dump's metadata).
    pub decay_fraction: Option<f64>,
    /// Branch-and-bound work budget forwarded with `ground`.
    pub work_budget: Option<u64>,
}

impl JobSpec {
    /// A spec with the same defaults a bare `dumpd` submit gets.
    #[must_use]
    pub fn new(kind: JobKind, dump: impl Into<String>) -> Self {
        Self {
            kind,
            dump: dump.into(),
            shards: 1,
            window_blocks: 0,
            deep: false,
            top_keys: 48,
            max_bytes: None,
            threads: 1,
            ground: None,
            decay_fraction: None,
            work_budget: None,
        }
    }
}

/// One shard's worth of work: the block range and the ready-to-send
/// `submit` body for a worker.
#[derive(Debug, Clone)]
pub struct ShardRequest {
    /// The block range this request covers (identifies the shard when its
    /// result comes back through [`Assembly::accept`]).
    pub shard: Range<u64>,
    /// The complete `submit` request body, `verb` included.
    pub body: Json,
}

/// What the caller should do after feeding the assembly.
#[derive(Debug)]
pub enum Step {
    /// The current phase is still collecting shards.
    Wait,
    /// A new phase started: dispatch these shard requests.
    Dispatch(Vec<ShardRequest>),
    /// The job is complete; this is the merged result body.
    Done(Json),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Mine,
    Search,
    Frequency,
    Complete,
}

/// The per-job merge state machine. See the module docs for the protocol.
pub struct Assembly {
    spec: JobSpec,
    total_blocks: u64,
    /// Bytes the mining phase covers — matches the single-node
    /// `mined_bytes` report field exactly (prefix clamped to the image
    /// and rounded up to whole blocks).
    mined_bytes: u64,
    phase: Phase,
    shards: Vec<Range<u64>>,
    delivered: Vec<bool>,
    remaining: usize,
    miner: KeyMiner,
    freq: FrequencyCounter,
    search_parts: Vec<Option<SearchPartial>>,
    candidates: Vec<CandidateKey>,
    shards_done: u64,
    shards_planned: u64,
}

impl Assembly {
    /// Plans a job over an image of `total_bytes`. Call [`begin`] to get
    /// the first dispatch.
    ///
    /// [`begin`]: Self::begin
    #[must_use]
    pub fn new(spec: JobSpec, total_bytes: u64) -> Self {
        let total_blocks = total_bytes / BLOCK_BYTES as u64;
        let prefix = match spec.kind {
            JobKind::Attack => spec
                .max_bytes
                .unwrap_or(AttackConfig::default().mining_prefix_bytes as u64),
            JobKind::Mine => spec.max_bytes.unwrap_or(total_bytes),
            JobKind::Frequency => 0,
        };
        let mined_bytes = prefix
            .min(total_bytes)
            .next_multiple_of(BLOCK_BYTES as u64)
            .min(total_bytes);
        let mine_span = mined_bytes / BLOCK_BYTES as u64;
        let shards_planned = match spec.kind {
            JobKind::Attack => {
                (plan_shards(mine_span, spec.shards).len()
                    + plan_shards(total_blocks, spec.shards).len()) as u64
            }
            JobKind::Mine => plan_shards(mine_span, spec.shards).len() as u64,
            JobKind::Frequency => plan_shards(total_blocks, spec.shards).len() as u64,
        };
        Self {
            spec,
            total_blocks,
            mined_bytes,
            phase: Phase::Complete,
            shards: Vec::new(),
            delivered: Vec::new(),
            remaining: 0,
            miner: KeyMiner::new(&MiningConfig::default()),
            freq: FrequencyCounter::new(),
            search_parts: Vec::new(),
            candidates: Vec::new(),
            shards_done: 0,
            shards_planned,
        }
    }

    /// Starts the first phase. Returns [`Step::Dispatch`] with the shard
    /// requests, or cascades straight to [`Step::Done`] for an empty
    /// image.
    pub fn begin(&mut self) -> Step {
        self.phase = match self.spec.kind {
            JobKind::Attack | JobKind::Mine => Phase::Mine,
            JobKind::Frequency => Phase::Frequency,
        };
        let requests = self.plan_current();
        if self.remaining == 0 {
            return self.finish_phase();
        }
        Step::Dispatch(requests)
    }

    /// Absorbs one shard's result body. `shard` must be a range this
    /// assembly dispatched for the *current* phase; `body` is the
    /// worker's `result` payload.
    ///
    /// Errors are merge-protocol violations (unknown shard, duplicate
    /// delivery, wrong reply kind, malformed partial) and should fail the
    /// job — they mean a worker or the transport broke the contract, and
    /// a silently tolerated duplicate would double-count observations.
    pub fn accept(&mut self, shard: &Range<u64>, body: &Json) -> Result<Step, String> {
        if self.phase == Phase::Complete {
            return Err("job already complete".to_string());
        }
        let idx = self
            .shards
            .iter()
            .position(|s| s == shard)
            .ok_or_else(|| format!("unknown shard {}..{}", shard.start, shard.end))?;
        if self.delivered[idx] {
            return Err(format!(
                "duplicate delivery for shard {}..{}",
                shard.start, shard.end
            ));
        }
        let expected_kind = match self.phase {
            Phase::Mine => "mine_shard",
            Phase::Search => "search_shard",
            Phase::Frequency => "frequency_shard",
            Phase::Complete => "done",
        };
        let kind = body.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind != expected_kind {
            return Err(format!("expected {expected_kind} reply, got {kind:?}"));
        }
        let echo = |field: &str| body.get(field).and_then(Json::as_i64);
        if echo("shard_start") != Some(shard.start as i64)
            || echo("shard_end") != Some(shard.end as i64)
        {
            return Err("shard range echo mismatch".to_string());
        }
        match self.phase {
            Phase::Mine => {
                let observations = body
                    .get("observations")
                    .and_then(wire::observations_from_json)
                    .ok_or("malformed mine partial")?;
                self.miner.absorb_observations(observations);
            }
            Phase::Search => {
                let partial =
                    wire::search_partial_from_json(body).ok_or("malformed search partial")?;
                self.search_parts[idx] = Some(partial);
            }
            Phase::Frequency => {
                let counts = body
                    .get("counts")
                    .and_then(wire::counts_from_json)
                    .ok_or("malformed frequency partial")?;
                self.freq.absorb_counts(counts);
            }
            Phase::Complete => {}
        }
        self.delivered[idx] = true;
        self.remaining -= 1;
        self.shards_done += 1;
        if self.remaining == 0 {
            return Ok(self.finish_phase());
        }
        Ok(Step::Wait)
    }

    /// `(shards delivered, shards planned)` across all phases — the
    /// cluster's job-progress numerator and denominator.
    #[must_use]
    pub fn progress(&self) -> (u64, u64) {
        (self.shards_done, self.shards_planned)
    }

    /// The current phase, for job status display.
    #[must_use]
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Mine => "mine",
            Phase::Search => "search",
            Phase::Frequency => "frequency",
            Phase::Complete => "done",
        }
    }

    /// Plans the current phase and returns its shard requests.
    fn plan_current(&mut self) -> Vec<ShardRequest> {
        let span = match self.phase {
            Phase::Mine => self.mined_bytes / BLOCK_BYTES as u64,
            Phase::Search | Phase::Frequency => self.total_blocks,
            Phase::Complete => 0,
        };
        self.shards = plan_shards(span, self.spec.shards);
        self.delivered = vec![false; self.shards.len()];
        self.remaining = self.shards.len();
        self.search_parts = if self.phase == Phase::Search {
            (0..self.shards.len()).map(|_| None).collect()
        } else {
            Vec::new()
        };
        self.shards
            .iter()
            .map(|shard| ShardRequest {
                shard: shard.clone(),
                body: self.shard_body(shard),
            })
            .collect()
    }

    /// The worker `submit` body for one shard of the current phase.
    fn shard_body(&self, shard: &Range<u64>) -> Json {
        let kind = match self.phase {
            Phase::Mine => "mine",
            Phase::Search => "search_shard",
            Phase::Frequency => "frequency",
            Phase::Complete => "done",
        };
        let mut pairs = vec![
            ("verb".to_string(), Json::Str("submit".to_string())),
            ("kind".to_string(), Json::Str(kind.to_string())),
            ("dump".to_string(), Json::Str(self.spec.dump.clone())),
            ("shard_start".to_string(), Json::Int(shard.start as i64)),
            ("shard_end".to_string(), Json::Int(shard.end as i64)),
            ("threads".to_string(), Json::Int(self.spec.threads as i64)),
        ];
        if self.spec.window_blocks > 0 {
            pairs.push((
                "window_blocks".to_string(),
                Json::Int(self.spec.window_blocks as i64),
            ));
        }
        if self.phase == Phase::Search {
            pairs.push(("deep".to_string(), Json::Bool(self.spec.deep)));
            pairs.push((
                "candidates".to_string(),
                wire::candidates_to_json(&self.candidates),
            ));
            if let Some(ground) = &self.spec.ground {
                pairs.push(("ground".to_string(), Json::Str(ground.clone())));
                if let Some(d) = self.spec.decay_fraction {
                    pairs.push(("decay_fraction".to_string(), Json::Num(d)));
                }
                if let Some(budget) = self.spec.work_budget {
                    pairs.push(("work_budget".to_string(), Json::Int(budget as i64)));
                }
            }
        }
        Json::Obj(pairs)
    }

    /// Folds the just-completed phase and advances. Cascades through
    /// empty phases (zero-block images plan zero shards).
    fn finish_phase(&mut self) -> Step {
        match (self.spec.kind, self.phase) {
            (JobKind::Mine, Phase::Mine) => {
                let miner =
                    std::mem::replace(&mut self.miner, KeyMiner::new(&MiningConfig::default()));
                self.phase = Phase::Complete;
                Step::Done(keys_json("mine", &miner.finish()))
            }
            (JobKind::Attack, Phase::Mine) => {
                let miner =
                    std::mem::replace(&mut self.miner, KeyMiner::new(&MiningConfig::default()));
                self.candidates = miner.finish();
                self.phase = Phase::Search;
                let requests = self.plan_current();
                if self.remaining == 0 {
                    return self.finish_phase();
                }
                Step::Dispatch(requests)
            }
            (JobKind::Attack, Phase::Search) => {
                let parts = std::mem::take(&mut self.search_parts);
                let outcome = merge_search_partials(parts.into_iter().flatten());
                let recovered = outcome
                    .recovered
                    .iter()
                    .map(|r| {
                        // Must render exactly like dumpd's single-node
                        // attack rows — channel fields included — for the
                        // byte-identity contract.
                        let mut fields = vec![
                            ("key_bits", Json::Int((r.master_key.len() * 8) as i64)),
                            ("master_hex", Json::Str(wire::hex_lower(&r.master_key))),
                            ("schedule_addr", Json::Int(r.schedule_addr as i64)),
                            ("total_error_bits", Json::Int(i64::from(r.total_error_bits))),
                            (
                                "unexplained_blocks",
                                Json::Int(i64::from(r.unexplained_blocks)),
                            ),
                        ];
                        if let Some(cost) = r.cost_millinats {
                            fields.push((
                                "cost_mnat",
                                Json::Int(i64::try_from(cost).unwrap_or(i64::MAX)),
                            ));
                        }
                        if let Some(flips) = r.flips {
                            fields.push(("to_ground_bits", Json::Int(i64::from(flips.to_ground))));
                            fields.push((
                                "anti_ground_bits",
                                Json::Int(i64::from(flips.anti_ground)),
                            ));
                        }
                        Json::obj(fields)
                    })
                    .collect();
                self.phase = Phase::Complete;
                Step::Done(Json::obj([
                    ("kind", Json::Str("attack".to_string())),
                    ("mined_bytes", Json::Int(self.mined_bytes as i64)),
                    ("candidates", Json::Int(self.candidates.len() as i64)),
                    ("hits", Json::Int(outcome.hits.len() as i64)),
                    ("blocks_scanned", Json::Int(outcome.blocks_scanned as i64)),
                    ("recovered", Json::Arr(recovered)),
                ]))
            }
            (JobKind::Frequency, Phase::Frequency) => {
                let freq = std::mem::replace(&mut self.freq, FrequencyCounter::new());
                self.phase = Phase::Complete;
                Step::Done(keys_json(
                    "frequency",
                    &freq.finish(self.spec.top_keys as usize),
                ))
            }
            _ => {
                // Unreachable by construction (each kind only enters its
                // own phases); complete defensively rather than panic.
                self.phase = Phase::Complete;
                Step::Done(Json::Null)
            }
        }
    }
}

/// The single-node `mine`/`frequency` result shape — must stay rendered
/// identically to `dumpd`'s `candidates_json` for byte-identity.
fn keys_json(kind: &'static str, candidates: &[CandidateKey]) -> Json {
    let rows = candidates
        .iter()
        .map(|c| {
            Json::obj([
                ("key_hex", Json::Str(wire::hex_lower(&c.key))),
                ("observations", Json::Int(i64::from(c.observations))),
            ])
        })
        .collect();
    Json::obj([
        ("kind", Json::Str(kind.to_string())),
        ("keys", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot::keysearch::{KeySize, RecoveredAesKey, ScheduleHit};
    use coldboot::litmus::MinedObservation;

    const BLOCK: u64 = BLOCK_BYTES as u64;

    fn obs(seed: u8, count: u32, first_idx: usize) -> MinedObservation {
        MinedObservation {
            value: [seed; BLOCK_BYTES],
            count,
            first_idx,
        }
    }

    /// Renders a worker's `mine_shard` reply body.
    fn mine_reply(shard: &Range<u64>, observations: &[MinedObservation]) -> Json {
        Json::obj([
            ("kind", Json::Str("mine_shard".to_string())),
            ("shard_start", Json::Int(shard.start as i64)),
            ("shard_end", Json::Int(shard.end as i64)),
            ("observations", wire::observations_to_json(observations)),
        ])
    }

    fn freq_reply(shard: &Range<u64>, counts: &[([u8; BLOCK_BYTES], u32)]) -> Json {
        Json::obj([
            ("kind", Json::Str("frequency_shard".to_string())),
            ("shard_start", Json::Int(shard.start as i64)),
            ("shard_end", Json::Int(shard.end as i64)),
            ("counts", wire::counts_to_json(counts)),
        ])
    }

    fn search_reply(shard: &Range<u64>, partial: &SearchPartial) -> Json {
        let mut pairs = vec![
            ("kind".to_string(), Json::Str("search_shard".to_string())),
            ("shard_start".to_string(), Json::Int(shard.start as i64)),
            ("shard_end".to_string(), Json::Int(shard.end as i64)),
        ];
        if let Json::Obj(partial_pairs) = wire::search_partial_to_json(partial) {
            pairs.extend(partial_pairs);
        }
        Json::Obj(pairs)
    }

    fn recovery(seed: u8, schedule_addr: u64) -> RecoveredAesKey {
        RecoveredAesKey {
            key_size: KeySize::Aes256,
            master_key: (0..32u8).map(|i| i.wrapping_add(seed)).collect(),
            schedule_addr,
            total_error_bits: u32::from(seed),
            unexplained_blocks: 0,
            cost_millinats: None,
            flips: None,
            hit: ScheduleHit {
                block_addr: schedule_addr,
                scrambler_key: [seed; BLOCK_BYTES],
                key_size: KeySize::Aes256,
                window_offset: 0,
                start_word: 0,
                prediction_distance: 1,
            },
        }
    }

    #[test]
    fn mine_merge_matches_a_single_miner() {
        let sets = [
            vec![obs(1, 5, 10), obs(2, 1, 3)],
            vec![obs(1, 2, 4), obs(3, 9, 90)],
        ];
        let spec = JobSpec::new(JobKind::Mine, "/d.cbdf");
        let mut assembly = Assembly::new(JobSpec { shards: 2, ..spec }, 4 * BLOCK);
        let Step::Dispatch(requests) = assembly.begin() else {
            panic!("expected dispatch");
        };
        assert_eq!(requests.len(), 2);
        assert_eq!(
            requests[0].body.get("kind").and_then(Json::as_str),
            Some("mine")
        );
        assert_eq!(
            requests[0].body.get("verb").and_then(Json::as_str),
            Some("submit")
        );

        // Deliver out of order: absorption is commutative.
        let mut done = None;
        for (req, set) in requests.iter().zip(&sets).rev() {
            match assembly.accept(&req.shard, &mine_reply(&req.shard, set)) {
                Ok(Step::Done(result)) => done = Some(result),
                Ok(_) => {}
                Err(e) => panic!("accept failed: {e}"),
            }
        }
        let merged = done.expect("last shard completes the job");

        let mut reference = KeyMiner::new(&MiningConfig::default());
        reference.absorb_observations(sets.iter().flatten().cloned());
        assert_eq!(merged, keys_json("mine", &reference.finish()));
        assert_eq!(assembly.progress(), (2, 2));
        assert_eq!(assembly.phase_name(), "done");
    }

    #[test]
    fn frequency_merge_sums_counts_and_cuts_once() {
        let mut spec = JobSpec::new(JobKind::Frequency, "/d.cbdf");
        spec.shards = 2;
        spec.top_keys = 1;
        let mut assembly = Assembly::new(spec, 4 * BLOCK);
        let Step::Dispatch(requests) = assembly.begin() else {
            panic!("expected dispatch");
        };
        let a = [([7u8; BLOCK_BYTES], 2u32), ([9; BLOCK_BYTES], 1)];
        let b = [([7u8; BLOCK_BYTES], 3u32)];
        assert!(matches!(
            assembly.accept(&requests[0].shard, &freq_reply(&requests[0].shard, &a)),
            Ok(Step::Wait)
        ));
        let Ok(Step::Done(merged)) =
            assembly.accept(&requests[1].shard, &freq_reply(&requests[1].shard, &b))
        else {
            panic!("expected done");
        };
        let mut reference = FrequencyCounter::new();
        reference.absorb_counts(a.iter().chain(&b).copied());
        assert_eq!(merged, keys_json("frequency", &reference.finish(1)));
    }

    #[test]
    fn attack_phases_chain_and_replay_the_dedup() {
        let mut spec = JobSpec::new(JobKind::Attack, "/d.cbdf");
        spec.shards = 2;
        spec.deep = true;
        // 8-block image, 2-block mining prefix.
        spec.max_bytes = Some(2 * BLOCK);
        let mut assembly = Assembly::new(spec, 8 * BLOCK);

        let Step::Dispatch(mine_reqs) = assembly.begin() else {
            panic!("expected mine dispatch");
        };
        assert_eq!(mine_reqs.len(), 2, "mining prefix of 2 blocks, 2 shards");
        assert_eq!(mine_reqs[0].shard, 0..1);
        assert_eq!(mine_reqs[1].shard, 1..2);

        // A key observed 3 times survives mining and becomes a candidate.
        let observations = vec![obs(0xAA, 3, 0)];
        assert!(matches!(
            assembly.accept(
                &mine_reqs[0].shard,
                &mine_reply(&mine_reqs[0].shard, &observations)
            ),
            Ok(Step::Wait)
        ));
        let Ok(Step::Dispatch(search_reqs)) =
            assembly.accept(&mine_reqs[1].shard, &mine_reply(&mine_reqs[1].shard, &[]))
        else {
            panic!("expected search dispatch");
        };
        assert_eq!(search_reqs.len(), 2, "search covers the whole image");
        assert_eq!(search_reqs[0].shard, 0..4);
        assert_eq!(search_reqs[1].shard, 4..8);
        let body = &search_reqs[0].body;
        assert_eq!(
            body.get("kind").and_then(Json::as_str),
            Some("search_shard")
        );
        assert_eq!(body.get("deep").and_then(Json::as_bool), Some(true));
        let forwarded = body
            .get("candidates")
            .and_then(wire::candidates_from_json)
            .expect("candidates forwarded to the search phase");
        assert_eq!(forwarded.len(), 1);
        assert_eq!(forwarded[0].key, [0xAA; BLOCK_BYTES]);

        // Both shards see the same recovery (context overlap); the merged
        // result must dedup it exactly as a single-node pass would.
        let rec = recovery(1, 4 * BLOCK);
        let parts = [
            SearchPartial {
                hits: vec![rec.hit.clone()],
                recoveries: vec![rec.clone()],
                blocks_scanned: 4,
            },
            SearchPartial {
                hits: vec![],
                recoveries: vec![rec.clone()],
                blocks_scanned: 4,
            },
        ];
        assert!(matches!(
            assembly.accept(
                &search_reqs[0].shard,
                &search_reply(&search_reqs[0].shard, &parts[0])
            ),
            Ok(Step::Wait)
        ));
        let Ok(Step::Done(merged)) = assembly.accept(
            &search_reqs[1].shard,
            &search_reply(&search_reqs[1].shard, &parts[1]),
        ) else {
            panic!("expected done");
        };

        let reference = merge_search_partials(parts.iter().cloned());
        assert_eq!(merged.get("kind").and_then(Json::as_str), Some("attack"));
        assert_eq!(
            merged.get("mined_bytes").and_then(Json::as_i64),
            Some(2 * BLOCK as i64)
        );
        assert_eq!(merged.get("candidates").and_then(Json::as_i64), Some(1));
        assert_eq!(
            merged.get("hits").and_then(Json::as_i64),
            Some(reference.hits.len() as i64)
        );
        assert_eq!(merged.get("blocks_scanned").and_then(Json::as_i64), Some(8));
        let recovered = merged
            .get("recovered")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(recovered.len(), reference.recovered.len());
        assert_eq!(recovered.len(), 1, "overlap dedups to one recovery");
        let row = &recovered[0];
        assert_eq!(row.get("key_bits").and_then(Json::as_i64), Some(256));
        assert_eq!(
            row.get("master_hex").and_then(Json::as_str),
            Some(wire::hex_lower(&rec.master_key).as_str())
        );
        assert!(row.get("hit").is_none(), "attack rows omit the raw hit");
        assert_eq!(assembly.progress(), (4, 4));
    }

    #[test]
    fn reconstruction_knobs_forward_to_search_shards_only() {
        use coldboot::reconstruct::FlipCounts;
        let mut spec = JobSpec::new(JobKind::Attack, "/d.cbdf");
        spec.shards = 1;
        spec.max_bytes = Some(BLOCK);
        spec.ground = Some("/g.cbdf".to_string());
        spec.decay_fraction = Some(0.19);
        spec.work_budget = Some(512);
        let mut assembly = Assembly::new(spec, 4 * BLOCK);
        let Step::Dispatch(mine_reqs) = assembly.begin() else {
            panic!("expected mine dispatch");
        };
        // Mining shards never carry the reconstruction knobs (dumpd
        // rejects them for non-search kinds).
        assert!(mine_reqs[0].body.get("ground").is_none());
        let Ok(Step::Dispatch(search_reqs)) = assembly.accept(
            &mine_reqs[0].shard,
            &mine_reply(&mine_reqs[0].shard, &[obs(0xAA, 3, 0)]),
        ) else {
            panic!("expected search dispatch");
        };
        let body = &search_reqs[0].body;
        assert_eq!(body.get("ground").and_then(Json::as_str), Some("/g.cbdf"));
        assert_eq!(
            body.get("decay_fraction").and_then(Json::as_f64),
            Some(0.19)
        );
        assert_eq!(body.get("work_budget").and_then(Json::as_i64), Some(512));

        // A channel-mode recovery renders its extra fields in the merged
        // attack result, exactly as the single-node row would.
        let mut rec = recovery(1, 2 * BLOCK);
        rec.cost_millinats = Some(4242);
        rec.flips = Some(FlipCounts {
            to_ground: 17,
            anti_ground: 0,
        });
        let partial = SearchPartial {
            hits: vec![rec.hit.clone()],
            recoveries: vec![rec],
            blocks_scanned: 4,
        };
        let Ok(Step::Done(merged)) = assembly.accept(
            &search_reqs[0].shard,
            &search_reply(&search_reqs[0].shard, &partial),
        ) else {
            panic!("expected done");
        };
        let recovered = merged
            .get("recovered")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(
            recovered[0].get("cost_mnat").and_then(Json::as_i64),
            Some(4242)
        );
        assert_eq!(
            recovered[0].get("to_ground_bits").and_then(Json::as_i64),
            Some(17)
        );
        assert_eq!(
            recovered[0].get("anti_ground_bits").and_then(Json::as_i64),
            Some(0)
        );
    }

    #[test]
    fn empty_image_cascades_to_done() {
        let mut assembly = Assembly::new(JobSpec::new(JobKind::Attack, "/d.cbdf"), 0);
        let Step::Done(result) = assembly.begin() else {
            panic!("empty image completes immediately");
        };
        assert_eq!(result.get("kind").and_then(Json::as_str), Some("attack"));
        assert_eq!(result.get("mined_bytes").and_then(Json::as_i64), Some(0));
        assert_eq!(result.get("blocks_scanned").and_then(Json::as_i64), Some(0));
        assert_eq!(assembly.progress(), (0, 0));
    }

    #[test]
    fn protocol_violations_are_rejected() {
        let mut spec = JobSpec::new(JobKind::Mine, "/d.cbdf");
        spec.shards = 2;
        let mut assembly = Assembly::new(spec, 4 * BLOCK);
        let Step::Dispatch(requests) = assembly.begin() else {
            panic!("expected dispatch");
        };
        let shard = requests[0].shard.clone();

        // Unknown shard range.
        assert!(assembly
            .accept(&(9..12), &mine_reply(&(9..12), &[]))
            .is_err());
        // Wrong reply kind for the phase.
        let wrong = freq_reply(&shard, &[]);
        assert!(assembly.accept(&shard, &wrong).is_err());
        // Echoed range disagreeing with the delivered shard.
        let other = requests[1].shard.clone();
        assert!(assembly.accept(&shard, &mine_reply(&other, &[])).is_err());
        // Valid delivery, then a duplicate.
        assert!(matches!(
            assembly.accept(&shard, &mine_reply(&shard, &[])),
            Ok(Step::Wait)
        ));
        let err = assembly
            .accept(&shard, &mine_reply(&shard, &[]))
            .expect_err("duplicates double-count");
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn mined_bytes_matches_the_single_node_formula() {
        let mut spec = JobSpec::new(JobKind::Attack, "/d.cbdf");
        spec.max_bytes = Some(100);
        let assembly = Assembly::new(spec.clone(), 10 * BLOCK);
        // 100 bytes rounds up to two whole blocks.
        assert_eq!(assembly.mined_bytes, 128);
        spec.max_bytes = Some(10_000);
        let assembly = Assembly::new(spec.clone(), 10 * BLOCK);
        assert_eq!(assembly.mined_bytes, 640, "prefix clamps to the image");
        spec.max_bytes = Some(0);
        let assembly = Assembly::new(spec, 10 * BLOCK);
        assert_eq!(assembly.mined_bytes, 0);
    }
}
