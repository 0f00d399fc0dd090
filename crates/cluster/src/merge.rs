//! Shard planning and deterministic result assembly.
//!
//! An [`Assembly`] owns one cluster job from plan to merged result. It
//! splits the job into contiguous block-range shards with
//! [`plan_shards`], renders each shard's `submit` from the client's
//! [`JobSpec`] ([`JobSpec::to_json`]), and folds the workers' mergeable
//! partials back together with the scan engine's own merge primitives.
//! A partial arrives already typed ([`ShardPartial`]): the runner decoded
//! it from the worker's reply line ([`wire::read_result_reply`], which
//! checks the reply's kind and range echo) before taking the scheduler
//! lock, so [`Assembly::accept`] only checks the shard and absorbs:
//!
//! * **mine** — shards return raw [`MinedObservation`] exports; the
//!   assembly absorbs them into one [`KeyMiner`] (absorption is
//!   commutative) and calls `finish` exactly once, so consolidation and
//!   ordering match a single-node pass bit for bit.
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
//! commutative or replayed in shard order, and the finished result is
//! written by the same [`wire`] functions `dumpd` uses, the final line
//! is byte-identical to the single-node `dumpd` result at any shard count
//! — the cluster integration tests assert exactly that.
//!
//! This module is pure state-machine logic: no sockets, no threads, no
//! clocks. The [`crate::backend`] owns all of those.
//!
//! [`MinedObservation`]: coldboot::litmus::MinedObservation

use std::ops::Range;

use coldboot::attack::ddr3::FrequencyCounter;
use coldboot::attack::{mining_limit, AttackConfig, AttackReport};
use coldboot::keysearch::{merge_search_partials, SearchPartial};
use coldboot::litmus::{CandidateKey, KeyMiner, MiningConfig};
use coldboot_dram::BLOCK_BYTES;
use coldboot_dumpio::json::Json;
use coldboot_dumpio::pipeline::plan_shards;
use coldboot_dumpio::wire::{self, JobKind, JobSpec, ShardPartial};

/// One shard's worth of work: the block range and the ready-to-send
/// `submit` body for a worker.
#[derive(Debug, Clone)]
pub struct ShardRequest {
    /// The block range this request covers (identifies the shard when its
    /// result comes back through [`Assembly::accept`]).
    pub shard: Range<u64>,
    /// The shard job's kind, which its reply must name.
    pub kind: JobKind,
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
    /// The job is complete; this is the merged result, rendered compact.
    Done(String),
}

/// The per-job merge state machine. See the module docs for the protocol.
pub struct Assembly {
    spec: JobSpec,
    /// Shards per phase (capped by the phase's block count).
    shard_count: usize,
    total_blocks: u64,
    /// Bytes the mining phase covers — matches the single-node
    /// `mined_bytes` report field exactly.
    mined_bytes: u64,
    /// The kind of the current phase's shard jobs (`Mine`, `SearchShard`
    /// or `Frequency`); `None` before [`Assembly::begin`] and once the
    /// job is complete.
    phase: Option<JobKind>,
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
    /// Plans the client's job `spec` over an image of `total_bytes`, each
    /// phase split into `shards` shards. Call [`begin`] to get the first
    /// dispatch. A `search_shard` spec is a worker phase, not a cluster
    /// job: it plans no shard and completes with a `null` result.
    ///
    /// [`begin`]: Self::begin
    #[must_use]
    pub fn new(spec: JobSpec, shards: usize, total_bytes: u64) -> Self {
        let total_blocks = total_bytes / BLOCK_BYTES as u64;
        let prefix = match spec.kind {
            JobKind::Attack => spec
                .max_bytes
                .unwrap_or(AttackConfig::default().mining_prefix_bytes as u64),
            JobKind::Mine => spec.max_bytes.unwrap_or(total_bytes),
            JobKind::Frequency | JobKind::SearchShard => 0,
        };
        let mined_bytes = mining_limit(prefix, total_bytes);
        let mine_span = mined_bytes / BLOCK_BYTES as u64;
        let shards_planned = match spec.kind {
            JobKind::Attack => {
                (plan_shards(mine_span, shards).len() + plan_shards(total_blocks, shards).len())
                    as u64
            }
            JobKind::Mine => plan_shards(mine_span, shards).len() as u64,
            JobKind::Frequency => plan_shards(total_blocks, shards).len() as u64,
            JobKind::SearchShard => 0,
        };
        Self {
            spec,
            shard_count: shards,
            total_blocks,
            mined_bytes,
            phase: None,
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
            JobKind::Attack | JobKind::Mine => Some(JobKind::Mine),
            JobKind::Frequency => Some(JobKind::Frequency),
            JobKind::SearchShard => None,
        };
        let requests = self.plan_current();
        if self.remaining == 0 {
            return self.finish_phase();
        }
        Step::Dispatch(requests)
    }

    /// Absorbs one shard's partial. `shard` must be a range this assembly
    /// dispatched for the *current* phase, and `partial` of that phase's
    /// kind.
    ///
    /// Errors are merge-protocol violations (unknown shard, duplicate
    /// delivery, a partial of another kind) and should fail the job — they
    /// mean a worker or the transport broke the contract, and a silently
    /// tolerated duplicate would double-count observations.
    pub fn accept(&mut self, shard: &Range<u64>, partial: ShardPartial) -> Result<Step, String> {
        let Some(kind) = self.phase else {
            return Err("job already complete".to_string());
        };
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
        if partial.kind() != kind {
            return Err(format!(
                "a partial of another kind in the {} phase",
                kind.name()
            ));
        }
        match partial {
            ShardPartial::Mine(observations) => self.miner.absorb_observations(observations),
            ShardPartial::Frequency(counts) => self.freq.absorb_counts(counts),
            ShardPartial::Search(partial) => self.search_parts[idx] = Some(partial),
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
            Some(JobKind::Mine) => "mine",
            Some(JobKind::SearchShard) => "search",
            Some(JobKind::Frequency) => "frequency",
            Some(JobKind::Attack) | None => "done",
        }
    }

    /// Plans the current phase and returns its shard requests.
    fn plan_current(&mut self) -> Vec<ShardRequest> {
        let Some(kind) = self.phase else {
            self.remaining = 0;
            return Vec::new();
        };
        let span = match kind {
            JobKind::Mine => self.mined_bytes / BLOCK_BYTES as u64,
            _ => self.total_blocks,
        };
        self.shards = plan_shards(span, self.shard_count);
        self.delivered = vec![false; self.shards.len()];
        self.remaining = self.shards.len();
        self.search_parts = if kind == JobKind::SearchShard {
            (0..self.shards.len()).map(|_| None).collect()
        } else {
            Vec::new()
        };
        self.shards
            .iter()
            .map(|shard| ShardRequest {
                shard: shard.clone(),
                kind,
                body: self.shard_spec(kind, shard).to_json(),
            })
            .collect()
    }

    /// The worker's spec for one shard of a `kind` phase, built from the
    /// client's: the dump, window, threads and top-N cut go to every
    /// shard; `deep`, the mined candidates and the ground knobs only to
    /// search shards; `max_bytes` and `timeout_secs` to none.
    fn shard_spec(&self, kind: JobKind, shard: &Range<u64>) -> JobSpec {
        let search = kind == JobKind::SearchShard;
        let spec = &self.spec;
        JobSpec {
            kind,
            dump: spec.dump.clone(),
            window_blocks: spec.window_blocks,
            timeout_secs: None,
            threads: spec.threads,
            deep: search && spec.deep,
            max_bytes: None,
            top_keys: spec.top_keys,
            shard: Some(shard.clone()),
            candidates: if search {
                self.candidates.clone()
            } else {
                Vec::new()
            },
            ground: spec.ground.clone().filter(|_| search),
            decay_fraction: spec.decay_fraction.filter(|_| search),
            work_budget: spec.work_budget.filter(|_| search),
        }
    }

    /// Folds the just-completed phase and advances. Cascades through
    /// empty phases (zero-block images plan zero shards).
    fn finish_phase(&mut self) -> Step {
        match (self.spec.kind, self.phase.take()) {
            (JobKind::Mine, Some(JobKind::Mine)) => {
                let miner =
                    std::mem::replace(&mut self.miner, KeyMiner::new(&MiningConfig::default()));
                Step::Done(wire::keys_to_json(JobKind::Mine, &miner.finish()).render_compact())
            }
            (JobKind::Attack, Some(JobKind::Mine)) => {
                let miner =
                    std::mem::replace(&mut self.miner, KeyMiner::new(&MiningConfig::default()));
                self.candidates = miner.finish();
                self.phase = Some(JobKind::SearchShard);
                let requests = self.plan_current();
                if self.remaining == 0 {
                    return self.finish_phase();
                }
                Step::Dispatch(requests)
            }
            (JobKind::Attack, Some(JobKind::SearchShard)) => {
                let parts = std::mem::take(&mut self.search_parts);
                Step::Done(wire::attack_result_line(&AttackReport {
                    candidates: std::mem::take(&mut self.candidates),
                    outcome: merge_search_partials(parts.into_iter().flatten()),
                    mined_bytes: self.mined_bytes as usize,
                }))
            }
            (JobKind::Frequency, Some(JobKind::Frequency)) => {
                let freq = std::mem::replace(&mut self.freq, FrequencyCounter::new());
                Step::Done(
                    wire::keys_to_json(JobKind::Frequency, &freq.finish(self.spec.top_keys))
                        .render_compact(),
                )
            }
            // Unreachable by construction (each kind only enters its own
            // phases, and a `search_shard` spec none); complete
            // defensively rather than panic.
            _ => Step::Done(Json::Null.render_compact()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldboot::keysearch::{KeySize, RecoveredAesKey, ScheduleHit};
    use coldboot::litmus::MinedObservation;
    use coldboot_dumpio::json;
    use coldboot_dumpio::wire::{result_reply, JobState};

    const BLOCK: u64 = BLOCK_BYTES as u64;

    fn obs(seed: u8, count: u32, first_idx: usize) -> MinedObservation {
        MinedObservation {
            value: [seed; BLOCK_BYTES],
            count,
            first_idx,
        }
    }

    /// A client's bare submit of `kind` over `/d.cbdf`, as clusterd reads it.
    fn spec(kind: JobKind) -> JobSpec {
        let line = format!(
            r#"{{"verb":"submit","kind":"{}","dump":"/d.cbdf"}}"#,
            kind.name()
        );
        wire::parse_spec(&json::parse(&line).expect("valid json")).expect("valid submit")
    }

    /// A worker's `mine_shard` result line.
    fn mine_reply(shard: &Range<u64>, observations: &[MinedObservation]) -> String {
        wire::shard_reply_line(shard, &ShardPartial::Mine(observations.to_vec()))
    }

    fn freq_reply(shard: &Range<u64>, counts: &[([u8; BLOCK_BYTES], u32)]) -> String {
        wire::shard_reply_line(shard, &ShardPartial::Frequency(counts.to_vec()))
    }

    fn search_reply(shard: &Range<u64>, partial: &SearchPartial) -> String {
        wire::shard_reply_line(shard, &ShardPartial::Search(partial.clone()))
    }

    /// Delivers a worker's result for a `kind` shard as a runner does: read
    /// from the `wait` reply line against the shard's kind and range, then
    /// accepted.
    fn deliver(
        assembly: &mut Assembly,
        kind: JobKind,
        shard: &Range<u64>,
        result: String,
    ) -> Result<Step, String> {
        let line = result_reply(1, &JobState::Done(result.into())).render_compact();
        let reply = wire::read_result_reply(&line, kind, shard).expect("a JSON line");
        assembly.accept(shard, reply.result.expect("a result body")?)
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
        let mut assembly = Assembly::new(spec(JobKind::Mine), 2, 4 * BLOCK);
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
            match deliver(
                &mut assembly,
                req.kind,
                &req.shard,
                mine_reply(&req.shard, set),
            ) {
                Ok(Step::Done(result)) => done = Some(result),
                Ok(_) => {}
                Err(e) => panic!("accept failed: {e}"),
            }
        }
        let merged = done.expect("last shard completes the job");

        let mut reference = KeyMiner::new(&MiningConfig::default());
        reference.absorb_observations(sets.iter().flatten().cloned());
        assert_eq!(
            merged,
            wire::keys_to_json(JobKind::Mine, &reference.finish()).render_compact()
        );
        assert_eq!(assembly.progress(), (2, 2));
        assert_eq!(assembly.phase_name(), "done");
    }

    #[test]
    fn frequency_merge_sums_counts_and_cuts_once() {
        let mut spec = spec(JobKind::Frequency);
        spec.top_keys = 1;
        let mut assembly = Assembly::new(spec, 2, 4 * BLOCK);
        let Step::Dispatch(requests) = assembly.begin() else {
            panic!("expected dispatch");
        };
        let a = [([7u8; BLOCK_BYTES], 2u32), ([9; BLOCK_BYTES], 1)];
        let b = [([7u8; BLOCK_BYTES], 3u32)];
        let kind = JobKind::Frequency;
        assert!(matches!(
            deliver(
                &mut assembly,
                kind,
                &requests[0].shard,
                freq_reply(&requests[0].shard, &a)
            ),
            Ok(Step::Wait)
        ));
        let Ok(Step::Done(merged)) = deliver(
            &mut assembly,
            kind,
            &requests[1].shard,
            freq_reply(&requests[1].shard, &b),
        ) else {
            panic!("expected done");
        };
        let mut reference = FrequencyCounter::new();
        reference.absorb_counts(a.iter().chain(&b).copied());
        assert_eq!(
            merged,
            wire::keys_to_json(JobKind::Frequency, &reference.finish(1)).render_compact()
        );
    }

    #[test]
    fn attack_phases_chain_and_replay_the_dedup() {
        let mut spec = spec(JobKind::Attack);
        spec.deep = true;
        // 8-block image, 2-block mining prefix.
        spec.max_bytes = Some(2 * BLOCK);
        let mut assembly = Assembly::new(spec, 2, 8 * BLOCK);

        let Step::Dispatch(mine_reqs) = assembly.begin() else {
            panic!("expected mine dispatch");
        };
        assert_eq!(mine_reqs.len(), 2, "mining prefix of 2 blocks, 2 shards");
        assert_eq!(mine_reqs[0].shard, 0..1);
        assert_eq!(mine_reqs[1].shard, 1..2);

        // A key observed 3 times survives mining and becomes a candidate.
        let observations = vec![obs(0xAA, 3, 0)];
        let mine = JobKind::Mine;
        assert!(matches!(
            deliver(
                &mut assembly,
                mine,
                &mine_reqs[0].shard,
                mine_reply(&mine_reqs[0].shard, &observations)
            ),
            Ok(Step::Wait)
        ));
        let Ok(Step::Dispatch(search_reqs)) = deliver(
            &mut assembly,
            mine,
            &mine_reqs[1].shard,
            mine_reply(&mine_reqs[1].shard, &[]),
        ) else {
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
        let search = JobKind::SearchShard;
        assert_eq!(search_reqs[0].kind, search);
        assert!(matches!(
            deliver(
                &mut assembly,
                search,
                &search_reqs[0].shard,
                search_reply(&search_reqs[0].shard, &parts[0])
            ),
            Ok(Step::Wait)
        ));
        let Ok(Step::Done(merged)) = deliver(
            &mut assembly,
            search,
            &search_reqs[1].shard,
            search_reply(&search_reqs[1].shard, &parts[1]),
        ) else {
            panic!("expected done");
        };

        let reference = merge_search_partials(parts.iter().cloned());
        let merged = json::parse(&merged).expect("the result is JSON");
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
        let mut spec = spec(JobKind::Attack);
        spec.max_bytes = Some(BLOCK);
        spec.ground = Some("/g.cbdf".to_string());
        spec.decay_fraction = Some(0.19);
        spec.work_budget = Some(512);
        let mut assembly = Assembly::new(spec, 1, 4 * BLOCK);
        let Step::Dispatch(mine_reqs) = assembly.begin() else {
            panic!("expected mine dispatch");
        };
        // Mining shards never carry the reconstruction knobs (dumpd
        // rejects them for non-search kinds).
        assert!(mine_reqs[0].body.get("ground").is_none());
        let Ok(Step::Dispatch(search_reqs)) = deliver(
            &mut assembly,
            JobKind::Mine,
            &mine_reqs[0].shard,
            mine_reply(&mine_reqs[0].shard, &[obs(0xAA, 3, 0)]),
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
        let Ok(Step::Done(merged)) = deliver(
            &mut assembly,
            JobKind::SearchShard,
            &search_reqs[0].shard,
            search_reply(&search_reqs[0].shard, &partial),
        ) else {
            panic!("expected done");
        };
        let merged = json::parse(&merged).expect("the result is JSON");
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
        let mut assembly = Assembly::new(spec(JobKind::Attack), 1, 0);
        let Step::Done(result) = assembly.begin() else {
            panic!("empty image completes immediately");
        };
        let result = json::parse(&result).expect("the result is JSON");
        assert_eq!(result.get("kind").and_then(Json::as_str), Some("attack"));
        assert_eq!(result.get("mined_bytes").and_then(Json::as_i64), Some(0));
        assert_eq!(result.get("blocks_scanned").and_then(Json::as_i64), Some(0));
        assert_eq!(assembly.progress(), (0, 0));
    }

    #[test]
    fn protocol_violations_are_rejected() {
        let mut assembly = Assembly::new(spec(JobKind::Mine), 2, 4 * BLOCK);
        let Step::Dispatch(requests) = assembly.begin() else {
            panic!("expected dispatch");
        };
        let shard = requests[0].shard.clone();

        let mine = JobKind::Mine;
        // Unknown shard range.
        assert!(deliver(&mut assembly, mine, &(9..12), mine_reply(&(9..12), &[])).is_err());
        // Wrong reply kind for the phase, on the wire and as a partial.
        let wrong = freq_reply(&shard, &[]);
        assert!(deliver(&mut assembly, mine, &shard, wrong).is_err());
        assert!(assembly
            .accept(&shard, ShardPartial::Frequency(Vec::new()))
            .is_err());
        // Echoed range disagreeing with the delivered shard.
        let other = requests[1].shard.clone();
        assert!(deliver(&mut assembly, mine, &shard, mine_reply(&other, &[])).is_err());
        // Valid delivery, then a duplicate.
        assert!(matches!(
            deliver(&mut assembly, mine, &shard, mine_reply(&shard, &[])),
            Ok(Step::Wait)
        ));
        let err = deliver(&mut assembly, mine, &shard, mine_reply(&shard, &[]))
            .expect_err("duplicates double-count");
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn mined_bytes_matches_the_single_node_formula() {
        let mut spec = spec(JobKind::Attack);
        spec.max_bytes = Some(100);
        let assembly = Assembly::new(spec.clone(), 1, 10 * BLOCK);
        // 100 bytes rounds up to two whole blocks.
        assert_eq!(assembly.mined_bytes, 128);
        spec.max_bytes = Some(10_000);
        let assembly = Assembly::new(spec.clone(), 1, 10 * BLOCK);
        assert_eq!(assembly.mined_bytes, 640, "prefix clamps to the image");
        spec.max_bytes = Some(0);
        let assembly = Assembly::new(spec, 1, 10 * BLOCK);
        assert_eq!(assembly.mined_bytes, 0);
    }
}
