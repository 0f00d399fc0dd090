//! JSON codec for cluster shard partials.
//!
//! The coordinator and its dumpd workers exchange *mergeable* partial
//! results over the line protocol: mining observation maps, pre-dedup
//! search recoveries, and frequency histograms. This module is the single
//! place those shapes are rendered and parsed, so the worker
//! (`service.rs`) and the coordinator (`coldboot-cluster`) cannot drift.
//! Every value the scan engine needs to replay its deterministic merge is
//! carried at full fidelity — keys as lowercase hex, addresses and counts
//! as integers — which is what makes the cluster result byte-identical to
//! a single-node pass.
//!
//! Parsers are total: any structural mismatch yields `None`, never a
//! panic, because the bytes come from the network.

use coldboot::keysearch::{KeySize, RecoveredAesKey, ScheduleHit, SearchPartial};
use coldboot::litmus::{CandidateKey, MinedObservation};
use coldboot::reconstruct::FlipCounts;
use coldboot_dram::BLOCK_BYTES;

use crate::json::Json;

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

fn recovery_to_json(rec: &RecoveredAesKey) -> Json {
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
    // Channel-reconstruction fields travel only when the shard ran with
    // reconstruction on: their absence is what keeps the off-mode wire
    // shape byte-identical to the historical protocol.
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

/// Renders a search shard's mergeable partial: hits in block order,
/// *pre-dedup* recoveries in verification order, and the shard's
/// region-filtered scan count.
pub fn search_partial_to_json(partial: &SearchPartial) -> Json {
    Json::obj([
        (
            "hits",
            Json::Arr(partial.hits.iter().map(hit_to_json).collect()),
        ),
        (
            "recoveries",
            Json::Arr(partial.recoveries.iter().map(recovery_to_json).collect()),
        ),
        ("blocks_scanned", Json::Int(partial.blocks_scanned as i64)),
    ])
}

/// Parses [`search_partial_to_json`]'s output. Sequence order is
/// preserved exactly — the coordinator's dedup replay depends on it.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let parsed =
            search_partial_from_json(&search_partial_to_json(&partial)).expect("roundtrip parses");
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
}
