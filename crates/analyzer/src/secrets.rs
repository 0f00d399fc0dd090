//! The secret lexicon: deciding which identifiers name key material.
//!
//! An identifier is split into lowercase segments at `_` and camelCase
//! boundaries. It *matches* the lexicon when any segment is a secret stem
//! (`key`, `keystream`, `schedule`, ...) — covering `round_key`,
//! `master_key`, `subkey`-style compounds via their `key` segment — unless
//! its final segment marks it as metadata *about* secrets rather than
//! secret bytes themselves (`key_size`, `schedule_len`, `key_table_addr`,
//! `KEY_TABLE_BYTES`, `selector_bits`).

/// Stems that mark an identifier segment as secret-bearing. Plural forms
/// are normalised by stripping one trailing `s` before comparison.
const SECRET_STEMS: &[&str] = &[
    "key",
    "keystream",
    "schedule",
    "subkey",
    "prekey",
    "password",
    "passphrase",
    "secret",
    "seed",
];

/// Final segments that mark an identifier as *metadata about* a secret
/// (sizes, counts, addresses, flags) rather than the secret itself.
const BENIGN_TAILS: &[&str] = &[
    "size",
    "sizes",
    "len",
    "lens",
    "length",
    "lengths",
    "count",
    "counts",
    "id",
    "ids",
    "idx",
    "index",
    "indices",
    "addr",
    "addrs",
    "address",
    "addresses",
    "bit",
    "bits",
    "offset",
    "offsets",
    "policy",
    "kind",
    "kinds",
    "range",
    "ranges",
    "bytes",
    "words",
    "width",
    "widths",
];

/// Splits an identifier into lowercase segments at `_` and camelCase
/// boundaries: `round_key` -> [round, key], `KeySchedule` -> [key,
/// schedule], `MASTER_KEY` -> [master, key].
pub fn segments(ident: &str) -> Vec<String> {
    let mut segs = Vec::new();
    for part in ident.split('_') {
        if part.is_empty() {
            continue;
        }
        let chars: Vec<char> = part.chars().collect();
        let mut current = String::new();
        for (i, &c) in chars.iter().enumerate() {
            let prev_lower = i > 0 && chars[i - 1].is_lowercase();
            let next_lower = chars.get(i + 1).map_or(false, |n| n.is_lowercase());
            // Break before an uppercase letter that starts a new word:
            // either aB (prev lowercase) or ABc (acronym followed by word).
            if c.is_uppercase() && !current.is_empty() && (prev_lower || next_lower) {
                segs.push(current.to_lowercase());
                current = String::new();
            }
            current.push(c);
        }
        if !current.is_empty() {
            segs.push(current.to_lowercase());
        }
    }
    segs
}

pub(crate) fn singular(seg: &str) -> &str {
    seg.strip_suffix('s')
        .filter(|s| !s.is_empty())
        .unwrap_or(seg)
}

/// True when `ident` names secret material under the lexicon rules above.
pub fn is_secret_ident(ident: &str) -> bool {
    let segs = segments(ident);
    if segs.is_empty() {
        return false;
    }
    let has_stem = segs
        .iter()
        .any(|s| SECRET_STEMS.contains(&singular(s)) || SECRET_STEMS.contains(&s.as_str()));
    if !has_stem {
        return false;
    }
    let tail = &segs[segs.len() - 1];
    let tail_benign =
        BENIGN_TAILS.contains(&tail.as_str()) || BENIGN_TAILS.contains(&singular(tail));
    // A benign tail that is itself a stem (e.g. `key_schedule`) stays secret.
    let tail_is_stem =
        SECRET_STEMS.contains(&singular(tail)) || SECRET_STEMS.contains(&tail.as_str());
    !(tail_benign && !tail_is_stem)
}

/// True when a field type (rendered as a token-concatenated string such as
/// `Vec<u32>`, `[u8;32]`, `Option<([u8;32],[u8;32])>`) is a byte/word
/// container that could hold key material in recoverable form.
pub fn is_container_type(ty: &str) -> bool {
    let holds_words = ["u8", "u16", "u32", "u64", "u128"].iter().any(|w| {
        // Match the element type as a whole word inside the rendering.
        ty.split(|c: char| !c.is_alphanumeric())
            .any(|tok| tok == *w)
    });
    holds_words && (ty.contains('[') || ty.contains("Vec<"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmentation() {
        assert_eq!(segments("round_key"), vec!["round", "key"]);
        assert_eq!(segments("KeySchedule"), vec!["key", "schedule"]);
        assert_eq!(segments("MASTER_KEY"), vec!["master", "key"]);
        assert_eq!(segments("XtsKeys"), vec!["xts", "keys"]);
        assert_eq!(segments("keysearch"), vec!["keysearch"]);
    }

    #[test]
    fn secret_positives() {
        for id in [
            "key",
            "keys",
            "keystream",
            "round_key",
            "master_key",
            "subkey",
            "prekey",
            "KeySchedule",
            "key_schedule",
            "data_key",
            "register_keys",
            "password",
        ] {
            assert!(is_secret_ident(id), "{id} should be secret");
        }
    }

    #[test]
    fn secret_negatives() {
        for id in [
            "key_size",
            "KeySize",
            "schedule_len",
            "key_table_addr",
            "KEY_TABLE_BYTES",
            "SCHEDULE_BYTES",
            "selector_bits",
            "KeyStoragePolicy",
            "key_count",
            "schedule_words",
            "keysearch",
            "keymap",
            "monkey", // stem must be a whole segment
            "block",
        ] {
            assert!(!is_secret_ident(id), "{id} should be benign");
        }
    }

    #[test]
    fn container_types() {
        assert!(is_container_type("Vec<u32>"));
        assert!(is_container_type("[u8;32]"));
        assert!(is_container_type("Option<([u8;32],[u8;32])>"));
        assert!(is_container_type("Vec<Vec<[u8;64]>>"));
        assert!(!is_container_type("u64"));
        assert!(!is_container_type("KeySize"));
        assert!(!is_container_type("Vec<String>"));
        assert!(!is_container_type("[f64;4]"));
    }
}
