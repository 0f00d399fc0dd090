//! Fixture-driven integration tests for the lint rules.
//!
//! Every rule has at least one true-positive and one true-negative fixture
//! under `tests/fixtures/`. Fixtures are fed to [`lint_sources`] under
//! *virtual* workspace paths so the path-scoped rules (crypto-only
//! const-time, dram-only truncating-cast, crate-root forbid-unsafe) see
//! the location they police.

use coldboot_analyzer::{lint_sources, Finding, LintConfig, SourceFile};

fn lint(virtual_path: &str, source: &str) -> Vec<Finding> {
    lint_with(virtual_path, source, &LintConfig::default())
}

fn lint_with(virtual_path: &str, source: &str, config: &LintConfig) -> Vec<Finding> {
    let files = vec![SourceFile {
        path: virtual_path.to_string(),
        source: source.to_string(),
    }];
    lint_sources(&files, config)
}

fn lint_files(files: &[(&str, &str)]) -> Vec<Finding> {
    let files: Vec<SourceFile> = files
        .iter()
        .map(|(path, source)| SourceFile {
            path: path.to_string(),
            source: source.to_string(),
        })
        .collect();
    lint_sources(&files, &LintConfig::default())
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn secret_print_true_positive() {
    let findings = lint(
        "crates/crypto/src/fix.rs",
        include_str!("fixtures/secret_print_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["secret-print"], "{findings:?}");
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[0].item.as_deref(), Some("round_key"));
}

#[test]
fn secret_print_true_negative() {
    let findings = lint(
        "crates/crypto/src/fix.rs",
        include_str!("fixtures/secret_print_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn metric_label_with_key_bytes_is_caught() {
    // The observability layer's hygiene rule (names, counts, durations
    // only) is enforced here: a counter label that interpolates key
    // material trips secret-print at the `format!` capture.
    let findings = lint(
        "crates/metrics/src/fix.rs",
        include_str!("fixtures/metric_label_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["secret-print"], "{findings:?}");
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[0].item.as_deref(), Some("master_key"));
}

#[test]
fn metric_label_with_counts_only_is_clean() {
    // Counts and shard indices in labels are fine — `_count` is a benign
    // metadata tail even though `key` is a secret stem.
    let findings = lint(
        "crates/metrics/src/fix.rs",
        include_str!("fixtures/metric_label_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn secret_debug_true_positive() {
    // Placed outside crypto/veracrypt so only the Debug rule fires.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_debug_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["secret-debug"], "{findings:?}");
    assert_eq!(findings[0].item.as_deref(), Some("Recovered"));
}

#[test]
fn secret_debug_true_negative() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_debug_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn zeroize_true_positive() {
    let findings = lint(
        "crates/crypto/src/fix.rs",
        include_str!("fixtures/zeroize_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["zeroize-drop"], "{findings:?}");
    assert_eq!(findings[0].item.as_deref(), Some("Expanded"));
}

#[test]
fn zeroize_true_negative() {
    let findings = lint(
        "crates/crypto/src/fix.rs",
        include_str!("fixtures/zeroize_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn zeroize_scoped_to_victim_crates() {
    // The same Drop-less struct outside crypto/veracrypt is attacker-side
    // working state and is not flagged.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/zeroize_positive.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn const_time_true_positive() {
    let findings = lint(
        "crates/crypto/src/fix.rs",
        include_str!("fixtures/const_time_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["const-time"], "{findings:?}");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn const_time_true_negative() {
    let findings = lint(
        "crates/crypto/src/fix.rs",
        include_str!("fixtures/const_time_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn forbid_unsafe_true_positive() {
    let findings = lint(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/forbid_unsafe_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["forbid-unsafe"], "{findings:?}");
}

#[test]
fn forbid_unsafe_true_negative() {
    let findings = lint(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/forbid_unsafe_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn truncating_cast_true_positive() {
    let findings = lint(
        "crates/dram/src/mapping.rs",
        include_str!("fixtures/truncating_cast_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["truncating-cast"], "{findings:?}");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn truncating_cast_true_negative() {
    let findings = lint(
        "crates/dram/src/mapping.rs",
        include_str!("fixtures/truncating_cast_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_true_positive() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/panic_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["panic"], "{findings:?}");
    assert_eq!(findings[0].line, 3);
}

#[test]
fn panic_true_negative() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/panic_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn suppression_with_reason_silences_finding() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/suppression_with_reason.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/suppression_missing_reason.rs"),
    );
    let got = rules(&findings);
    assert!(
        got.contains(&"panic"),
        "original finding must survive: {findings:?}"
    );
    assert!(
        got.contains(&"suppression"),
        "reasonless allow must be reported: {findings:?}"
    );
}

#[test]
fn config_allowlist_silences_matching_finding() {
    let config = LintConfig::parse(concat!(
        "[[allow]]\n",
        "rule = \"secret-debug\"\n",
        "path = \"crates/core/src/fix.rs\"\n",
        "item = \"Recovered\"\n",
        "reason = \"attacker-side output struct\"\n",
    ))
    .expect("valid allowlist");
    let findings = lint_with(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_debug_positive.rs"),
        &config,
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn config_allowlist_is_path_scoped() {
    let config = LintConfig::parse(concat!(
        "[[allow]]\n",
        "rule = \"secret-debug\"\n",
        "path = \"crates/scrambler/\"\n",
        "reason = \"scoped elsewhere\"\n",
    ))
    .expect("valid allowlist");
    let findings = lint_with(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_debug_positive.rs"),
        &config,
    );
    assert_eq!(rules(&findings), vec!["secret-debug"], "{findings:?}");
}

// ---------------------------------------------------------------------------
// Dataflow rule families (coldboot-lint v2)
// ---------------------------------------------------------------------------

#[test]
fn lossy_len_cast_true_positive() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/lossy_len_cast_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["lossy-len-cast"], "{findings:?}");
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[0].item.as_deref(), Some("count"));
}

#[test]
fn lossy_len_cast_true_negative() {
    // try_from, wide-minus-wide spans, and mask-then-cast are all checked.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/lossy_len_cast_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn secret_taint_true_positive() {
    // The secret is *renamed* before printing, so token-level secret-print
    // cannot see it; only dataflow taint tracking can.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_taint_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["secret-taint"], "{findings:?}");
    assert_eq!(findings[0].item.as_deref(), Some("material"));
}

#[test]
fn secret_taint_true_negative() {
    // Length arithmetic and RNG construction (`seed_from_u64`) are not
    // secret sources.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_taint_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lossy_len_cast_platform_arm() {
    // A wide (`u64`) length narrowed to `usize` truncates on 32-bit hosts.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/lossy_len_cast_platform_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["lossy-len-cast"], "{findings:?}");
    assert_eq!(findings[0].line, 5);
    assert_eq!(findings[0].item.as_deref(), Some("record_len"));
}

#[test]
fn lossy_len_cast_inside_scoped_spawn() {
    // The spawn closure is its own thread-role fact, but the length it
    // narrows was computed by the spawner.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/lossy_len_cast_scoped_spawn_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["lossy-len-cast"], "{findings:?}");
    assert_eq!(findings[0].line, 8);
    assert_eq!(findings[0].item.as_deref(), Some("total"));
}

#[test]
fn secret_taint_through_if_let() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_taint_if_let_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["secret-taint"], "{findings:?}");
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[0].item.as_deref(), Some("material"));
}

#[test]
fn secret_taint_captured_by_spawned_thread() {
    // `derive_key` is an unresolved extern whose name ends in a secret
    // noun; its result is printed on the spawned thread.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_taint_spawn_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["secret-taint"], "{findings:?}");
    assert_eq!(findings[0].line, 7);
    assert_eq!(findings[0].item.as_deref(), Some("material"));
}

// Three value-flow rules of the summary evaluator that the fixtures above
// leave open: strong update on assignment, values (not only bindings)
// reaching a print macro, and length taint through rebinding.

#[test]
fn secret_taint_reassignment_replaces_the_value() {
    // A plain assignment of an untainted value clears the binding.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_taint_reassigned_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn secret_taint_sees_a_secret_returning_call_inside_the_macro() {
    // The argument's value is key material even though no binding is.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/secret_taint_direct_call_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["secret-taint"], "{findings:?}");
    assert_eq!(findings[0].line, 13);
    assert_eq!(findings[0].item.as_deref(), Some("export_material"));
}

#[test]
fn lossy_len_cast_follows_assignment_and_destructuring() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/lossy_len_cast_rebound_positive.rs"),
    );
    assert_eq!(
        rules(&findings),
        vec!["lossy-len-cast", "lossy-len-cast"],
        "{findings:?}"
    );
    assert_eq!(findings[0].line, 6);
    assert_eq!(findings[0].item.as_deref(), Some("words"));
    assert_eq!(findings[1].line, 13);
    assert_eq!(findings[1].item.as_deref(), Some("n"));
}

#[test]
fn unbounded_loop_true_positive() {
    // Path carries a service marker, so the loop rules are in scope.
    let findings = lint(
        "crates/dumpio/src/service_fix.rs",
        include_str!("fixtures/unbounded_loop_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["unbounded-loop"], "{findings:?}");
    assert_eq!(findings[0].item.as_deref(), Some("poll_forever"));
}

#[test]
fn unbounded_loop_true_negative() {
    let findings = lint(
        "crates/dumpio/src/service_fix.rs",
        include_str!("fixtures/unbounded_loop_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn untimed_io_true_positive() {
    // A socket read with neither an Interrupted retry nor a read timeout
    // anywhere in the file yields both untimed-io findings.
    let findings = lint(
        "crates/dumpio/src/service_fix.rs",
        include_str!("fixtures/untimed_io_positive.rs"),
    );
    assert_eq!(
        rules(&findings),
        vec!["untimed-io", "untimed-io"],
        "{findings:?}"
    );
}

#[test]
fn untimed_io_true_negative() {
    let findings = lint(
        "crates/dumpio/src/service_fix.rs",
        include_str!("fixtures/untimed_io_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_cycle_and_reacquisition_are_caught() {
    let findings = lint(
        "crates/dumpio/src/fix.rs",
        include_str!("fixtures/lock_order_positive.rs"),
    );
    let got = rules(&findings);
    assert_eq!(got, vec!["lock-order"; 3], "{findings:?}");
    let items: Vec<&str> = findings.iter().filter_map(|f| f.item.as_deref()).collect();
    assert!(items.contains(&"queue->jobs"), "{items:?}");
    assert!(items.contains(&"jobs->queue"), "{items:?}");
    assert!(items.contains(&"queue"), "reacquisition: {items:?}");
}

#[test]
fn lock_order_consistent_order_is_clean() {
    // Same order everywhere, plus a drop-before-acquire handoff.
    let findings = lint(
        "crates/dumpio/src/fix.rs",
        include_str!("fixtures/lock_order_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_cycle_spans_files() {
    // The acquisition-order graph is workspace-wide: each file alone is
    // consistent, but together they deadlock.
    let files = vec![
        SourceFile {
            path: "crates/a/src/lib.rs".to_string(),
            source: "pub fn f(s: &S) { let q = lock(&s.queue); let j = lock(&s.jobs); drop(j); drop(q); }\n".to_string(),
        },
        SourceFile {
            path: "crates/b/src/lib.rs".to_string(),
            source: "pub fn g(s: &S) { let j = lock(&s.jobs); let q = lock(&s.queue); drop(q); drop(j); }\n".to_string(),
        },
    ];
    let findings = lint_sources(&files, &LintConfig::default());
    let lock_findings: Vec<_> = findings.iter().filter(|f| f.rule == "lock-order").collect();
    assert_eq!(lock_findings.len(), 2, "{findings:?}");
    let files_seen: Vec<&str> = lock_findings.iter().map(|f| f.file.as_str()).collect();
    assert!(
        files_seen.contains(&"crates/a/src/lib.rs"),
        "{files_seen:?}"
    );
    assert!(
        files_seen.contains(&"crates/b/src/lib.rs"),
        "{files_seen:?}"
    );
}

// ---------------------------------------------------------------------------
// Interprocedural rule families (coldboot-lint v3)
// ---------------------------------------------------------------------------

#[test]
fn cross_function_secret_leak_is_caught() {
    // Key bytes flow out of a helper in one file and into a `println!` in
    // another; the binding is renamed (`material`), so neither the lexical
    // rules nor intra-procedural taint can see it.
    let findings = lint_files(&[
        (
            "crates/core/src/export.rs",
            include_str!("fixtures/xfn_secret_leak_helper.rs"),
        ),
        (
            "crates/core/src/report.rs",
            include_str!("fixtures/xfn_secret_leak_caller.rs"),
        ),
    ]);
    assert_eq!(rules(&findings), vec!["secret-taint"], "{findings:?}");
    assert_eq!(findings[0].file, "crates/core/src/report.rs");
    assert_eq!(findings[0].item.as_deref(), Some("material"));
}

#[test]
fn v2_lexical_heuristic_misses_the_cross_function_leak() {
    // Pin the v2 gap: the caller alone (helper unresolved) produces no
    // finding, because `export_material` is not lexically secret-named
    // and the argument carries no taint. Only the v3 summary of the
    // helper's body makes the leak visible.
    let findings = lint(
        "crates/core/src/report.rs",
        include_str!("fixtures/xfn_secret_leak_caller.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn helper_mediated_len_cast_true_positive() {
    // The narrowing `as u32` lives inside the helper; the length-derived
    // value is in the caller. Only the param-narrowed summary connects them.
    let findings = lint_files(&[
        (
            "crates/dumpio/src/words.rs",
            include_str!("fixtures/xfn_len_cast_helper.rs"),
        ),
        (
            "crates/dumpio/src/len_caller.rs",
            include_str!("fixtures/xfn_len_cast_caller_positive.rs"),
        ),
    ]);
    assert_eq!(rules(&findings), vec!["lossy-len-cast"], "{findings:?}");
    assert_eq!(findings[0].file, "crates/dumpio/src/len_caller.rs");
}

#[test]
fn helper_mediated_len_cast_true_negative() {
    // Same shape through the `try_from` helper: clean.
    let findings = lint_files(&[
        (
            "crates/dumpio/src/words.rs",
            include_str!("fixtures/xfn_len_cast_helper.rs"),
        ),
        (
            "crates/dumpio/src/len_caller.rs",
            include_str!("fixtures/xfn_len_cast_caller_negative.rs"),
        ),
    ]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_reachability_true_positive() {
    // Bin path: the plain `panic` rule is lib-only, so the only finding is
    // the interprocedural one at the entry's call site.
    let findings = lint(
        "crates/dumpio/src/bin/dumpd_fix.rs",
        include_str!("fixtures/panic_reach_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["panic-reachability"], "{findings:?}");
    assert_eq!(findings[0].item.as_deref(), Some("parse_len"));
}

#[test]
fn panic_reachability_true_negative() {
    // A justified allow annotation on the helper's unwrap keeps it out of
    // the reachable-panic set.
    let findings = lint(
        "crates/dumpio/src/bin/dumpd_fix.rs",
        include_str!("fixtures/panic_reach_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_reachability_through_mutual_recursion_terminates() {
    // Mutually recursive helpers form an SCC; the fixpoint must terminate
    // and still propagate the panic bit into the entry point.
    let findings = lint_files(&[
        (
            "crates/dumpio/src/bin/dumpd_fix.rs",
            concat!(
                "pub fn handle_connection(header: &[u8]) -> usize {\n",
                "    crate::walk::descend(header, 0)\n",
                "}\n",
            ),
        ),
        (
            "crates/dumpio/src/walk.rs",
            concat!(
                "pub fn descend(header: &[u8], depth: usize) -> usize {\n",
                "    if depth > 8 { return depth; }\n",
                "    ascend(header, depth + 1)\n",
                "}\n",
                "\n",
                "pub fn ascend(header: &[u8], depth: usize) -> usize {\n",
                "    let first = *header.first().unwrap() as usize;\n",
                "    first + descend(header, depth + 1)\n",
                "}\n",
            ),
        ),
    ]);
    let reach: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "panic-reachability")
        .collect();
    assert_eq!(reach.len(), 1, "{findings:?}");
    assert_eq!(reach[0].file, "crates/dumpio/src/bin/dumpd_fix.rs");
    assert_eq!(reach[0].item.as_deref(), Some("crate::walk::descend"));
}

#[test]
fn blocking_in_worker_true_positive() {
    let findings = lint(
        "crates/dumpio/src/service_fix.rs",
        include_str!("fixtures/blocking_worker_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["blocking-in-worker"], "{findings:?}");
    assert_eq!(findings[0].item.as_deref(), Some("read_frame"));
}

#[test]
fn blocking_in_worker_true_negative() {
    let findings = lint(
        "crates/dumpio/src/service_fix.rs",
        include_str!("fixtures/blocking_worker_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------------------
// v4 concurrency rules (thread-role graph)
// ---------------------------------------------------------------------------

#[test]
fn atomic_ordering_true_positive() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/atomic_ordering_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["atomic-ordering"], "{findings:?}");
    assert_eq!(findings[0].line, 9);
    assert_eq!(findings[0].item.as_deref(), Some("slot"));
}

#[test]
fn atomic_ordering_true_negative() {
    // Release publish, Relaxed RMW counter, and a literal-bool cancel
    // flag: all three allowed patterns in one file, zero findings.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/atomic_ordering_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn blocking_in_event_loop_true_positive() {
    let findings = lint(
        "crates/cluster/src/fix.rs",
        include_str!("fixtures/blocking_event_loop_positive.rs"),
    );
    assert_eq!(
        rules(&findings),
        vec!["blocking-in-event-loop"],
        "{findings:?}"
    );
    assert_eq!(findings[0].item.as_deref(), Some("poll_events"));
    // The message carries the spawn-site provenance the role BFS found.
    assert!(
        findings[0].message.contains("start_event_loop"),
        "{findings:?}"
    );
}

#[test]
fn blocking_in_event_loop_true_negative() {
    // A spin-on-flag event loop and a queue worker blocking on its own
    // queue: both clean — the worker role is allowed to block on recv.
    let findings = lint(
        "crates/cluster/src/fix.rs",
        include_str!("fixtures/blocking_event_loop_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn channel_deadlock_true_positive() {
    let findings = lint(
        "crates/dumpio/src/fix.rs",
        include_str!("fixtures/channel_deadlock_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["channel-deadlock"], "{findings:?}");
    // Reported at the send: that's the line that parks forever.
    assert_eq!(findings[0].line, 10);
    assert_eq!(findings[0].item.as_deref(), Some("rendezvous_with_self"));
}

#[test]
fn channel_deadlock_true_negative() {
    // The pipelined-producer shape done right: send on the spawned
    // thread, recv on the spawner, disconnect handled, handle joined.
    let findings = lint(
        "crates/dumpio/src/fix.rs",
        include_str!("fixtures/channel_deadlock_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unwrapped_cross_thread_send_is_flagged() {
    // The recycle-loop shutdown race: the receiver thread exiting first
    // turns a normal disconnect into a sender panic.
    let findings = lint(
        "crates/dumpio/src/fix.rs",
        concat!(
            "use std::sync::mpsc;\n",
            "use std::thread;\n",
            "\n",
            "pub fn feed_pipeline() -> u64 {\n",
            "    let (tx, rx) = mpsc::sync_channel(4);\n",
            "    let producer = thread::spawn(move || {\n",
            "        tx.send(7u64).unwrap();\n",
            "    });\n",
            "    let got = rx.recv().unwrap_or(0);\n",
            "    let _ = producer.join();\n",
            "    got\n",
            "}\n",
        ),
    );
    // The raw unwrap also trips the panic rule; this test pins the
    // concurrency-specific finding.
    let deadlock: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "channel-deadlock")
        .collect();
    assert_eq!(deadlock.len(), 1, "{findings:?}");
    assert_eq!(deadlock[0].line, 7);
    assert!(deadlock[0].message.contains("unwrap"), "{findings:?}");
}

#[test]
fn join_leak_true_positive() {
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/join_leak_positive.rs"),
    );
    assert_eq!(
        rules(&findings),
        vec!["join-leak", "join-leak"],
        "{findings:?}"
    );
    // Statement-position spawn, then the never-used binding.
    assert_eq!(findings[0].line, 9);
    assert_eq!(findings[1].line, 13);
}

#[test]
fn join_leak_true_negative() {
    // Joined, explicitly detached with `let _ =`, and handle-escapes (the
    // caller owns the join decision): all clean.
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/join_leak_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn v3_summary_pass_misses_the_deep_event_loop_sleep() {
    // The interprocedural pin: the sleep is two calls below the spawn
    // site. v4's role BFS connects them…
    let findings = lint(
        "crates/cluster/src/fix.rs",
        include_str!("fixtures/xfn_event_loop_deep_positive.rs"),
    );
    assert_eq!(
        rules(&findings),
        vec!["blocking-in-event-loop"],
        "{findings:?}"
    );
    assert_eq!(findings[0].item.as_deref(), Some("drain_backlog"));
    assert!(
        findings[0].message.contains("start_event_loop"),
        "{findings:?}"
    );
    // …while the byte-identical call chain without the spawn is clean.
    // No per-function (v3) pass could flag the first file and not the
    // second: the sleeping function is the same in both; only the role
    // graph distinguishes them.
    let clean = lint(
        "crates/cluster/src/fix.rs",
        include_str!("fixtures/xfn_event_loop_deep_negative.rs"),
    );
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn zeroize_coverage_true_positive() {
    let findings = lint(
        "crates/memenc/src/fix.rs",
        include_str!("fixtures/zeroize_coverage_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["zeroize-coverage"], "{findings:?}");
    assert_eq!(findings[0].item.as_deref(), Some("Stash"));
}

#[test]
fn zeroize_coverage_true_negative() {
    let findings = lint(
        "crates/memenc/src/fix.rs",
        include_str!("fixtures/zeroize_coverage_negative.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn zeroize_coverage_sees_struct_built_in_spawned_thread() {
    // The struct literal lives in the spawn closure; the key material it
    // stores was produced by the spawner's `keystream` call.
    let findings = lint(
        "crates/memenc/src/fix.rs",
        include_str!("fixtures/zeroize_coverage_spawn_positive.rs"),
    );
    assert_eq!(rules(&findings), vec!["zeroize-coverage"], "{findings:?}");
    assert_eq!(findings[0].item.as_deref(), Some("Stash"));
}

// ---------------------------------------------------------------------------
// Stale-allow detection
// ---------------------------------------------------------------------------

#[test]
fn stale_allow_entry_is_reported() {
    use coldboot_analyzer::{lint_sources_with, LintOptions};
    let config = LintConfig::parse(concat!(
        "[[allow]]\n",
        "rule = \"secret-debug\"\n",
        "path = \"crates/nowhere/\"\n",
        "reason = \"left over from a deleted module\"\n",
    ))
    .expect("valid allowlist");
    let files = vec![SourceFile {
        path: "crates/core/src/fix.rs".to_string(),
        source: "pub fn fine() {}\n".to_string(),
    }];
    let opts = LintOptions {
        threads: 1,
        check_stale_allows: true,
        ..LintOptions::default()
    };
    let run = lint_sources_with(&files, &config, &opts);
    assert_eq!(rules(&run.findings), vec!["stale-allow"], "{run:?}");
    assert_eq!(run.findings[0].file, "lint.toml");
    assert!(
        run.findings[0].line > 0,
        "allow entry line must be recorded"
    );
}

#[test]
fn matching_allow_entry_is_not_stale() {
    use coldboot_analyzer::{lint_sources_with, LintOptions};
    let config = LintConfig::parse(concat!(
        "[[allow]]\n",
        "rule = \"secret-debug\"\n",
        "path = \"crates/core/src/fix.rs\"\n",
        "item = \"Recovered\"\n",
        "reason = \"attacker-side output struct\"\n",
    ))
    .expect("valid allowlist");
    let files = vec![SourceFile {
        path: "crates/core/src/fix.rs".to_string(),
        source: include_str!("fixtures/secret_debug_positive.rs").to_string(),
    }];
    let opts = LintOptions {
        threads: 1,
        check_stale_allows: true,
        ..LintOptions::default()
    };
    let run = lint_sources_with(&files, &config, &opts);
    assert!(run.findings.is_empty(), "{run:?}");
}

// ---------------------------------------------------------------------------
// Baseline suppression
// ---------------------------------------------------------------------------

#[test]
fn baseline_suppresses_by_rule_file_item_not_line() {
    use coldboot_analyzer::Baseline;
    let findings = lint(
        "crates/core/src/fix.rs",
        include_str!("fixtures/lossy_len_cast_positive.rs"),
    );
    assert_eq!(findings.len(), 1);
    let baseline = Baseline::parse(&Baseline::render(&findings)).expect("round-trip");
    // Same finding at a *different* line (unrelated edit moved it): still
    // covered, because baselines match on (rule, file, item).
    let mut moved = findings[0].clone();
    moved.line += 40;
    assert!(baseline.covers(&moved));
    // A different item in the same file is not covered.
    let mut other = findings[0].clone();
    other.item = Some("other_count".to_string());
    assert!(!baseline.covers(&other));
}
