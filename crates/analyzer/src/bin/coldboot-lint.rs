//! `coldboot-lint`: run the secret-hygiene analysis over the workspace.
//!
//! ```text
//! coldboot-lint [--root PATH] [--deny] [--baseline PATH] [--format text|json|sarif] ...
//! ```
//!
//! Exit codes: 0 = clean (or warn-mode findings), 1 = findings under
//! `--deny`, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use coldboot_analyzer::{
    lint_workspace_with, render_json, render_sarif, render_text, rule_explanation, Baseline,
    LintConfig, LintOptions, RULE_DESCRIPTIONS, RULE_IDS,
};

const USAGE: &str = "usage: coldboot-lint [OPTIONS]";

const HELP: &str = "\
coldboot-lint: secret-hygiene and bug-class static analysis for the
cold-boot reproduction workspace.

usage: coldboot-lint [OPTIONS]

options:
  --root PATH            workspace root to lint (default: .)
  --config PATH          lint.toml to use (default: <root>/lint.toml)
  --format FMT           output format: text (default), json, or sarif
                         (SARIF 2.1.0, for CI annotation)
  --deny                 exit non-zero (1) when any finding remains after
                         baseline/allowlist filtering. Without --deny the
                         tool reports findings but exits 0 (warn mode) --
                         CI gates should pass --deny.
  --baseline PATH        suppress findings recorded in a baseline file.
                         Entries match on (rule, file, item), not line, so
                         unrelated edits don't un-suppress them. Use this
                         to adopt the linter on a codebase with existing
                         findings, then burn the baseline down over time.
  --write-baseline PATH  write the current findings to PATH as a baseline
                         and exit 0; pair with --baseline on later runs
  --threads N            worker threads for the per-file fan-out
                         (default: auto from available parallelism)
  --cache-dir PATH       analysis cache directory
                         (default: <root>/target/lint-cache)
  --no-cache             disable the analysis cache for this run
  --allow-unused-allows  don't report lint.toml allow entries that match
                         no finding (`stale-allow`)
  --stats                print check-phase (files/reanalyzed/cached) and
                         summary-phase (summarized/cached, call-graph
                         fns/edges/sccs) counts to stderr
  --list-rules           print every rule id with its description
  --explain RULE         print a rule's rationale and a fix example
  -h, --help             show this help

exit codes: 0 clean or warn-mode findings; 1 findings with --deny;
2 usage or I/O error.";

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    format: Format,
    deny: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    threads: usize,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    allow_unused_allows: bool,
    stats: bool,
    list_rules: bool,
    explain: Option<String>,
    help: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        format: Format::Text,
        deny: false,
        baseline: None,
        write_baseline: None,
        threads: 0,
        cache_dir: None,
        no_cache: false,
        allow_unused_allows: false,
        stats: false,
        list_rules: false,
        explain: None,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root requires a path")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config requires a path")?));
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("text") => args.format = Format::Text,
                Some("sarif") => args.format = Format::Sarif,
                other => {
                    return Err(format!(
                        "--format expects `text`, `json`, or `sarif`, got {:?}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--deny" => args.deny = true,
            "--baseline" => {
                args.baseline = Some(PathBuf::from(
                    it.next().ok_or("--baseline requires a path")?,
                ));
            }
            "--write-baseline" => {
                args.write_baseline = Some(PathBuf::from(
                    it.next().ok_or("--write-baseline requires a path")?,
                ));
            }
            "--threads" => {
                let v = it.next().ok_or("--threads requires a count")?;
                args.threads = v
                    .parse()
                    .map_err(|_| format!("--threads expects a number, got `{v}`"))?;
            }
            "--cache-dir" => {
                args.cache_dir = Some(PathBuf::from(
                    it.next().ok_or("--cache-dir requires a path")?,
                ));
            }
            "--no-cache" => args.no_cache = true,
            "--allow-unused-allows" => args.allow_unused_allows = true,
            "--stats" => args.stats = true,
            "--list-rules" => args.list_rules = true,
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain requires a rule id")?);
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("coldboot-lint: {msg}");
            eprintln!("coldboot-lint: {USAGE} (try --help)");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    if args.list_rules {
        for (rule, desc) in RULE_DESCRIPTIONS {
            println!("{rule:16} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = &args.explain {
        match rule_explanation(rule) {
            Some((why, fix)) => {
                let desc = RULE_DESCRIPTIONS
                    .iter()
                    .find(|(r, _)| r == rule)
                    .map_or("", |(_, d)| *d);
                println!("{rule}: {desc}\n\nwhy:\n  {why}\n\nfix:\n  {fix}");
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!(
                    "coldboot-lint: unknown rule `{rule}`; known rules: {}",
                    RULE_IDS.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    let config = match &args.config {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))
            .and_then(|text| LintConfig::parse(&text)),
        None => coldboot_analyzer::load_config(&args.root),
    };
    let config = match config {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("coldboot-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let baseline = match &args.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("coldboot-lint: failed to read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match Baseline::parse(&text) {
                Ok(b) => Some(b),
                Err(msg) => {
                    eprintln!("coldboot-lint: {}: {msg}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    let opts = LintOptions {
        threads: args.threads,
        cache_dir: if args.no_cache {
            None
        } else {
            Some(
                args.cache_dir
                    .clone()
                    .unwrap_or_else(|| args.root.join("target").join("lint-cache")),
            )
        },
        check_stale_allows: !args.allow_unused_allows,
    };
    let run = match lint_workspace_with(&args.root, &config, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("coldboot-lint: workspace walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut findings = run.findings;
    if let Some(b) = &baseline {
        findings.retain(|f| !b.covers(f));
    }
    if args.stats {
        eprintln!(
            "coldboot-lint: {} files, {} reanalyzed, {} cached",
            run.stats.files, run.stats.reanalyzed, run.stats.cached
        );
        eprintln!(
            "coldboot-lint: summaries: {} extracted, {} cached; call graph: {} fns, \
             {} edges, {} sccs (max {})",
            run.stats.summarized,
            run.stats.summary_cached,
            run.stats.summary.fns,
            run.stats.summary.edges,
            run.stats.summary.sccs,
            run.stats.summary.max_scc
        );
    }
    if let Some(path) = &args.write_baseline {
        let rendered = Baseline::render(&findings);
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("coldboot-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "coldboot-lint: wrote baseline with {} entr{} to {}",
            findings.len(),
            if findings.len() == 1 { "y" } else { "ies" },
            path.display()
        );
        return ExitCode::SUCCESS;
    }
    match args.format {
        Format::Json => println!("{}", render_json(&findings)),
        Format::Sarif => println!("{}", render_sarif(&findings)),
        Format::Text => print!("{}", render_text(&findings)),
    }
    if findings.is_empty() || !args.deny {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
