//! `dumpctl` — command-line client for `coldboot-dumpd`.
//!
//! ```text
//! dumpctl [--connect ADDR] ping
//! dumpctl [--connect ADDR] submit <attack|mine|frequency> <DUMP.cbdf>
//!         [--window-blocks N] [--timeout-secs N] [--threads N]
//!         [--deep] [--max-bytes N] [--top-keys N] [--shards N]
//!         [--ground GROUND.cbdf] [--decay-fraction F] [--work-budget N]
//! dumpctl [--connect ADDR] status <ID>
//! dumpctl [--connect ADDR] result <ID>
//! dumpctl [--connect ADDR] wait <ID> [--timeout-ms N]
//! dumpctl [--connect ADDR] cancel <ID>
//! dumpctl [--connect ADDR] stats
//! dumpctl [--connect ADDR] shutdown
//! ```
//!
//! Works against a single `coldboot-dumpd` and against a `clusterd`
//! coordinator alike — the protocols are the same (`--shards` only means
//! something to a coordinator; a `dumpd` ignores it), except that only a
//! `dumpd` answers `wait`, which blocks until the job is terminal or the
//! timeout (default 60000 ms, the most a `dumpd` allows) passes. Prints
//! the server's JSON response (pretty-printed) and exits 0 when the
//! response carries `"ok": true`. On a rejection, the uniform error
//! schema's `code` and its retryable/fatal class are summarized on stderr
//! so scripts (and operators) can tell "try again later" from "fix the
//! request".

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use coldboot_dumpio::json::{self, Json};
use coldboot_dumpio::service::MAX_WAIT_MS;

const DEFAULT_CONNECT: &str = "127.0.0.1:7311";

fn usage() -> ExitCode {
    eprintln!(
        "usage: dumpctl [--connect ADDR] <command>\n\
         \n\
         commands:\n\
         \x20 ping\n\
         \x20 submit <attack|mine|frequency> <DUMP.cbdf> [--window-blocks N]\n\
         \x20        [--timeout-secs N] [--threads N] [--deep] [--max-bytes N] [--top-keys N]\n\
         \x20        [--shards N]   (shards: clusterd coordinators only)\n\
         \x20        [--ground GROUND.cbdf] [--decay-fraction F] [--work-budget N]\n\
         \x20        (ground-state reconstruction: attack jobs only)\n\
         \x20 status <ID>\n\
         \x20 result <ID>\n\
         \x20 wait <ID> [--timeout-ms N]   (dumpd only; default 60000)\n\
         \x20 cancel <ID>\n\
         \x20 stats\n\
         \x20 shutdown\n\
         \n\
         default --connect: {DEFAULT_CONNECT}"
    );
    ExitCode::from(2)
}

fn parse_id(arg: Option<String>) -> Result<i64, ExitCode> {
    match arg.and_then(|s| s.parse().ok()) {
        Some(id) => Ok(id),
        None => {
            eprintln!("expected a numeric job id");
            Err(usage())
        }
    }
}

fn build_request(mut argv: impl Iterator<Item = String>) -> Result<(String, Json), ExitCode> {
    let mut connect = DEFAULT_CONNECT.to_string();
    let command = loop {
        match argv.next() {
            Some(flag) if flag == "--connect" => match argv.next() {
                Some(addr) => connect = addr,
                None => {
                    eprintln!("--connect needs a value");
                    return Err(usage());
                }
            },
            Some(other) => break other,
            None => return Err(usage()),
        }
    };
    let request = match command.as_str() {
        "ping" | "stats" | "shutdown" => Json::obj([("verb", Json::Str(command.clone()))]),
        "status" | "result" | "cancel" => {
            let id = parse_id(argv.next())?;
            Json::obj([("verb", Json::Str(command.clone())), ("id", Json::Int(id))])
        }
        "wait" => {
            let id = parse_id(argv.next())?;
            let timeout_ms = match argv.next().as_deref() {
                None => MAX_WAIT_MS as i64,
                Some("--timeout-ms") => parse_id(argv.next())?,
                Some(other) => {
                    eprintln!("unknown flag: {other}");
                    return Err(usage());
                }
            };
            Json::obj([
                ("verb", Json::Str(command.clone())),
                ("id", Json::Int(id)),
                ("timeout_ms", Json::Int(timeout_ms)),
            ])
        }
        "submit" => {
            let Some(kind) = argv.next() else {
                eprintln!("submit needs a job kind");
                return Err(usage());
            };
            let Some(dump) = argv.next() else {
                eprintln!("submit needs a dump path");
                return Err(usage());
            };
            let mut pairs = vec![
                ("verb".to_string(), Json::Str("submit".into())),
                ("kind".to_string(), Json::Str(kind)),
                ("dump".to_string(), Json::Str(dump)),
            ];
            while let Some(flag) = argv.next() {
                if flag == "--deep" {
                    pairs.push(("deep".to_string(), Json::Bool(true)));
                    continue;
                }
                if flag == "--ground" {
                    let Some(path) = argv.next() else {
                        eprintln!("--ground needs a CBDF path");
                        return Err(usage());
                    };
                    pairs.push(("ground".to_string(), Json::Str(path)));
                    continue;
                }
                if flag == "--decay-fraction" {
                    let Some(raw) = argv.next() else {
                        eprintln!("--decay-fraction needs a value");
                        return Err(usage());
                    };
                    let Ok(value) = raw.parse::<f64>() else {
                        eprintln!("--decay-fraction: not a number: {raw}");
                        return Err(usage());
                    };
                    pairs.push(("decay_fraction".to_string(), Json::Num(value)));
                    continue;
                }
                let field = match flag.as_str() {
                    "--window-blocks" => "window_blocks",
                    "--timeout-secs" => "timeout_secs",
                    "--threads" => "threads",
                    "--max-bytes" => "max_bytes",
                    "--top-keys" => "top_keys",
                    "--shards" => "shards",
                    "--work-budget" => "work_budget",
                    other => {
                        eprintln!("unknown flag: {other}");
                        return Err(usage());
                    }
                };
                let value = parse_id(argv.next())?;
                pairs.push((field.to_string(), Json::Int(value)));
            }
            Json::Obj(pairs)
        }
        other => {
            eprintln!("unknown command: {other}");
            return Err(usage());
        }
    };
    Ok((connect, request))
}

fn main() -> ExitCode {
    let (connect, request) = match build_request(std::env::args().skip(1)) {
        Ok(built) => built,
        Err(code) => return code,
    };
    let stream = match TcpStream::connect(&connect) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("dumpctl: cannot connect to {connect}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => {
            eprintln!("dumpctl: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut line = request.render_compact();
    line.push('\n');
    if let Err(e) = writer.write_all(line.as_bytes()) {
        eprintln!("dumpctl: send failed: {e}");
        return ExitCode::FAILURE;
    }
    let mut response_line = String::new();
    if let Err(e) = BufReader::new(stream).read_line(&mut response_line) {
        eprintln!("dumpctl: receive failed: {e}");
        return ExitCode::FAILURE;
    }
    let Some(response) = json::parse(response_line.trim()) else {
        // Unparseable reply: show it raw so the operator sees something.
        println!("{}", response_line.trim_end());
        return ExitCode::FAILURE;
    };
    print!("{}", response.render());
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        ExitCode::SUCCESS
    } else {
        // Surface the uniform error schema: the code plus whether the
        // same request can succeed later (cluster failover keys off the
        // same distinction).
        let code = response
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or("error");
        let class = match response.get("retryable").and_then(Json::as_bool) {
            Some(true) => "retryable — the same request can succeed later",
            Some(false) => "fatal — fix the request before resending",
            None => "unclassified",
        };
        eprintln!("dumpctl: rejected with code `{code}` ({class})");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(args: &[&str]) -> Option<String> {
        build_request(args.iter().map(ToString::to_string))
            .ok()
            .map(|(_, request)| request.render_compact())
    }

    #[test]
    fn wait_defaults_to_the_longest_timeout() {
        assert_eq!(
            request(&["wait", "7"]).as_deref(),
            Some(r#"{"verb":"wait","id":7,"timeout_ms":60000}"#)
        );
        assert_eq!(
            request(&["--connect", "h:1", "wait", "7", "--timeout-ms", "250"]).as_deref(),
            Some(r#"{"verb":"wait","id":7,"timeout_ms":250}"#)
        );
        assert_eq!(request(&["wait"]), None);
        assert_eq!(request(&["wait", "7", "--timeout-ms"]), None);
        assert_eq!(request(&["wait", "7", "--deep"]), None);
    }
}
