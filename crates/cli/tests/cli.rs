//! End-to-end tests of the `stinspect` binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn stinspect() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stinspect"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stinspect-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = stinspect().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("stinspect"));
}

#[test]
fn unknown_command_fails() {
    let out = stinspect().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn help_succeeds() {
    let out = stinspect().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
}

/// Parses `traces` once per `(threads, runs)` entry, `runs` times each,
/// and asserts every run writes the bytes of the first.
fn assert_same_store_at_every_budget(traces: &Path, budgets: &[(&str, usize)]) {
    let mut reference: Option<Vec<u8>> = None;
    for &(threads, runs) in budgets {
        for run in 0..runs {
            let store = traces.with_extension(format!("t{threads}-{run}.stlog"));
            let out = stinspect()
                .arg("parse")
                .arg(traces)
                .args(["--threads", threads, "-o"])
                .arg(&store)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "--threads {threads}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let bytes = std::fs::read(&store).unwrap();
            match &reference {
                None => reference = Some(bytes),
                Some(first) => assert!(
                    *first == bytes,
                    "{}: --threads {threads} run {run} wrote different bytes",
                    traces.display()
                ),
            }
        }
    }
}

#[test]
fn simulate_parse_dfg_pipeline() {
    let dir = tmpdir("pipeline");

    // simulate ls, with strace emission
    let out = stinspect()
        .args(["simulate", "ls", "--out"])
        .arg(&dir)
        .arg("--emit-strace")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("ls.stlog").is_file());
    let traces = dir.join("ls-traces");
    assert!(traces.is_dir());

    // parse the emitted traces back into a second container
    let parsed = dir.join("parsed.stlog");
    let out = stinspect()
        .arg("parse")
        .arg(&traces)
        .arg("-o")
        .arg(&parsed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("6 cases"));
    // The container is canonical: any worker budget writes the same bytes.
    for threads in ["1", "8"] {
        let again = dir.join(format!("parsed-{threads}.stlog"));
        let out = stinspect()
            .arg("parse")
            .arg(&traces)
            .args(["--threads", threads, "-o"])
            .arg(&again)
            .output()
            .unwrap();
        assert!(out.status.success(), "--threads {threads}");
        assert_eq!(
            std::fs::read(&again).unwrap(),
            std::fs::read(&parsed).unwrap(),
            "--threads {threads}"
        );
    }
    // The same holds where the order of first use differs between
    // files and workers race: the paper's 192-file IOR set, with the
    // files spread over 2 and 8 workers, in repeated runs.
    let ior = dir.join("ior");
    let out = stinspect()
        .args([
            "simulate",
            "ior-ssf-fpp",
            "--paper",
            "--emit-strace",
            "--out",
        ])
        .arg(&ior)
        .output()
        .unwrap();
    assert!(out.status.success());
    let ior_traces = ior.join("ior-ssf-fpp-traces");
    assert_same_store_at_every_budget(&ior_traces, &[("1", 1), ("2", 3), ("8", 3)]);
    // And on one file with unfinished/resumed pairs, where 8 workers
    // chunk the file (parse_par) and 1 reads it line by line.
    let single = dir.join("single");
    std::fs::create_dir_all(&single).unwrap();
    let mut body = String::new();
    for k in 0..400u32 {
        let pid = 100 + k % 3;
        let t = 1_000 + 10 * k;
        body.push_str(&format!(
            "{pid} 08:00:00.{t:06} read(3</data/r{}>, <unfinished ...>\n\
             {} 08:00:00.{:06} write(4</out/w{}>, \"..\", 8) = 8 <0.000001>\n\
             {pid} 08:00:00.{:06} <... read resumed> \"..\", 64) = 64 <0.000005>\n",
            k % 11,
            pid + 10,
            t + 1,
            k % 13,
            t + 5
        ));
    }
    std::fs::write(single.join("u_h_1.st"), body).unwrap();
    assert_same_store_at_every_budget(&single, &[("1", 1), ("8", 2)]);

    // dfg with partition coloring, written to a file
    let dot_path = dir.join("g.dot");
    let out = stinspect()
        .arg("dfg")
        .arg(&parsed)
        .args(["--color", "partition:a", "-o"])
        .arg(&dot_path)
        .arg("--summary")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("read\\n/usr/lib"));
    assert!(dot.contains("#d62728"), "red partition color expected");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("activity"), "{stdout}");

    // stats with a path filter (the full st-query expression syntax;
    // the old substring spelling is the glob `path~"*needle*"`)
    let out = stinspect()
        .arg("stats")
        .arg(&parsed)
        .args(["--filter", "path~\"*/etc*\""])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("read:/etc/locale.alias"), "{stdout}");
    assert!(!stdout.contains("/usr/lib"), "{stdout}");

    // timeline of a known activity
    let out = stinspect()
        .arg("timeline")
        .arg(&parsed)
        .arg("read:/usr/lib")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("timeline of"), "{stdout}");
    assert!(stdout.contains('#'), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stats_csv_and_dfg_min_edge() {
    let dir = tmpdir("csv");
    stinspect()
        .args(["simulate", "ls", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let store = dir.join("ls.stlog");

    // CSV export: header + one row per activity, clean stdout.
    let out = stinspect()
        .arg("stats")
        .arg(&store)
        .arg("--csv")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("activity,events,"), "{stdout}");
    assert!(stdout.contains("read:/usr/lib,"), "{stdout}");
    // Header summary goes to stderr, not into the CSV.
    assert!(!stdout.contains("cases,"), "{stdout}");

    // Edge-frequency filtering drops rare relations from the DOT.
    let full = stinspect().arg("dfg").arg(&store).output().unwrap();
    let filtered = stinspect()
        .arg("dfg")
        .arg(&store)
        .args(["--min-edge", "6"])
        .output()
        .unwrap();
    assert!(full.status.success() && filtered.status.success());
    let full_edges = String::from_utf8_lossy(&full.stdout).matches("->").count();
    let filtered_edges = String::from_utf8_lossy(&filtered.stdout)
        .matches("->")
        .count();
    assert!(
        filtered_edges < full_edges,
        "filtered {filtered_edges} !< full {full_edges}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dfg_rejects_bad_color_mode() {
    let dir = tmpdir("badcolor");
    stinspect()
        .args(["simulate", "ls", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let out = stinspect()
        .arg("dfg")
        .arg(dir.join("ls.stlog"))
        .args(["--color", "sparkles"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown color mode"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn timeline_unknown_activity_fails_cleanly() {
    let dir = tmpdir("tlmissing");
    stinspect()
        .args(["simulate", "ls", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let out = stinspect()
        .arg("timeline")
        .arg(dir.join("ls.stlog"))
        .arg("write:/nonexistent")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no events map"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diff_simulated_ssf_vs_fpp() {
    let dir = tmpdir("diff");
    // Report mode on two in-memory simulated runs split out of the
    // ior-ssf-fpp workload by cid.
    let out = stinspect()
        .args([
            "diff",
            "sim:ior-ssf-fpp",
            "sim:ior-ssf-fpp",
            "--cid-a",
            "s",
            "--cid-b",
            "f",
            "--map",
            "site",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("DFG diff"), "{report}");
    assert!(report.contains("total-variation distance:"), "{report}");
    assert!(report.contains("changed edges"), "{report}");
    // Deterministic: a second run prints the identical report.
    let again = stinspect()
        .args([
            "diff",
            "sim:ior-ssf-fpp",
            "sim:ior-ssf-fpp",
            "--cid-a",
            "s",
            "--cid-b",
            "f",
            "--map",
            "site",
        ])
        .output()
        .unwrap();
    assert_eq!(out.stdout, again.stdout);

    // DOT mode, written to a file.
    let dot_path = dir.join("diff.dot");
    let out = stinspect()
        .args(["diff", "sim:ior-ssf-fpp", "sim:ior-ssf-fpp"])
        .args(["--cid-a", "s", "--cid-b", "f", "--map", "site", "-o"])
        .arg(&dot_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph \"DFG diff\""), "{dot}");
    assert!(dot.contains("#808080"), "shared edges gray: {dot}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diff_accepts_store_and_trace_dir_inputs() {
    let dir = tmpdir("diffinputs");
    stinspect()
        .args(["simulate", "ls", "--out"])
        .arg(&dir)
        .arg("--emit-strace")
        .output()
        .unwrap();
    let store = dir.join("ls.stlog");
    let traces = dir.join("ls-traces");

    // Store vs strace directory of the same run: structurally identical.
    let out = stinspect()
        .arg("diff")
        .arg(&store)
        .arg(&traces)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("graphs are identical"), "{report}");
    assert!(
        report.contains("total-variation distance: 0.0000"),
        "{report}"
    );

    // cid selection inside one container: `ls` vs `ls -l`.
    let out = stinspect()
        .arg("diff")
        .arg(&store)
        .arg(&store)
        .args(["--cid-a", "a", "--cid-b", "b"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("B-only"),
        "ls -l touches more files: {report}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diff_bad_inputs_fail_cleanly() {
    let out = stinspect()
        .args(["diff", "sim:nope", "sim:ls"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));

    let out = stinspect().args(["diff", "sim:ls"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly two inputs"));

    let out = stinspect()
        .args(["diff", "sim:ls", "sim:ls", "--cid-a", "zzz"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no cases with cid"));
}

#[test]
fn parse_missing_directory_fails() {
    let out = stinspect()
        .args(["parse", "/nonexistent/traces", "-o", "/tmp/x.stlog"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn parse_rejects_loader_flags_on_non_text_inputs() {
    // --strict-names shapes strace text loading; on a store or sim:
    // input it would be silently inert, so the session layer rejects it.
    let dir = tmpdir("inertflags");
    stinspect()
        .args(["simulate", "ls", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let store = dir.join("ls.stlog");
    let out = stinspect()
        .arg("parse")
        .arg(&store)
        .arg("--strict-names")
        .arg("-o")
        .arg(dir.join("out.stlog"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "--strict-names accepted on a store");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("strace text"), "{err}");
    // There is no --streaming: the loader always reads line by line.
    let out = stinspect()
        .arg("parse")
        .arg(&store)
        .arg("--streaming")
        .arg("-o")
        .arg(dir.join("out.stlog"))
        .output()
        .unwrap();
    assert!(!out.status.success(), "--streaming accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --streaming"), "{err}");
    // Without --strict-names, re-ingesting a store is fine; --threads
    // drives the block decode there.
    let out = stinspect()
        .arg("parse")
        .arg(&store)
        .args(["--threads", "4", "-o"])
        .arg(dir.join("out.stlog"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sub_header_truncation_stays_on_the_store_route() {
    // A container cut below its 12-byte header must fail as a corrupt
    // store, not silently parse as empty strace text.
    let dir = tmpdir("subheader");
    let cut = dir.join("cut.stlog");
    std::fs::write(&cut, b"STLOG2\0\0\x02").unwrap();
    for cmd in [vec!["stats"], vec!["query", "--emit", "events"]] {
        let mut argv = vec![cmd[0]];
        argv.push(cut.to_str().unwrap());
        argv.extend(&cmd[1..]);
        let out = stinspect().args(&argv).output().unwrap();
        assert!(!out.status.success(), "{argv:?} accepted a truncated store");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("magic") || err.contains("corrupt") || err.contains("checksum"),
            "{argv:?}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_group_by_file_emits_one_dot_per_file() {
    // The paper's per-file narrowing on the simulated SSF run: every
    // distinct file gets its own DFG.
    let out = stinspect()
        .args([
            "query",
            "sim:ssf",
            "--filter",
            "path~\"*\"",
            "--group-by",
            "file",
            "--emit",
            "dfg",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headers = stdout.matches("// group: ").count();
    let graphs = stdout.matches("digraph").count();
    assert!(headers > 1, "expected one DOT per file: {stdout}");
    assert_eq!(headers, graphs, "{stdout}");
    // The shared SSF test file is one of the groups.
    assert!(
        stdout.contains("// group: /p/scratch/user1/ssf/test"),
        "{stdout}"
    );
    // Deterministic across runs.
    let again = stinspect()
        .args([
            "query",
            "sim:ssf",
            "--filter",
            "path~\"*\"",
            "--group-by",
            "file",
            "--emit",
            "dfg",
        ])
        .output()
        .unwrap();
    assert_eq!(out.stdout, again.stdout);
}

#[test]
fn query_filter_store_roundtrip_and_events() {
    let dir = tmpdir("query");
    // Slice the simulated ls run to reads only and store the slice.
    let slice = dir.join("reads.stlog");
    let out = stinspect()
        .args([
            "query",
            "sim:ls",
            "--filter",
            "class=read",
            "--emit",
            "store",
            "-o",
        ])
        .arg(&slice)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("events match"));

    // The stored slice feeds the normal pipeline and contains no writes.
    let out = stinspect()
        .arg("stats")
        .arg(&slice)
        .args(["--map", "call"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("read"), "{stdout}");
    assert!(!stdout.contains("write"), "{stdout}");

    // Event emission: TSV with a header, only failing calls when asked
    // (the SSF run's shared-library openat storm fails; `ls` has no
    // failures).
    let out = stinspect()
        .args([
            "query", "sim:ssf", "--filter", "ok=false", "--emit", "events",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("cid\thost\trid\tpid\tcall\tstart\tdur\tpath\tsize\tok"),
        "{stdout}"
    );
    assert!(lines.clone().count() > 0);
    assert!(lines.all(|l| l.ends_with("false")), "{stdout}");

    // Per-group stats to stdout.
    let out = stinspect()
        .args(["query", "sim:ls", "--group-by", "cid", "--emit", "stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# group: a"), "{stdout}");
    assert!(stdout.contains("# group: b"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_pushdown_matches_load_and_scan_and_reports_pruning() {
    let dir = tmpdir("pushdown");
    stinspect()
        .args(["simulate", "ior-ssf-fpp", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let store = dir.join("ior-ssf-fpp.stlog");
    assert!(store.is_file());

    for (filter, emit) in [
        ("ok=false", "events"),
        ("cid=s class=write", "events"),
        ("path~\"*/ssf/*\" size>=512k", "stats"),
        ("t=[0s,50ms)", "events"),
    ] {
        let pushed = stinspect()
            .arg("query")
            .arg(&store)
            .args(["--filter", filter, "--emit", emit])
            .output()
            .unwrap();
        // The same run generated in memory takes the load + scan route.
        let full = stinspect()
            .args(["query", "sim:ior-ssf-fpp"])
            .args(["--filter", filter, "--emit", emit])
            .output()
            .unwrap();
        assert!(
            pushed.status.success(),
            "{}",
            String::from_utf8_lossy(&pushed.stderr)
        );
        assert!(
            full.status.success(),
            "{}",
            String::from_utf8_lossy(&full.stderr)
        );
        // Same results byte-for-byte on stdout…
        assert_eq!(pushed.stdout, full.stdout, "filter {filter:?}");
        // …and the same match line; only the pushdown path reports a
        // pruning summary.
        let pushed_err = String::from_utf8_lossy(&pushed.stderr);
        let full_err = String::from_utf8_lossy(&full.stderr);
        assert_eq!(
            pushed_err.lines().next(),
            full_err.lines().next(),
            "filter {filter:?}"
        );
        assert!(pushed_err.contains("pushdown: pruned"), "{pushed_err}");
        // The v2 seek route accounts disk I/O alongside decode work.
        assert!(pushed_err.contains("bytes off disk"), "{pushed_err}");
        assert!(!full_err.contains("pushdown:"), "{full_err}");
    }

    // The cid filter prunes whole cases without touching their bytes.
    let out = stinspect()
        .arg("query")
        .arg(&store)
        .args(["--filter", "cid=s", "--emit", "events"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(8 of 16 cases whole)"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_then_filter_requeries_from_cache() {
    let dir = tmpdir("thenfilter");
    stinspect()
        .args(["simulate", "ior-ssf-fpp", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let store = dir.join("ior-ssf-fpp.stlog");

    // One invocation narrowing in two steps must emit exactly what a
    // single query with the conjoined filter emits…
    let narrowed = stinspect()
        .arg("query")
        .arg(&store)
        .args([
            "--filter",
            "class=write",
            "--then-filter",
            "size>=512k",
            "--emit",
            "events",
        ])
        .output()
        .unwrap();
    let direct = stinspect()
        .arg("query")
        .arg(&store)
        .args(["--filter", "class=write size>=512k", "--emit", "events"])
        .output()
        .unwrap();
    assert!(
        narrowed.status.success(),
        "{}",
        String::from_utf8_lossy(&narrowed.stderr)
    );
    assert_eq!(narrowed.stdout, direct.stdout);

    // …while the refinement itself reads nothing off disk: every block
    // the broad pass decoded is served from the cache.
    let stderr = String::from_utf8_lossy(&narrowed.stderr);
    assert!(
        stderr.contains("then-filter size>=512k:"),
        "refinement match line missing: {stderr}"
    );
    let requery: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("requery:"))
        .collect();
    assert_eq!(requery.len(), 2, "one cache line per query: {stderr}");
    assert!(
        requery[0].starts_with("requery: 0 of"),
        "cold pass is all misses: {stderr}"
    );
    assert!(
        !requery[1].starts_with("requery: 0 of"),
        "warm pass hits the cache: {stderr}"
    );
    let warm = stderr
        .lines()
        .skip_while(|l| !l.starts_with("then-filter"))
        .find(|l| l.starts_with("pushdown:"))
        .expect("warm pushdown summary");
    assert!(
        warm.contains("read 0 bytes off disk"),
        "refinement re-read the container: {warm}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_emit_store_writes_v2_and_requeries_stably() {
    // query → store → query: the emitted container is the current (v2)
    // format and a re-query over it returns the same events.
    let dir = tmpdir("emitstore");
    let slice = dir.join("slice.stlog");
    let out = stinspect()
        .args([
            "query",
            "sim:ior-ssf-fpp",
            "--filter",
            "class=write",
            "--emit",
            "store",
            "-o",
        ])
        .arg(&slice)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let magic = &std::fs::read(&slice).unwrap()[..8];
    assert_eq!(magic, b"STLOG2\0\0", "emitted store is not v2");

    let direct = stinspect()
        .args([
            "query",
            "sim:ior-ssf-fpp",
            "--filter",
            "class=write",
            "--emit",
            "events",
        ])
        .output()
        .unwrap();
    let requeried = stinspect()
        .arg("query")
        .arg(&slice)
        .args(["--filter", "class=write", "--emit", "events"])
        .output()
        .unwrap();
    assert!(
        requeried.status.success(),
        "{}",
        String::from_utf8_lossy(&requeried.stderr)
    );
    assert_eq!(direct.stdout, requeried.stdout);
    // Inside the slice every event matches: nothing left to prune, and
    // the totals equal the slice's own size.
    let stderr = String::from_utf8_lossy(&requeried.stderr);
    assert!(stderr.contains("pushdown:"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_surfaces_store_corruption() {
    // A flipped byte inside the store must fail the query (checksum),
    // never return a silently wrong slice.
    let dir = tmpdir("corrupt");
    stinspect()
        .args(["simulate", "ls", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let store = dir.join("ls.stlog");
    let mut bytes = std::fs::read(&store).unwrap();
    let idx = bytes.len() - 9; // inside the last block body
    bytes[idx] ^= 0xFF;
    std::fs::write(&store, &bytes).unwrap();
    let store = store.to_str().unwrap();
    for argv in [
        &["query", store, "--filter", "true", "--emit", "events"][..],
        &["query", store, "--filter", "class=read", "--emit", "stats"][..],
        &["stats", store][..],
    ] {
        let out = stinspect().args(argv).output().unwrap();
        assert!(!out.status.success(), "corrupt store accepted ({argv:?})");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("checksum") || stderr.contains("corrupt"),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_group_by_into_directory() {
    let dir = tmpdir("querydir");
    let out_dir = dir.join("per-pid");
    let out = stinspect()
        .args([
            "query",
            "sim:ls",
            "--group-by",
            "pid",
            "--emit",
            "dfg",
            "-o",
        ])
        .arg(&out_dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dots: Vec<_> = std::fs::read_dir(&out_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "dot"))
        .collect();
    assert!(dots.len() > 1, "one DOT per pid expected");
    for entry in dots {
        let text = std::fs::read_to_string(entry.path()).unwrap();
        assert!(text.starts_with("digraph"), "{}", entry.path().display());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn query_bad_usage_fails_cleanly() {
    // Malformed filter expression: the parse error surfaces.
    let out = stinspect()
        .args(["query", "sim:ls", "--filter", "frob=1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown key"));

    // Unknown group key.
    let out = stinspect()
        .args(["query", "sim:ls", "--group-by", "color"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --group-by key"));

    // Store emission needs a target path.
    let out = stinspect()
        .args(["query", "sim:ls", "--emit", "store"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires -o"));

    // A filter nothing matches is an error, not empty output.
    let out = stinspect()
        .args(["query", "sim:ls", "--filter", "pid=999999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no events match"));

    // --map is meaningless for the mapping-free emits: rejected, not
    // silently ignored.
    let out = stinspect()
        .args(["query", "sim:ls", "--emit", "events", "--map", "site"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--map has no effect"));

    // An out-of-range pid is a parse error, not a silent truncation.
    let out = stinspect()
        .args(["query", "sim:ls", "--filter", "pid=4294967297"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsigned 32-bit"));

    // A second positional input is rejected, not silently preferred.
    let out = stinspect()
        .args(["query", "sim:ls", "sim:ssf"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one <input>"));
}

#[test]
fn query_time_windows_are_trace_relative() {
    // Simulated traces start at the wall-clock epoch 09:00:00, so a
    // relative window must still match (it is rebased to the first
    // event), and the equivalent absolute window selects the same slice.
    let relative = stinspect()
        .args([
            "query",
            "sim:ls",
            "--filter",
            "t=[0s,2s)",
            "--emit",
            "events",
        ])
        .output()
        .unwrap();
    assert!(
        relative.status.success(),
        "{}",
        String::from_utf8_lossy(&relative.stderr)
    );
    let absolute = stinspect()
        .args([
            "query",
            "sim:ls",
            "--filter",
            "t=[09:00:00,09:00:02)",
            "--emit",
            "events",
        ])
        .output()
        .unwrap();
    assert!(absolute.status.success());
    assert_eq!(relative.stdout, absolute.stdout);
    // Mixing the two endpoint forms is a parse error.
    let out = stinspect()
        .args(["query", "sim:ls", "--filter", "t=[0s,09:00:02)"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mixes a relative and an absolute"));
}

#[test]
fn diff_pushes_filters_into_v2_stores() {
    // diff on v2 stores routes a selective --filter through predicate
    // pushdown (pruning summary on stderr, one per side) and produces
    // output identical to the same run generated in memory (load +
    // scan).
    let dir = tmpdir("diffpush");
    stinspect()
        .args(["simulate", "ior-ssf-fpp", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let store = dir.join("ior-ssf-fpp.stlog");
    assert!(store.is_file());
    // Re-encode with small blocks: the simulated run is tiny, so the
    // default 4096-event blocks leave one block per case and nothing
    // for the zone maps to discriminate. Paper-scale stores carry many
    // blocks per case; 64-event blocks model that here.
    {
        let log = st_store::SegmentReader::open(&store)
            .unwrap()
            .read()
            .unwrap();
        std::fs::write(&store, st_store::to_bytes_blocked(&log, 64).unwrap()).unwrap();
    }
    let argv = |input: &std::ffi::OsStr| {
        stinspect()
            .arg("diff")
            .arg(input)
            .arg(input)
            .args(["--cid-a", "s", "--cid-b", "f", "--map", "site"])
            .args(["--filter", "class=write size>=512k"])
            .output()
            .unwrap()
    };
    let pushed = argv(store.as_os_str());
    let full = argv("sim:ior-ssf-fpp".as_ref());
    assert!(
        pushed.status.success(),
        "{}",
        String::from_utf8_lossy(&pushed.stderr)
    );
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    assert_eq!(pushed.stdout, full.stdout);
    let pushed_err = String::from_utf8_lossy(&pushed.stderr);
    assert_eq!(
        pushed_err.matches("pushdown: pruned").count(),
        2,
        "one pruning summary per diff side: {pushed_err}"
    );
    // The selective filter must actually skip blocks.
    assert!(!pushed_err.contains("pruned 0/"), "{pushed_err}");
    assert!(
        !String::from_utf8_lossy(&full.stderr).contains("pushdown:"),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );

    // The other rewritten subcommands take the same route.
    for argv in [
        vec![
            "stats",
            store.to_str().unwrap(),
            "--filter",
            "class=write size>=512k",
        ],
        vec![
            "dfg",
            store.to_str().unwrap(),
            "--filter",
            "class=write size>=512k",
        ],
    ] {
        let out = stinspect().args(&argv).output().unwrap();
        assert!(out.status.success(), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("pushdown: pruned"), "{argv:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diff_report_includes_stats_layer() {
    let out = stinspect()
        .args(["diff", "sim:ssf", "sim:fpp", "--map", "site"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("per-activity statistics (A → B):"),
        "{report}"
    );
    assert!(report.contains("Δ Load"), "{report}");
    assert!(report.contains("MB/s"), "{report}");

    // --no-stats restores the purely structural report.
    let out = stinspect()
        .args(["diff", "sim:ssf", "sim:fpp", "--map", "site", "--no-stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(!report.contains("per-activity statistics"), "{report}");
}

/// Builds a v2 store for `sim:ls` in `dir` and returns its path.
fn build_store(dir: &PathBuf) -> PathBuf {
    let out = stinspect()
        .args(["simulate", "ls", "--out"])
        .arg(dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir.join("ls.stlog")
}

/// Flips one bit inside the first block body (see the matrix test for
/// the layout arithmetic), producing a degraded-but-salvageable store.
fn corrupt_store(store: &PathBuf, out: &PathBuf) {
    let mut image = std::fs::read(store).unwrap();
    let mut off = 12usize;
    for _ in 0..2 {
        let len = u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
        off += 8 + len + 4;
    }
    off += 8;
    image[off + 3] ^= 0x08;
    std::fs::write(out, image).unwrap();
}

#[test]
fn fsck_exit_codes_distinguish_clean_degraded_unreadable() {
    let dir = tmpdir("fsck");
    let store = build_store(&dir);

    // Clean container: exit 0, verdict line on stdout.
    let out = stinspect().arg("fsck").arg(&store).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict: clean"), "{text}");

    // Degraded container: exit 3, loss and verdict lines.
    let bad = dir.join("bad.stlog");
    corrupt_store(&store, &bad);
    let out = stinspect().arg("fsck").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict: degraded"), "{text}");
    assert!(text.contains("events lost"), "{text}");
    assert!(text.contains("recoverable"), "{text}");

    // Unreadable: exit 4, reason on stderr.
    let junk = dir.join("junk.stlog");
    std::fs::write(&junk, b"not a container at all").unwrap();
    let out = stinspect().arg("fsck").arg(&junk).output().unwrap();
    assert_eq!(out.status.code(), Some(4));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unreadable"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Usage error: exit 2.
    let out = stinspect().arg("fsck").output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salvage_flag_recovers_and_deny_warnings_promotes() {
    let dir = tmpdir("salvage-flag");
    let store = build_store(&dir);
    let bad = dir.join("bad.stlog");
    corrupt_store(&store, &bad);

    // Strict mode rejects the corrupted store.
    let out = stinspect().args(["stats"]).arg(&bad).output().unwrap();
    assert!(!out.status.success());

    // --salvage recovers the surviving blocks and reports the loss.
    let out = stinspect()
        .args(["--salvage", "stats"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("salvage:"), "{err}");
    assert!(err.contains("events lost"), "{err}");

    // --deny-warnings turns that loss warning into a nonzero exit.
    let out = stinspect()
        .args(["--salvage", "--deny-warnings", "stats"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("denied"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // On a clean store --salvage and --deny-warnings are inert.
    let out = stinspect()
        .args(["--salvage", "--deny-warnings", "stats"])
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_parse_leaves_no_partial_container() {
    // Store writes go to a same-directory temp file and rename into
    // place atomically. Simulate an interrupted final step by making
    // the destination un-renameable (a directory): the write must fail,
    // the destination must be untouched, and no temp file may remain.
    let dir = tmpdir("atomic");
    let target = dir.join("out.stlog");
    std::fs::create_dir_all(&target).unwrap();
    let sentinel = target.join("keep.txt");
    std::fs::write(&sentinel, b"still here").unwrap();

    let out = stinspect()
        .args(["parse", "sim:ls", "-o"])
        .arg(&target)
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Destination untouched, sentinel intact.
    assert!(target.is_dir());
    assert_eq!(std::fs::read(&sentinel).unwrap(), b"still here");

    // No temp, spill, or partial files anywhere in the output
    // directory. The streaming writer encodes blocks into a
    // same-directory `.{name}.spill.{pid}` scratch file before the
    // final splice — a failed finish must remove that too, not just
    // the rename temp.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "out.stlog")
        .collect();
    assert!(
        leftovers.is_empty(),
        "leftover scratch files (spill/tmp must be cleaned up on failure): {leftovers:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `stinspect serve -o <store>` on an ephemeral loopback port
/// and returns the child with the address from its banner line.
fn spawn_serve(store: &std::path::Path) -> (std::process::Child, String) {
    use std::io::{BufRead as _, BufReader};

    let mut child = stinspect()
        .args(["serve", "-o"])
        .arg(store)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // The daemon prints its resolved ephemeral address before serving.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("banner carries the bound address")
        .to_string();
    (child, addr)
}

/// POSTs one three-event strace stream to the daemon at `addr` over a
/// plain TCP connection and requires a 200.
fn serve_ingest_one_stream(addr: &str) {
    use std::io::{Read as _, Write as _};

    let body = "\
9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, \"...\", 832) = 832 <0.000203>
9054  08:55:54.156640 read(3</usr/lib/x86_64-linux-gnu/libc.so.6>, \"...\", 832) = 832 <0.000079>
9054  08:55:54.176260 write(1</dev/pts/7>, \"...\", 50) = 50 <0.000111>
";
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(
        s,
        "POST /ingest/a_host1_9042.st HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
}

#[test]
fn serve_daemon_end_to_end_matches_offline_query_and_fscks_clean() {
    use std::io::{Read as _, Write as _};

    let dir = tmpdir("serve");
    let store = dir.join("live.stlog2");
    let (mut child, addr) = spawn_serve(&store);
    serve_ingest_one_stream(&addr);

    // The HTTP query body is byte-identical to the offline CLI query
    // on the sealed container with the same filter.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    write!(
        s,
        "GET /query?filter=call%3Dread&emit=events HTTP/1.1\r\nHost: x\r\n\r\n"
    )
    .unwrap();
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).unwrap();
    let split = resp.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let http_body = resp[split + 4..].to_vec();

    let out = stinspect()
        .arg("query")
        .arg(&store)
        .args(["--filter", "call=read", "--emit", "events"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&http_body),
        String::from_utf8_lossy(&out.stdout),
        "HTTP body and offline query stdout must match byte-for-byte"
    );

    // Graceful shutdown over HTTP; the daemon exits 0 and the sealed
    // container passes fsck cleanly.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    write!(s, "POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let status = child.wait().unwrap();
    assert!(status.success());

    let out = stinspect().arg("fsck").arg(&store).output().unwrap();
    assert!(
        out.status.success(),
        "fsck after graceful shutdown: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn serve_daemon_exits_cleanly_on_sigterm() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let dir = tmpdir("serve-sigterm");
    let store = dir.join("live.stlog2");
    let (mut child, addr) = spawn_serve(&store);
    serve_ingest_one_stream(&addr);

    // SIGTERM drains and seals exactly like `POST /shutdown`.
    let pid = i32::try_from(child.id()).unwrap();
    // SAFETY: kill(2) takes two plain integers and touches no memory
    // of this process; `pid` is the live child spawned above.
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("serve ignored SIGTERM for 30 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(status.success(), "serve after SIGTERM: {status:?}");

    let out = stinspect().arg("fsck").arg(&store).output().unwrap();
    assert!(
        out.status.success(),
        "fsck after SIGTERM: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
