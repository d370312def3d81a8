//! End-to-end tests of the `rpq-cli` binary: build → persist → load →
//! query, plus failure modes.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rpq-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpq_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn build_query_roundtrip() {
    let dir = tmpdir("roundtrip");
    let graph = dir.join("metro.txt");
    std::fs::write(
        &graph,
        "baquedano l5 bellas_artes
         bellas_artes l5 santa_ana
         santa_ana l5 bellas_artes
         bellas_artes l5 baquedano
         santa_ana bus u_de_chile
         bellas_artes bus santa_ana
        ",
    )
    .unwrap();
    let index = dir.join("metro.db");

    let out = cli()
        .args(["build", graph.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("indexed 6 edges"));
    assert!(index.exists());

    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "baquedano",
            "l5+/bus",
            "?y",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("baquedano\tsanta_ana"), "{stdout}");
    assert!(stdout.contains("baquedano\tu_de_chile"), "{stdout}");

    let out = cli()
        .args(["stats", index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edges (base):        6"), "{stdout}");
    assert!(stdout.contains("ring bytes"), "{stdout}");

    let out = cli()
        .args(["bench", index.to_str().unwrap(), "?x", "l5*", "?y", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 runs"));

    let out = cli()
        .args([
            "explain",
            index.to_str().unwrap(),
            "baquedano",
            "l5+/bus",
            "?y",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("strategy:"), "{text}");
    assert!(text.contains("backward traversal"), "{text}");

    // `query --explain`: the planner's decision as one stable JSON
    // object, no evaluation (no result rows, no pair-count footer).
    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "baquedano",
            "l5+/bus",
            "?y",
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.starts_with("{\"pattern\":"), "{json}");
    assert!(json.contains("\"route\":\"bitparallel\""), "{json}");
    assert!(json.contains("\"direction\":\"from_subject\""), "{json}");
    assert!(!json.contains("baquedano\t"), "--explain must not evaluate");

    // `batch --explain`: one JSON object per query line, errors inline.
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "?x l5 ?y\nbaquedano l5+/bus ?y\nnot-enough\n").unwrap();
    let out = cli()
        .args([
            "batch",
            index.to_str().unwrap(),
            queries.to_str().unwrap(),
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), 3, "{json}");
    assert!(lines[0].contains("\"route\":\"fastpath\""), "{json}");
    assert!(lines[1].contains("\"route\":\"bitparallel\""), "{json}");
    assert!(lines[2].contains("\"error\""), "{json}");
}

#[test]
fn cli_failure_modes() {
    let dir = tmpdir("failures");

    // Unknown command.
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());

    // Missing input file.
    let out = cli()
        .args([
            "build",
            "/nonexistent/g.txt",
            dir.join("x.db").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Corrupt index file.
    let bad = dir.join("bad.db");
    std::fs::write(&bad, b"not a database").unwrap();
    let out = cli()
        .args(["query", bad.to_str().unwrap(), "?x", "p", "?y"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // Malformed expression on a valid index: typed parse diagnostic,
    // exit code 2, no backtrace.
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "a p b\n").unwrap();
    let index = dir.join("g.db");
    assert!(cli()
        .args(["build", graph.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    let out = cli()
        .args(["query", index.to_str().unwrap(), "a", "p/(", "?y"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: expression error"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("backtrace"), "{stderr}");

    // Unknown node: same typed treatment.
    let out = cli()
        .args(["query", index.to_str().unwrap(), "nosuch", "p", "?y"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Operational errors keep exit code 1.
    let out = cli()
        .args(["query", "/nonexistent.db", "a", "p", "?y"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Help exits cleanly.
    let out = cli().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// The bundled N-Triples fixture round-trips through build → query →
/// stats, exercising the `.nt` sniffing path of `cmd_build`.
#[test]
fn build_query_ntriples_fixture() {
    let dir = tmpdir("ntriples");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/metro.nt");
    let index = dir.join("metro_nt.db");

    let out = cli()
        .args(["build", fixture.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("indexed 13 edges"));

    // The paper's worked query, §4 / Fig. 6: l5+ then one bus hop.
    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "<baquedano>",
            "<l5>+/<bus>",
            "?y",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<baquedano>\t<santa_ana>"), "{stdout}");
    assert!(stdout.contains("<baquedano>\t<u_de_chile>"), "{stdout}");

    // An inverse-step (2RPQ) query through the CLI.
    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "?x",
            "^<bus>",
            "<santa_ana>",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<u_de_chile>\t<santa_ana>"), "{stdout}");

    let out = cli()
        .args(["stats", index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("edges (base):        13"));
}

/// The `serve` subcommand: a query-per-line session over stdin, with
/// per-query sorted/deduplicated blocks, per-line error isolation, and
/// the metrics registry JSON on demand.
#[test]
fn serve_session_over_stdin() {
    use std::io::Write;
    let dir = tmpdir("serve");
    let graph = dir.join("g.txt");
    std::fs::write(
        &graph,
        "baquedano l5 bellas_artes
         bellas_artes l5 santa_ana
         santa_ana bus u_de_chile
        ",
    )
    .unwrap();
    let index = dir.join("g.db");
    assert!(cli()
        .args(["build", graph.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());

    let mut child = cli()
        .args([
            "serve",
            index.to_str().unwrap(),
            "--workers",
            "2",
            "--metrics",
            "-",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"baquedano l5+/bus ?y\n\
              # a comment line\n\
              ?x l5 santa_ana\n\
              baquedano l5+/( ?y\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("# query 1: baquedano l5+/bus ?y"),
        "{stdout}"
    );
    assert!(stdout.contains("baquedano\tu_de_chile"), "{stdout}");
    assert!(stdout.contains("bellas_artes\tsanta_ana"), "{stdout}");
    assert!(stdout.contains("# 1 pairs"), "{stdout}");
    // The malformed third query fails in isolation.
    assert!(stdout.contains("# error: parse error"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("served 3 queries (2 ok, 1 failed)"),
        "{stderr}"
    );
    // Metrics JSON lands on stderr with the expected sections.
    assert!(stderr.contains("\"plan_cache\""), "{stderr}");
    assert!(stderr.contains("\"latency_us\""), "{stderr}");
}

/// The `batch` subcommand runs a query file through the service and
/// produces byte-deterministic output across thread counts.
#[test]
fn batch_is_deterministic_across_worker_counts() {
    let dir = tmpdir("batch");
    let graph = dir.join("g.txt");
    // A diamond with parallel labels: multi-row answers to sort.
    std::fs::write(&graph, "a p b\na p c\nb p d\nc p d\nd q a\nb q c\n").unwrap();
    let index = dir.join("g.db");
    assert!(cli()
        .args(["build", graph.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap()
        .status
        .success());
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "?x p+ ?y\na p/p ?y\n?x (p|q)+ a\n?x ^p d\n").unwrap();

    let run = |workers: &str| {
        let metrics = dir.join(format!("metrics_{workers}.json"));
        let out = cli()
            .args([
                "batch",
                index.to_str().unwrap(),
                queries.to_str().unwrap(),
                "--workers",
                workers,
                "--metrics",
                metrics.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"result_cache\""), "{json}");
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one, four, "output must not depend on worker count");
    assert!(one.contains("a\td"), "{one}");
}

/// `build` writes the RRPQM01 format; queries over the index are
/// byte-identical under both forced residencies, `stats` reports the
/// residency, and updates keep the format.
#[test]
fn mmap_build_query_roundtrip() {
    let dir = tmpdir("mmap");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/metro.nt");
    let index = dir.join("metro.rpqm");
    let out = cli()
        .args(["build", fixture.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let magic = std::fs::read(&index).unwrap()[..8].to_vec();
    assert_eq!(&magic, b"RRPQM01\0");

    let ask = |extra: &[&str]| {
        let mut args = vec![
            "query",
            index.to_str().unwrap(),
            "<baquedano>",
            "<l5>+/<bus>",
            "?y",
        ];
        args.extend_from_slice(extra);
        let out = cli().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let reference = ask(&[]);
    assert!(
        reference.contains("<baquedano>\t<u_de_chile>"),
        "{reference}"
    );
    assert_eq!(ask(&["--heap"]), reference);
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert_eq!(ask(&["--mmap"]), reference);

    // `stats` surfaces the residency of the open.
    let out = cli()
        .args(["stats", index.to_str().unwrap(), "--heap"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(heap, 0 mapped bytes)"), "{stdout}");

    // Inserting keeps the format, and queries see the committed edge.
    let delta = dir.join("delta.nt");
    std::fs::write(&delta, "<u_de_chile> <l5> <baquedano> .\n").unwrap();
    let out = cli()
        .args(["insert", index.to_str().unwrap(), delta.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let magic = std::fs::read(&index).unwrap()[..8].to_vec();
    assert_eq!(&magic, b"RRPQM01\0", "insert must preserve the format");
    let rows = ask(&[]);
    assert!(rows.contains("<baquedano>\t<u_de_chile>"), "{rows}");
    let out = cli()
        .args([
            "query",
            index.to_str().unwrap(),
            "<u_de_chile>",
            "<l5>",
            "?y",
        ])
        .output()
        .unwrap();
    let rows = String::from_utf8_lossy(&out.stdout);
    assert!(rows.contains("<u_de_chile>\t<baquedano>"), "{rows}");
}

/// Every CLI update is write-ahead logged and persists its epoch: two
/// successive inserts report increasing epochs, leave `<index>.wal`
/// beside the index, and `verify` reports the saved epoch.
#[test]
fn cli_updates_are_logged_and_advance_the_epoch() {
    let dir = tmpdir("epochs");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/metro.nt");
    let index = dir.join("metro.rpqm");
    let out = cli()
        .args(["build", fixture.to_str().unwrap(), index.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let epoch_of = |stdout: &str| -> u64 {
        let rest = &stdout[stdout.find("epoch ").expect(stdout) + 6..];
        rest.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let mut epochs = Vec::new();
    for (i, edge) in ["<x1> <l5> <x2> .", "<x2> <bus> <x3> ."].iter().enumerate() {
        let delta = dir.join(format!("delta{i}.nt"));
        std::fs::write(&delta, format!("{edge}\n")).unwrap();
        let out = cli()
            .args(["insert", index.to_str().unwrap(), delta.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        epochs.push(epoch_of(&String::from_utf8_lossy(&out.stdout)));
    }
    assert!(epochs[0] < epochs[1], "epochs must increase: {epochs:?}");
    let wal = PathBuf::from(format!("{}.wal", index.display()));
    assert!(wal.exists(), "no write-ahead log beside the index");

    let out = cli()
        .args(["verify", index.to_str().unwrap()])
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{report}");
    assert!(
        report.contains(&format!("\"epoch\":{}", epochs[1])),
        "{report}"
    );
    let out = cli()
        .args(["query", index.to_str().unwrap(), "<x1>", "<l5>/<bus>", "?y"])
        .output()
        .unwrap();
    let rows = String::from_utf8_lossy(&out.stdout);
    assert!(rows.contains("<x1>\t<x3>"), "{rows}");
}

/// A malformed N-Triples file is rejected with a positioned error, not
/// silently mis-parsed as whitespace triples.
#[test]
fn malformed_ntriples_is_rejected() {
    let dir = tmpdir("bad_ntriples");
    let bad = dir.join("bad.nt");
    std::fs::write(&bad, "<a> <p> <b> .\n<unterminated\n").unwrap();
    let out = cli()
        .args([
            "build",
            bad.to_str().unwrap(),
            dir.join("x.db").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

/// `stats` prints the same counts for a plain and a sharded build of
/// the metro fixture: base edges, indexed edges, nodes, base predicates
/// and the top predicates by cardinality (summed over the shards).
#[test]
fn stats_counts_agree_for_plain_and_sharded_builds() {
    let dir = tmpdir("stats_shards");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/metro.nt");
    let expected = [
        "edges (base):        13",
        "edges (indexed G^):  26",
        "nodes:               5",
        "predicates (base):   4",
        "top predicates:",
        "  <l1>                     4 edges",
        "  <l5>                     4 edges",
        "  <bus>                    3 edges",
        "  <l2>                     2 edges",
    ];
    for (name, extra) in [("plain.rpqm", &[][..]), ("sharded", &["--shards", "3"][..])] {
        let index = dir.join(name);
        let out = cli()
            .args(["build", fixture.to_str().unwrap(), index.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = cli()
            .args(["stats", index.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{name}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // Everything but the open, shard-layout and byte-size lines.
        let counts: Vec<&str> = stdout
            .lines()
            .filter(|l| {
                !["open:", "shards:", "  shard", "ring bytes", "rpq-only"]
                    .iter()
                    .any(|skip| l.starts_with(skip))
            })
            .collect();
        assert_eq!(counts, expected, "{name}:\n{stdout}");
    }
}

/// `compact` folds a CLI insert into the ring: the checkpointed snapshot
/// verifies at the next epoch and still answers over the new edge.
#[test]
fn compact_folds_the_delta_and_checkpoints_the_next_epoch() {
    let dir = tmpdir("compact");
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/metro.nt");
    let index = dir.join("metro.rpqm");
    let idx = index.to_str().unwrap();
    let run = |args: &[&str]| {
        let out = cli().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    run(&["build", fixture.to_str().unwrap(), idx]);
    let delta = dir.join("delta.txt");
    std::fs::write(&delta, "<x1> <l5> <x2>\n").unwrap();
    let inserted = run(&["insert", idx, delta.to_str().unwrap()]);
    assert!(inserted.contains("at epoch 1 (delta: +1 -0"), "{inserted}");
    let compacted = run(&["compact", idx]);
    assert!(
        compacted.contains("compacted 1 adds and 0 deletes") && compacted.contains("(epoch 2)"),
        "{compacted}"
    );
    let report = run(&["verify", idx]);
    assert!(
        report.contains("\"status\":\"ok\"") && report.contains("\"epoch\":2,"),
        "{report}"
    );
    let rows = run(&["query", idx, "<x1>", "<l5>", "?y"]);
    assert!(rows.contains("<x1>\t<x2>"), "{rows}");
}
