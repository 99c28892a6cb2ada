//! The wire client and the load driver against a live `fgserve`.
//!
//! The server binary comes from `$FGSERVE`, or is built from the repo's
//! workspace into the same target directory as this test.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fg_e2e::driver::run_serving;
use fg_e2e::layers::{check_replies, Dataset};
use fg_e2e::server::Server;
use fg_e2e::stream::{self, workload, Block, Kind, Workload, CONNECTIONS};
use fg_e2e::wire::{self, Conn, Proto, Reply};

const TIMEOUT: Duration = Duration::from_secs(20);

fn fgserve() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(path) = std::env::var_os("FGSERVE") {
            return path.into();
        }
        // .../<target>/<profile>/deps/live-<hash>
        let exe = std::env::current_exe().expect("test binary path");
        let profile_dir = exe
            .parent()
            .and_then(Path::parent)
            .expect("target/<profile>/deps layout");
        let target_dir = profile_dir.parent().expect("target dir");
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut build = Command::new(env!("CARGO"));
        build
            .args([
                "build",
                "--offline",
                "-p",
                "fg-serve",
                "--bin",
                "fgserve",
                "--manifest-path",
            ])
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target_dir);
        if !cfg!(debug_assertions) {
            build.arg("--release");
        }
        assert!(
            build.status().expect("run cargo").success(),
            "building fgserve failed"
        );
        profile_dir.join("fgserve")
    })
}

/// A workload shrunk to a graph that builds and answers in milliseconds.
fn small(name: &str) -> Workload {
    Workload {
        vertices: 600,
        avg_deg: 12,
        warmup_ops: 40,
        replay_ops: 8,
        ..*workload(name).unwrap()
    }
}

fn pools(w: &Workload, seed: u64) -> Vec<Vec<Block>> {
    (0..CONNECTIONS).map(|c| stream::pool(w, seed, c)).collect()
}

#[test]
fn ping_infer_and_infer_seeds_agree_across_protocols() {
    let w = small("seeds_override");
    let Kind::Seeds { seeds, fanout } = w.kind else {
        panic!()
    };
    let server = Server::spawn(fgserve(), &w.server_args(9)).expect("server starts");
    let values: Vec<f32> = (0..seeds * w.in_dim())
        .map(|i| (i % 13) as f32 / 13.0 - 0.5)
        .collect();
    let seed_list: Vec<u64> = (0..seeds as u64)
        .map(|s| s * 7 % w.vertices as u64)
        .collect();

    let mut answers = Vec::new();
    for proto in [Proto::Binary, Proto::Text] {
        let mut conn = Conn::connect(server.addr(), proto, TIMEOUT).unwrap();
        conn.ping().expect("PONG");

        let mut req = Vec::new();
        wire::encode_infer(proto, "gat", 17, "probe-1", &mut req);
        conn.send(&req).unwrap();
        let infer = conn.recv().expect("INFER reply");
        let Reply::Ok { id, class, logits } = &infer else {
            panic!("{proto:?}: INFER answered {infer:?}");
        };
        assert_eq!(id, "probe-1");
        assert_eq!(logits.len(), w.classes);
        assert!((*class as usize) < w.classes);

        req.clear();
        let feats = wire::render_feats(proto, seeds, w.in_dim(), &values);
        let seeds_req = wire::SeedsRequest {
            model: "graphsage",
            seeds: &seed_list,
            fanouts: &fanout,
            sample_seed: 77,
            feats: &feats,
            id: "probe-2",
        };
        wire::encode_seeds(proto, &seeds_req, &mut req);
        conn.send(&req).unwrap();
        let sampled = conn.recv().expect("INFER_SEEDS reply");
        let Reply::Seeds {
            id,
            rows,
            sub_vertices,
            ..
        } = &sampled
        else {
            panic!("{proto:?}: INFER_SEEDS answered {sampled:?}");
        };
        assert_eq!(id, "probe-2");
        assert!(*sub_vertices >= seeds as u64 / 2);
        assert_eq!(rows.iter().map(|r| r.node).collect::<Vec<_>>(), seed_list);

        // An error reply parses as one, with the id echoed and a stable code.
        req.clear();
        wire::encode_infer(proto, "no-such-model", 1, "probe-3", &mut req);
        conn.send(&req).unwrap();
        assert_eq!(
            conn.recv().unwrap(),
            Reply::Err {
                id: "probe-3".into(),
                code: "unknown-model".into()
            }
        );
        let exposition = conn.metrics().expect("METRICS");
        assert!(
            exposition.contains("fgserve_requests_completed_total"),
            "{proto:?}"
        );
        assert!(conn.bytes_in > 0);
        answers.push((infer, sampled));
    }
    // Same request, same bits, whichever protocol carried it.
    assert_eq!(answers[0], answers[1]);

    let mut control = Conn::connect(server.addr(), Proto::Text, TIMEOUT).unwrap();
    control.shutdown().expect("BYE");
    server.wait_exit().expect("clean exit");
}

#[test]
fn driver_runs_are_correct_and_repeat_for_the_same_seed() {
    for name in ["infer_full", "seeds_override", "seeds_text_wide"] {
        let w = small(name);
        let pools = pools(&w, 4);
        let data = Dataset::generate(&w, 4);
        let mut digests = Vec::new();
        for traced in [false, true] {
            let run = run_serving(&w, 4, 1.0, traced, fgserve(), &pools, Instant::now())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(run.failed, 0, "{name}: {:?}", run.errors);
            assert!(run.incorrect.is_empty(), "{name}: {:?}", run.incorrect);
            assert!(run.samples > 0 && run.attempted >= 2 * w.warmup_ops);
            assert!(run.e2e.get("rss_peak_mb").unwrap() > 1.0);
            let checked = check_replies(&w, 4, &data, &run.kept, &pools[0])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                checked >= 32,
                "{name}: only {checked} replies reached the oracle"
            );
            if traced {
                // spans of one request share its id and nest under `op`
                let req = run
                    .spans
                    .iter()
                    .find(|s| s.name == "op")
                    .expect("an op span")
                    .req;
                let names: Vec<_> = run
                    .spans
                    .iter()
                    .filter(|s| s.req == req)
                    .map(|s| s.name)
                    .collect();
                assert_eq!(
                    names,
                    [
                        "op",
                        "client.build",
                        "client.write",
                        "client.wait",
                        "client.read_parse"
                    ]
                );
                assert!(run.layers.get("batcher.batches").unwrap() > 0.0);
                assert_eq!(run.seq_rtt_ms.len(), w.replay_ops as usize);
            }
            digests.push(run.digest);
        }
        assert_eq!(digests[0], digests[1], "{name}: reply digest must repeat");
        let other_seed = run_serving(
            &w,
            5,
            1.0,
            false,
            fgserve(),
            &self::pools(&w, 5),
            Instant::now(),
        )
        .unwrap();
        assert_ne!(
            other_seed.digest, digests[0],
            "{name}: another seed, another stream"
        );
    }
}

#[test]
fn error_replies_count_as_failed_ops_without_latency_samples() {
    // A stand-in `fgserve` that serves a 40-vertex graph whatever it is
    // asked for: most of the workload's nodes are then out of range.
    let dir = std::env::temp_dir().join(format!("fge2e-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("tiny-fgserve.sh");
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\nexec {} serve --addr 127.0.0.1:0 --model all --vertices 40 --classes 8 \
             --avg-deg 4 --noise 56 --hidden 32 --seed 1\n",
            fgserve().display()
        ),
    )
    .unwrap();
    use std::os::unix::fs::PermissionsExt;
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

    let w = small("infer_full");
    let run = run_serving(&w, 1, 1.0, false, &script, &pools(&w, 1), Instant::now())
        .expect("the run completes");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        run.failed > 0 && run.failed < run.attempted,
        "{} of {}",
        run.failed,
        run.attempted
    );
    assert!(
        run.errors.iter().any(|e| e.contains("ERR")),
        "{:?}",
        run.errors
    );
    // failed ops are neither kept nor timed
    assert!(run.kept.iter().all(|k| k.rows[0].node < 40));
}

#[test]
fn a_server_that_dies_is_a_harness_error_with_its_stderr() {
    let w = Workload {
        models: &["no-such-model"],
        ..small("seeds_text_wide")
    };
    let err = run_serving(&w, 1, 1.0, false, fgserve(), &pools(&w, 1), Instant::now())
        .err()
        .expect("the run must not report numbers");
    assert!(err.contains("never printed"), "{err}");
    assert!(err.contains("fgserve stderr"), "{err}");
}
