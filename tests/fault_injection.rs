//! Fault injection: adversarial inputs and starvation budgets against the
//! whole engine. The contract under attack:
//!
//! 1. **No panics.** Malformed or extreme inputs produce `Err`, never a
//!    crash — library crates deny `unwrap`/`expect` outside tests.
//! 2. **Budgets are respected.** The node cap is exact; deadline and
//!    cancellation overshoot is bounded by one check interval of node
//!    expansions ([`Budget::CHECK_INTERVAL`]).
//! 3. **Degradation stays legal.** A budget-truncated search still returns
//!    a true UOV (at worst the initial `Σvᵢ`), verified by the exact
//!    oracle after the fact.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use uov::core::checkpoint::{read_snapshot, CheckpointConfig, CheckpointError};
use uov::core::npc::PartitionInstance;
use uov::core::search::{find_best_uov, initial_uov, search_resume, Objective, SearchConfig};
use uov::core::{Budget, DoneOracle, Exhausted, SearchError};
use uov::driver::{plan_with, PlanConfig};
use uov::isg::{ivec, IVec, IsgError, RectDomain, Stencil};
use uov::loopir::examples;
use uov::storage::{Layout, MappingError, NaturalMap, OvMap};

fn budgeted(budget: Budget) -> SearchConfig {
    SearchConfig {
        budget,
        ..SearchConfig::default()
    }
}

/// PARTITION reductions are the engine's worst case (§3.1: UOV membership
/// is NP-complete). Starve them with a 1 ms deadline: the search must
/// come back immediately with a verified-legal answer, not hang or crash.
#[test]
fn partition_reductions_survive_one_ms_deadline() {
    let instances = [
        vec![3, 1, 1, 2, 2, 1],
        vec![5, 5, 4, 3, 2, 1],
        vec![9, 2, 2, 1],
        vec![13, 11, 9, 7, 2],
    ];
    // (At most 6 values each: the reduction's coordinates grow like 7^m,
    // and the *verification* below uses the exact oracle — itself the
    // NP-hard computation, intractable past m ≈ 6. The deadline, not the
    // instance size, is what this test starves.)
    for values in instances {
        let inst = PartitionInstance::new(values.clone()).expect("positive values");
        let (stencil, _candidate) = inst.reduce().expect("reduction in range");
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(1));
        let res = find_best_uov(&stencil, Objective::ShortestVector, &budgeted(budget))
            .expect("a deadline never turns a valid instance into an error");
        // Degraded or not, the answer must be a true UOV.
        assert!(
            DoneOracle::new(&stencil).is_uov(&res.uov),
            "illegal answer for {values:?}: {}",
            res.uov
        );
        if let Some(d) = &res.degradation {
            assert_eq!(d.reason, Exhausted::Deadline, "{values:?}");
        }
    }
}

/// An already-expired deadline must stop the search within one check
/// interval of node charges — the promised overshoot bound.
#[test]
fn deadline_overshoot_is_bounded_by_one_check_interval() {
    let inst = PartitionInstance::new(vec![8, 7, 6, 5, 4, 3, 2, 1]).expect("positive");
    let (stencil, _) = inst.reduce().expect("in range");
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let res = find_best_uov(&stencil, Objective::ShortestVector, &budgeted(budget))
        .expect("degrades, not errors");
    let d = res.degradation.expect("expired deadline must degrade");
    assert_eq!(d.reason, Exhausted::Deadline);
    assert!(
        d.nodes_at_stop <= Budget::CHECK_INTERVAL,
        "overshoot {} nodes exceeds one check interval",
        d.nodes_at_stop
    );
    assert_eq!(res.uov, initial_uov(&stencil), "no time to improve on Σvᵢ");
}

/// A pre-tripped cancellation token is observed on the very first charge.
#[test]
fn cancellation_token_stops_search_immediately() {
    let inst = PartitionInstance::new(vec![5, 5, 4, 3, 2, 1]).expect("positive");
    let (stencil, _) = inst.reduce().expect("in range");
    let token = Arc::new(AtomicBool::new(true));
    let budget = Budget::unlimited().with_cancel_token(token.clone());
    let res = find_best_uov(&stencil, Objective::ShortestVector, &budgeted(budget))
        .expect("cancellation degrades, not errors");
    let d = res.degradation.expect("tripped token must degrade");
    assert_eq!(d.reason, Exhausted::Cancelled);
    assert!(d.nodes_at_stop <= Budget::CHECK_INTERVAL);
    assert!(DoneOracle::new(&stencil).is_uov(&res.uov));
    // Un-tripping after the fact changes nothing about the returned record.
    token.store(false, Ordering::Relaxed);
    assert_eq!(d.reason, Exhausted::Cancelled);
}

/// Near-`i64::MAX` coordinates: every layer reports overflow as an error
/// value instead of panicking (debug builds) or wrapping (release builds).
#[test]
fn extreme_coordinates_error_instead_of_panicking() {
    let huge = i64::MAX - 1;

    // Stencil construction itself accepts the coordinates…
    let s = Stencil::new(vec![ivec![huge, 0], ivec![huge, huge]]).expect("lex-positive");
    // …but the search's setup arithmetic (Σvᵢ, ‖v‖², functional bounds)
    // overflows and must say so.
    let res = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default());
    assert!(
        matches!(res, Err(SearchError::Isg(IsgError::Overflow { .. }))),
        "expected overflow, got {res:?}"
    );

    // i64::MIN is unnegatable: gcd/content paths must reject it.
    assert!(ivec![i64::MIN, 0].try_content().is_err());

    // A domain too large to address: mapping construction reports it.
    let vast = RectDomain::new(ivec![0, 0], ivec![huge, huge]);
    assert!(matches!(
        NaturalMap::try_new(&vast),
        Err(MappingError::AllocationTooLarge)
    ));
    // An axis-collapsing OV still fits in the address space, but a
    // diagonal one needs ~2·i64::MAX classes — typed error, no wrap.
    assert!(OvMap::try_new(&vast, ivec![1, 0], Layout::Interleaved).is_ok());
    assert!(matches!(
        OvMap::try_new(&vast, ivec![1, 1], Layout::Interleaved),
        Err(MappingError::AllocationTooLarge | MappingError::Isg(_))
    ));
}

/// Degenerate stencils: empty, zero vectors, lex-negative vectors, and
/// dimension mismatches are rejected as typed errors.
#[test]
fn degenerate_stencils_are_rejected_not_crashed() {
    assert!(Stencil::new(vec![]).is_err(), "empty stencil");
    assert!(Stencil::new(vec![ivec![0, 0]]).is_err(), "zero vector");
    assert!(Stencil::new(vec![ivec![-1, 2]]).is_err(), "lex-negative");

    // A single-vector stencil is its own optimal UOV.
    let s = Stencil::new(vec![ivec![1, 0]]).expect("valid");
    let res =
        find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).expect("in range");
    assert_eq!(res.uov, ivec![1, 0]);

    // Mapping with a vector of the wrong dimension: typed error.
    let dom = RectDomain::grid(4, 4);
    assert!(matches!(
        OvMap::try_new(&dom, ivec![1, 0, 0], Layout::Interleaved),
        Err(MappingError::DimMismatch {
            domain: 2,
            vector: 3
        })
    ));
    assert!(matches!(
        OvMap::try_new(&dom, ivec![0, 0], Layout::Interleaved),
        Err(MappingError::ZeroVector)
    ));
}

/// The end-to-end driver under a starvation deadline: the plan still
/// materialises, every statement keeps a legal UOV, and the degradations
/// are reported per statement.
#[test]
fn driver_degrades_gracefully_under_starvation() {
    for nest in [
        examples::fig1_nest(16, 16),
        examples::stencil5_nest(8, 32),
        examples::psm_nest(12, 12),
    ] {
        let config = PlanConfig {
            layout: Layout::Interleaved,
            budget: Budget::unlimited().with_deadline(Duration::ZERO),
            ..PlanConfig::default()
        };
        let p = plan_with(&nest, &config).expect("starvation must not fail the plan");
        for stmt in p.statements.iter().flatten() {
            assert!(
                DoneOracle::new(&stmt.stencil).is_uov(&stmt.uov),
                "driver kept an illegal UOV under starvation"
            );
            let d = stmt
                .degradation
                .as_ref()
                .expect("zero deadline must degrade");
            assert!(d.nodes_at_stop <= Budget::CHECK_INTERVAL);
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot corruption: every damaged checkpoint is a typed
// `CheckpointError`, never a panic, a hang, or a silently wrong resume.
// ---------------------------------------------------------------------

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("uov_fault_{name}_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Bytes of a genuine snapshot from a real (truncated) checkpointed run.
fn real_snapshot_bytes(name: &str) -> Vec<u8> {
    let s = Stencil::new(vec![ivec![1, -2], ivec![1, 0], ivec![1, 2]]).expect("valid");
    let path = tmp_path(name);
    let config = SearchConfig {
        budget: Budget::unlimited().with_max_nodes(6),
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            interval: 1,
        }),
        ..SearchConfig::default()
    };
    let res = find_best_uov(&s, Objective::ShortestVector, &config).expect("in range");
    assert_eq!(res.checkpoint_error, None, "snapshot write must succeed");
    let bytes = std::fs::read(&path).expect("snapshot file exists");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn truncated_snapshots_are_typed_errors() {
    let bytes = real_snapshot_bytes("trunc");
    let path = tmp_path("trunc_cut");
    for cut in [bytes.len() / 2, bytes.len() - 4, 3, 0] {
        std::fs::write(&path, &bytes[..cut]).expect("write test file");
        match read_snapshot(&path) {
            Err(CheckpointError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_sections_fail_their_crc() {
    let bytes = real_snapshot_bytes("flip");
    let path = tmp_path("flip_mut");
    // Flip one bit inside the last section's CRC trailer: the CRC no
    // longer matches its section.
    let mut crc_flip = bytes.clone();
    let n = crc_flip.len();
    crc_flip[n - 3] ^= 0x10;
    std::fs::write(&path, &crc_flip).expect("write test file");
    assert!(
        matches!(
            read_snapshot(&path),
            Err(CheckpointError::CrcMismatch { .. })
        ),
        "CRC-trailer flip must be a CrcMismatch"
    );
    // Flip one bit of every byte in turn: decoding must never panic and
    // never silently accept a snapshot that differs from the original.
    let clean = read_snapshot_bytes(&bytes);
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 1;
        std::fs::write(&path, &mutated).expect("write test file");
        if let Ok(snap) = read_snapshot(&path) {
            assert_ne!(
                snap.fingerprint, clean.fingerprint,
                "byte {i}: flip decoded Ok without changing the fingerprint"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Decode a snapshot from an in-memory byte image via a scratch file.
fn read_snapshot_bytes(bytes: &[u8]) -> uov::core::checkpoint::Snapshot {
    let path = tmp_path("scratch_decode");
    std::fs::write(&path, bytes).expect("write test file");
    let snap = read_snapshot(&path).expect("pristine snapshot decodes");
    let _ = std::fs::remove_file(&path);
    snap
}

#[test]
fn wrong_version_header_is_rejected() {
    let mut bytes = real_snapshot_bytes("version");
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let path = tmp_path("version_mut");
    std::fs::write(&path, &bytes).expect("write test file");
    assert!(matches!(
        read_snapshot(&path),
        Err(CheckpointError::UnsupportedVersion(99))
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn damaged_magic_is_rejected() {
    let mut bytes = real_snapshot_bytes("magic");
    bytes[0] = b'X';
    let path = tmp_path("magic_mut");
    std::fs::write(&path, &bytes).expect("write test file");
    assert!(matches!(
        read_snapshot(&path),
        Err(CheckpointError::BadMagic)
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_snapshot_file_is_a_typed_io_error() {
    let path = tmp_path("does_not_exist");
    assert!(matches!(
        read_snapshot(&path),
        Err(CheckpointError::Io { .. })
    ));
}

#[test]
fn snapshot_from_a_different_stencil_cannot_resume() {
    let s = Stencil::new(vec![ivec![1, -2], ivec![1, 0], ivec![1, 2]]).expect("valid");
    let path = tmp_path("mismatch");
    let config = SearchConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.clone(),
            interval: 4,
        }),
        ..SearchConfig::default()
    };
    let res = find_best_uov(&s, Objective::ShortestVector, &config).expect("in range");
    assert_eq!(res.checkpoint_error, None);

    // Different stencil — refused.
    let other = Stencil::new(vec![ivec![1, 0], ivec![0, 1]]).expect("valid");
    let err = search_resume(
        &path,
        &other,
        Objective::ShortestVector,
        &SearchConfig::default(),
    )
    .expect_err("a foreign snapshot must be refused");
    assert!(matches!(
        err,
        SearchError::Checkpoint(CheckpointError::StencilMismatch { .. })
    ));

    // Same stencil, different objective — also refused: the snapshot's
    // costs would be meaningless under the other objective.
    let grid = RectDomain::grid(4, 4);
    let err = search_resume(
        &path,
        &s,
        Objective::KnownBounds(&grid),
        &SearchConfig::default(),
    )
    .expect_err("an objective change must be refused");
    assert!(matches!(
        err,
        SearchError::Checkpoint(CheckpointError::StencilMismatch { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Kill -9 and resume: the crash-safety acceptance test, in-process.
// ---------------------------------------------------------------------

/// The kill-loop workload: 55,984 nodes, so with the first snapshot at
/// 2,000 nodes and each later gap as long as the run so far, a search
/// writes five snapshots before it completes. The kill test kills each
/// child once it has written one, and the final resumed completion stays
/// cheap.
fn kill_workload() -> Stencil {
    Stencil::new(vec![
        ivec![5, 0, 0],
        ivec![0, 5, 0],
        ivec![0, 0, 5],
        ivec![1, 2, 3],
    ])
    .expect("static stencil is valid")
}

fn kill_workload_config(path: &Path) -> SearchConfig {
    SearchConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.to_path_buf(),
            interval: 2_000,
        }),
        ..SearchConfig::default()
    }
}

/// Child half of the kill test: inert unless `UOV_CKPT_CHILD` names a
/// snapshot path, in which case it runs (or resumes) the checkpointed
/// search and exits. The parent test SIGKILLs this process mid-run.
#[test]
fn checkpoint_child_runner() {
    let Ok(path) = std::env::var("UOV_CKPT_CHILD") else {
        return;
    };
    let path = PathBuf::from(path);
    let s = kill_workload();
    let config = kill_workload_config(&path);
    let res = if path.exists() {
        search_resume(&path, &s, Objective::ShortestVector, &config)
    } else {
        find_best_uov(&s, Objective::ShortestVector, &config)
    }
    .expect("child search must succeed");
    println!("RESULT uov={} cost={}", res.uov, res.cost);
}

#[test]
fn sigkilled_and_resumed_search_matches_clean_run() {
    use std::process::{Command, Stdio};
    let clean = find_best_uov(
        &kill_workload(),
        Objective::ShortestVector,
        &SearchConfig::default(),
    )
    .expect("in range");

    let exe = std::env::current_exe().expect("test binary path");
    let path = tmp_path("sigkill");
    // Progress on disk: each snapshot a child writes counts more nodes than
    // the last, so its bytes differ. Comparing bytes, not decoded
    // snapshots, keeps the polling cheap in debug builds.
    let progress = || std::fs::read(&path).ok();
    let mut kills = 0;
    for _ in 0..6 {
        let before = progress();
        let mut child = Command::new(&exe)
            .args(["--exact", "checkpoint_child_runner", "--nocapture"])
            .env("UOV_CKPT_CHILD", &path)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn child test process");
        // Kill each child once it has written a snapshot of its own, so a
        // kill lands mid-run and leaves a snapshot in every build profile.
        let deadline = Instant::now() + Duration::from_secs(60);
        let finished = loop {
            if child.try_wait().expect("poll child").is_some() {
                break true;
            }
            if progress() != before {
                break false;
            }
            assert!(Instant::now() < deadline, "child wrote no snapshot in 60 s");
            std::thread::sleep(Duration::from_millis(1));
        };
        if finished {
            break;
        }
        child.kill().expect("SIGKILL child"); // SIGKILL on unix
        if child.wait().expect("reap child").success() {
            break; // finished before the signal arrived
        }
        kills += 1;
    }
    assert!(
        kills >= 1,
        "workload finished before any kill landed; grow kill_workload()"
    );
    // Finish whatever work remains from the last snapshot a killed child
    // wrote.
    let resumed = search_resume(
        &path,
        &kill_workload(),
        Objective::ShortestVector,
        &kill_workload_config(&path),
    )
    .expect("snapshot of a killed run must resume");
    assert_eq!(
        (resumed.uov.clone(), resumed.cost),
        (clean.uov.clone(), clean.cost),
        "kill -9 and resume must be byte-identical to the clean run"
    );
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Planning-service protocol faults, against a *live* server: every
// adversarial byte stream must produce a typed error frame or a clean
// connection drop — never a worker panic — and the server must keep
// serving well-formed clients afterwards.
// ---------------------------------------------------------------------

mod service_faults {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    use uov::isg::{ivec, Stencil};
    use uov::service::proto::{
        self, encode_frame, read_frame, ObjectiveSpec, PlanRequest, HEADER_LEN, MAGIC, MAX_PAYLOAD,
    };
    use uov::service::{serve, Client, ServerConfig, ServerHandle};

    fn test_server() -> ServerHandle {
        serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                // Short idle horizon (~0.5 s) so the half-open test
                // observes the reap without stalling the suite.
                idle_ticks: 5,
                ..ServerConfig::default()
            },
        )
        .expect("bind test server")
    }

    fn raw_conn(server: &ServerHandle) -> TcpStream {
        let s = TcpStream::connect(server.endpoint()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        s
    }

    fn valid_request_frame() -> Vec<u8> {
        let req = PlanRequest {
            stencil: Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])
                .expect("valid stencil"),
            objective: ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: 0,
        };
        encode_frame(proto::kind::REQ_PLAN, &req.encode())
    }

    /// The server survived an attack iff a fresh well-formed client still
    /// gets a correct answer and no worker ever panicked.
    fn assert_still_serving(server: &ServerHandle) {
        let mut client = Client::connect(server.endpoint()).expect("post-attack connect");
        let resp = client
            .plan(&PlanRequest {
                stencil: Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])
                    .expect("valid stencil"),
                objective: ObjectiveSpec::ShortestVector,
                deadline_ms: 0,
                flags: 0,
            })
            .expect("the server must keep serving after an attack");
        assert_eq!(resp.uov, ivec![1, 1]);
        assert_eq!(server.stats().panics, 0, "a worker panicked");
    }

    /// Truncated frames at every interesting cut point: mid-magic,
    /// mid-header, mid-payload, and just short of the CRC. Each one is a
    /// clean drop on the server side.
    #[test]
    fn truncated_frames_are_dropped_not_panicked() {
        let server = test_server();
        let frame = valid_request_frame();
        for cut in [1, 3, HEADER_LEN - 1, HEADER_LEN + 2, frame.len() - 1] {
            let mut conn = raw_conn(&server);
            conn.write_all(&frame[..cut]).expect("write truncated");
            // Half-close so the server's next read sees EOF mid-frame.
            conn.shutdown(std::net::Shutdown::Write).expect("shutdown");
            let mut sink = Vec::new();
            let _ = conn.read_to_end(&mut sink); // error frame or clean EOF
        }
        assert_still_serving(&server);
        server.shutdown();
        server.join();
    }

    /// Flip one bit in every byte of a valid frame in turn. The CRC (or a
    /// structural check it protects) must reject each mutant: the client
    /// never reads a RESP_PLAN, and the server never panics.
    #[test]
    fn bit_flips_never_yield_a_plan_response() {
        let server = test_server();
        let frame = valid_request_frame();
        for i in 0..frame.len() {
            let mut mutant = frame.clone();
            mutant[i] ^= 1;
            let mut conn = raw_conn(&server);
            if conn.write_all(&mutant).is_err() {
                continue; // server already dropped us — fine
            }
            let _ = conn.shutdown(std::net::Shutdown::Write);
            // A clean drop (Ok(None) / Err) is also acceptable; only a
            // successful plan response would be a contract violation.
            if let Ok(Some(reply)) = read_frame(&mut conn) {
                assert_eq!(
                    reply.kind,
                    proto::kind::RESP_ERROR,
                    "byte {i}: a corrupted frame got a non-error response"
                );
            }
        }
        assert_still_serving(&server);
        server.shutdown();
        server.join();
    }

    /// Wrong magic and unsupported version headers are protocol errors:
    /// typed error frame or drop, counted by the server, no panic.
    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let server = test_server();

        let mut bad_magic = valid_request_frame();
        bad_magic[..4].copy_from_slice(b"EVIL");
        let mut bad_version = valid_request_frame();
        bad_version[4..6].copy_from_slice(&0xFFFFu16.to_le_bytes());

        for attack in [bad_magic, bad_version] {
            let mut conn = raw_conn(&server);
            conn.write_all(&attack).expect("write attack");
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let mut sink = Vec::new();
            let _ = conn.read_to_end(&mut sink);
        }
        assert!(
            server.stats().protocol_errors >= 2,
            "attacks must be counted as protocol errors"
        );
        assert_still_serving(&server);
        server.shutdown();
        server.join();
    }

    /// A length prefix far beyond `MAX_PAYLOAD` must be rejected from the
    /// 11 header bytes alone — no payload allocation, no read loop. The
    /// attacker sends *only* the header; a server that tried to read (or
    /// allocate) 4 GiB would hang past the read deadline below.
    #[test]
    fn oversized_length_prefix_is_rejected_from_the_header_alone() {
        let server = test_server();
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&proto::VERSION.to_le_bytes());
        header.push(proto::kind::REQ_PLAN);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        const { assert!(u32::MAX > MAX_PAYLOAD) };

        let mut conn = raw_conn(&server);
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        conn.write_all(&header).expect("write header");
        // Deliberately no payload and no EOF: the rejection must come
        // from the header, within the read deadline.
        let mut sink = [0u8; 64];
        match conn.read(&mut sink) {
            Ok(0) => {} // dropped — fine
            Ok(_) => {} // typed error frame — fine
            Err(e) => panic!("server hung on an oversized prefix: {e}"),
        }
        assert_still_serving(&server);
        server.shutdown();
        server.join();
    }

    /// A half-open connection (client connects, then goes silent) is
    /// reaped by the idle horizon instead of pinning a worker forever.
    #[test]
    fn half_open_connections_are_reaped() {
        let server = test_server();
        let conn = raw_conn(&server); // never writes
                                      // idle_ticks = 5 ⇒ reap after ~0.5 s of silence.
        std::thread::sleep(Duration::from_millis(1500));
        // The server closed its side: our next read sees EOF.
        let mut probe = conn;
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set timeout");
        let mut sink = [0u8; 8];
        match probe.read(&mut sink) {
            Ok(0) => {} // EOF — reaped
            Ok(n) => panic!("unexpected {n} bytes from a silent connection"),
            Err(e) => panic!("connection not reaped within the idle horizon: {e}"),
        }
        assert!(
            server.stats().idle_timeouts >= 1,
            "the reap must be counted as an idle timeout"
        );
        assert_still_serving(&server);
        server.shutdown();
        server.join();
    }

    /// A slow-loris peer trickling one header byte at a time slower than
    /// a full frame can form is cut by the read deadline: progress is
    /// only *completed frames*, so the drip never refreshes the idle
    /// clock, and the connection is reaped while a well-formed client on
    /// the same server keeps being served.
    #[test]
    fn slow_loris_header_drip_is_cut_by_the_read_deadline() {
        let server = test_server(); // idle_ticks = 5 ⇒ ~0.5 s deadline
        let frame = valid_request_frame();
        let mut conn = raw_conn(&server);
        let start = std::time::Instant::now();
        let mut cut = false;
        for byte in frame.iter().take(8) {
            if conn.write_all(std::slice::from_ref(byte)).is_err() {
                cut = true; // server already closed on us — the defense worked
                break;
            }
            std::thread::sleep(Duration::from_millis(250));
            if start.elapsed() > Duration::from_secs(5) {
                break;
            }
        }
        if !cut {
            // The drip finished its 8 bytes; the server must still have
            // reaped us (EOF on read), not parked the partial header.
            conn.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set timeout");
            let mut sink = [0u8; 8];
            match conn.read(&mut sink) {
                Ok(0) => {} // EOF — reaped
                Ok(_) => {} // error frame — also a cut
                Err(e) => panic!("slow-loris drip was not reaped: {e}"),
            }
        }
        assert!(
            server.stats().idle_timeouts >= 1,
            "the slow-loris cut must be counted as an idle timeout"
        );
        assert_still_serving(&server);
        server.shutdown();
        server.join();
    }

    /// Garbage *after* a valid frame on the same connection: the first
    /// request is answered, the trailing garbage is a typed drop.
    #[test]
    fn garbage_after_a_valid_frame_is_contained() {
        let server = test_server();
        let mut conn = raw_conn(&server);
        let mut bytes = valid_request_frame();
        bytes.extend_from_slice(b"\xde\xad\xbe\xef then some trailing junk");
        conn.write_all(&bytes).expect("write");
        let _ = conn.shutdown(std::net::Shutdown::Write);
        let first = read_frame(&mut conn).expect("first frame answers");
        let reply = first.expect("response present");
        assert_eq!(
            reply.kind,
            proto::kind::RESP_PLAN,
            "valid request must be served"
        );
        // Whatever follows is an error frame or EOF, never a hang/panic.
        let mut sink = Vec::new();
        let _ = conn.read_to_end(&mut sink);
        assert_still_serving(&server);
        server.shutdown();
        server.join();
    }
}

fn lex_positive_vec(dim: usize, bound: i64) -> impl Strategy<Value = IVec> {
    prop::collection::vec(-bound..=bound, dim)
        .prop_map(IVec::from)
        .prop_filter("lexicographically positive", |v| v.is_lex_positive())
}

fn stencil_2d() -> impl Strategy<Value = Stencil> {
    prop::collection::vec(lex_positive_vec(2, 4), 1..6)
        .prop_map(|vs| Stencil::new(vs).expect("validated"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any node cap, any stencil: the search returns (never panics) and
    /// whatever it returns is a true UOV. The node cap is exact, so the
    /// recorded stop point never exceeds cap + 1.
    #[test]
    fn starved_search_is_always_legal(s in stencil_2d(), cap in 1u64..200) {
        let budget = Budget::unlimited().with_max_nodes(cap);
        let res = find_best_uov(&s, Objective::ShortestVector, &budgeted(budget))
            .expect("small coordinates cannot overflow");
        prop_assert!(DoneOracle::new(&s).is_uov(&res.uov));
        if let Some(d) = &res.degradation {
            prop_assert_eq!(d.reason, Exhausted::Nodes);
            prop_assert!(d.nodes_at_stop <= cap + 1, "node cap is exact");
        }
    }

    /// Budgeted and unbudgeted searches agree whenever the budget did not
    /// actually bind — degradation is the *only* way answers may differ.
    #[test]
    fn generous_budget_changes_nothing(s in stencil_2d()) {
        let exact = find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default())
            .expect("in range");
        let budget = Budget::unlimited()
            .with_deadline(Duration::from_secs(120))
            .with_max_nodes(u64::MAX)
            .with_max_memo_entries(usize::MAX);
        let roomy = find_best_uov(&s, Objective::ShortestVector, &budgeted(budget))
            .expect("in range");
        prop_assert!(roomy.degradation.is_none());
        prop_assert_eq!(exact.cost, roomy.cost);
    }

    /// Memo-capped oracle queries: either a definitive answer or a typed
    /// exhaustion — and the raw query is the one place exhaustion is an
    /// error, because there is no legal fallback for a membership bit.
    #[test]
    fn memo_capped_oracle_never_lies(s in stencil_2d(), w in lex_positive_vec(2, 6)) {
        let oracle = DoneOracle::new(&s);
        let budget = Budget::unlimited().with_max_memo_entries(4);
        match oracle.is_uov_budgeted(&w, &budget) {
            Ok(answer) => prop_assert_eq!(answer, oracle.is_uov(&w), "budget changed the answer"),
            Err(SearchError::Exhausted(reason)) => prop_assert_eq!(reason, Exhausted::Memo),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Resilience-fabric faults: stale sockets across restarts, malformed
// frames landing in the server's per-class counters, cache eviction
// racing in-flight searches, and the watchdog cutting wedged workers.
// ---------------------------------------------------------------------

mod resilience_faults {
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use uov::core::npc::PartitionInstance;
    use uov::core::search::{find_best_uov, SearchConfig};
    use uov::isg::{ivec, Stencil};
    use uov::service::proto::{self, encode_frame, ObjectiveSpec, PlanRequest, HEADER_LEN, MAGIC};
    use uov::service::{serve, Client, PlanCache, ServerConfig};

    fn fig1_request() -> PlanRequest {
        PlanRequest {
            stencil: Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]])
                .expect("valid stencil"),
            objective: ObjectiveSpec::ShortestVector,
            deadline_ms: 0,
            flags: 0,
        }
    }

    /// A long-lived client survives a full server bounce on the same
    /// port: the first request after the restart hits the stale socket,
    /// reconnects once transparently, and succeeds — no caller-visible
    /// error, no double-send (the retry fires only when no response
    /// frame was received).
    #[test]
    fn client_reconnects_once_across_a_server_restart() {
        let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let endpoint = server.endpoint().to_string();
        let mut client = Client::connect(&endpoint).expect("connect");
        let before = client.plan(&fig1_request()).expect("first plan");

        server.shutdown();
        server.join();
        // Same port, fresh process state (SO_REUSEADDR makes the rebind
        // immediate after a graceful drain).
        let server = serve(&endpoint, ServerConfig::default()).expect("rebind same port");

        let after = client
            .plan(&fig1_request())
            .expect("stale socket must heal with one transparent reconnect");
        assert_eq!(before.uov, after.uov);
        assert_eq!(before.certificate_hash, after.certificate_hash);
        server.shutdown();
        server.join();
    }

    /// Each malformed-frame class lands in its own server counter,
    /// readable over the wire via the `Stats` frame: CRC damage, wrong
    /// magic, unsupported version, oversized length prefix.
    #[test]
    fn malformed_frame_classes_are_counted_and_exposed() {
        let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let valid = encode_frame(proto::kind::REQ_PLAN, &fig1_request().encode());

        // CRC flip: damage one payload byte; header still parses.
        let mut crc_flip = valid.clone();
        let at = HEADER_LEN + 2;
        crc_flip[at] ^= 0x01;
        // Wrong magic.
        let mut bad_magic = valid.clone();
        bad_magic[..4].copy_from_slice(b"EVIL");
        // Unsupported version.
        let mut bad_version = valid.clone();
        bad_version[4..6].copy_from_slice(&0xFFFFu16.to_le_bytes());
        // Hostile length prefix (header only, no payload follows).
        let mut oversized = Vec::new();
        oversized.extend_from_slice(MAGIC);
        oversized.extend_from_slice(&proto::VERSION.to_le_bytes());
        oversized.push(proto::kind::REQ_PLAN);
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());

        for attack in [&crc_flip, &bad_magic, &bad_version, &oversized] {
            let mut conn = TcpStream::connect(server.endpoint()).expect("connect");
            conn.write_all(attack).expect("write attack");
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut conn, &mut sink);
        }

        let mut client = Client::connect(server.endpoint()).expect("connect");
        let stats = client.stats().expect("stats frame").server;
        assert!(stats.crc_failures >= 1, "CRC flip not counted: {stats:?}");
        assert!(stats.bad_magic >= 1, "bad magic not counted: {stats:?}");
        assert!(stats.bad_version >= 1, "bad version not counted: {stats:?}");
        assert!(
            stats.oversized_frames >= 1,
            "oversized prefix not counted: {stats:?}"
        );
        assert!(
            stats.protocol_errors >= 4,
            "aggregate must cover every class: {stats:?}"
        );
        assert_eq!(stats.panics, 0);
        server.shutdown();
        server.join();
    }

    /// LRU eviction racing an in-flight single-flight search: a tiny
    /// cache is churned by a flood of distinct problems while a slow
    /// leader holds a flight open and followers wait on it. Everyone
    /// must get the same correct answer — the flight table, not LRU
    /// residency, is what coalesces waiters.
    #[test]
    fn eviction_while_a_flight_is_open_stays_consistent() {
        let cache = Arc::new(PlanCache::new(2));
        let release = Arc::new(AtomicBool::new(false));

        let solve = |stencil: &Stencil, objective: &ObjectiveSpec| {
            find_best_uov(stencil, objective.as_objective(), &SearchConfig::default())
                .map_err(|e| e.to_string())
        };

        let slow_stencil =
            Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, 1]]).expect("valid");
        let leader = {
            let cache = Arc::clone(&cache);
            let release = Arc::clone(&release);
            let stencil = slow_stencil.clone();
            std::thread::spawn(move || {
                cache.plan(&stencil, &ObjectiveSpec::ShortestVector, |s, o| {
                    // Hold the flight open until the flood is done.
                    while !release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    solve(s, o)
                })
            })
        };
        // The leader has registered its flight once the miss is counted.
        while cache.stats().misses == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }

        let followers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let stencil = slow_stencil.clone();
                std::thread::spawn(move || {
                    cache.plan(&stencil, &ObjectiveSpec::ShortestVector, solve)
                })
            })
            .collect();

        // Churn the 2-entry LRU with distinct problems while the flight
        // is open (k ≥ 2: k = 1 would be the leader's own problem and
        // join its flight instead of churning the LRU).
        for k in 2..=20i64 {
            let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1], ivec![1, k]]).expect("valid");
            let planned = cache
                .plan(&s, &ObjectiveSpec::ShortestVector, solve)
                .expect("flood plan");
            assert_eq!(planned.uov, ivec![1, k], "flood problem {k}");
        }
        release.store(true, Ordering::SeqCst);

        let lead = leader.join().expect("leader thread").expect("leader plan");
        assert_eq!(lead.uov, ivec![1, 1]);
        for f in followers {
            let got = f.join().expect("follower thread").expect("follower plan");
            assert_eq!(got.uov, lead.uov);
            assert_eq!(got.cost, lead.cost);
        }
        let stats = cache.stats();
        assert!(
            stats.coalesced >= 1,
            "followers must have coalesced onto the flight: {stats:?}"
        );
    }

    /// A request whose search would run for minutes (a PARTITION
    /// reduction with an unlimited deadline) wedges its worker; the
    /// watchdog must trip the request's cancellation token and the
    /// server must answer with a certified degraded plan instead of
    /// pinning the worker forever.
    #[test]
    fn watchdog_cancels_a_wedged_request() {
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                wedge_timeout: Duration::from_millis(300),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let inst = PartitionInstance::new(vec![5, 5, 4, 3, 2, 1]).expect("positive");
        let (stencil, _) = inst.reduce().expect("reduction");
        let mut client = Client::connect(server.endpoint()).expect("connect");
        let resp = client
            .plan(&PlanRequest {
                stencil,
                objective: ObjectiveSpec::ShortestVector,
                deadline_ms: 0, // unlimited: only the watchdog can cut this
                flags: 0,
            })
            .expect("wedged request must still be answered");
        assert_ne!(
            resp.degradation,
            uov::service::DegradationCode::None,
            "a watchdog cut must be reported as degradation"
        );
        // The degraded answer still carries a server-side certificate.
        assert_ne!(resp.certificate_hash, 0);
        let stats = client.stats().expect("stats").server;
        assert!(
            stats.watchdog_cancels >= 1,
            "watchdog never fired: {stats:?}"
        );
        // The worker survived: the next (easy) request is served.
        let quick = client.plan(&fig1_request()).expect("post-wedge plan");
        assert_eq!(quick.uov, ivec![1, 1]);
        server.shutdown();
        server.join();
    }
}

// ---------------------------------------------------------------------
// Dense-engine fault injection: cancellation and worker panics must
// leave a resumable snapshot with a coherent PATHSET store, and
// near-i64::MAX coordinates must route to the spill tier instead of
// overflowing the dense window arithmetic.
// ---------------------------------------------------------------------

mod dense_faults {
    use super::*;
    use std::collections::HashMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;
    use uov::core::checkpoint::{read_snapshot as read_snap, Snapshot};
    use uov::core::{ConeMemo, MaskTable, Window};
    use uov::isg::IterationDomain;

    /// PATHSET-store coherence of a decoded snapshot: every live frontier
    /// entry's offset must exist in the known map with a superset mask.
    /// An orphaned frontier entry (offset missing, or carrying bits the
    /// store never recorded) would expand from state the resume cannot
    /// reconstruct.
    fn assert_no_orphaned_pathset_entries(snap: &Snapshot, context: &str) {
        let known: HashMap<&IVec, u64> = snap.known.iter().map(|(w, m)| (w, *m)).collect();
        for (cost, w, mask) in &snap.frontier {
            let Some(&stored) = known.get(w) else {
                panic!("{context}: frontier entry {w} (cost {cost}) missing from known map");
            };
            assert_eq!(
                stored & mask,
                *mask,
                "{context}: frontier mask {mask:#x} at {w} not recorded in known mask {stored:#x}"
            );
        }
    }

    /// Budget cancellation mid-sweep: a token tripped while the search is
    /// expanding leaves (a) a decodable snapshot with no orphaned PATHSET
    /// entries and (b) a state that resumes to the byte-identical final
    /// answer of an uninterrupted run.
    #[test]
    fn cancellation_mid_sweep_leaves_resumable_state() {
        let s = Stencil::new(vec![
            ivec![1, -2],
            ivec![1, -1],
            ivec![1, 0],
            ivec![1, 1],
            ivec![1, 2],
        ])
        .expect("valid");
        let reference =
            find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).expect("clean");
        let token = Arc::new(AtomicBool::new(false));
        let tripper = {
            let token = Arc::clone(&token);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(300));
                token.store(true, Ordering::Relaxed);
            })
        };
        let path = tmp_path("cancel_resumable");
        let config = SearchConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                interval: 1,
            }),
            ..budgeted(Budget::unlimited().with_cancel_token(Arc::clone(&token)))
        };
        let cut = find_best_uov(&s, Objective::ShortestVector, &config)
            .expect("cancellation degrades, not errors");
        tripper.join().expect("tripper thread");
        assert_eq!(cut.checkpoint_error, None, "snapshot write failed");
        // Whether the token landed mid-sweep or after completion, the
        // final snapshot must exist, decode, and be internally coherent.
        let snap = read_snap(&path).expect("cancelled run must leave a valid snapshot");
        assert_no_orphaned_pathset_entries(&snap, "cancelled");
        let resumed = search_resume(
            &path,
            &s,
            Objective::ShortestVector,
            &SearchConfig::default(),
        )
        .expect("cancelled snapshot must resume");
        assert_eq!(
            (resumed.uov, resumed.cost),
            (reference.uov, reference.cost),
            "resume after cancellation diverged"
        );
        assert!(resumed.stats.complete);
        let _ = std::fs::remove_file(&path);
    }

    /// Deterministic mid-sweep variant: a node-cap cut at every depth from
    /// 1 to 30 leaves a coherent snapshot — the orphan check runs against
    /// snapshots whose frontiers are provably non-empty, not just the
    /// empty-frontier final states.
    #[test]
    fn node_cut_snapshots_never_orphan_pathset_entries() {
        let s = Stencil::new(vec![ivec![1, -2], ivec![1, 0], ivec![1, 2]]).expect("valid");
        let reference =
            find_best_uov(&s, Objective::ShortestVector, &SearchConfig::default()).expect("clean");
        let mut saw_live_frontier = false;
        for cut in 1u64..=30 {
            let path = tmp_path(&format!("orphan_cut_{cut}"));
            let config = SearchConfig {
                budget: Budget::unlimited().with_max_nodes(cut),
                checkpoint: Some(CheckpointConfig {
                    path: path.clone(),
                    interval: 1,
                }),
                ..SearchConfig::default()
            };
            let partial = find_best_uov(&s, Objective::ShortestVector, &config).expect("in range");
            assert_eq!(partial.checkpoint_error, None, "cut={cut}");
            let snap = read_snap(&path).expect("cut run must leave a valid snapshot");
            saw_live_frontier |= !snap.frontier.is_empty();
            assert_no_orphaned_pathset_entries(&snap, &format!("cut={cut}"));
            let resumed = search_resume(
                &path,
                &s,
                Objective::ShortestVector,
                &SearchConfig::default(),
            )
            .expect("cut snapshot must resume");
            assert_eq!(
                (resumed.uov.clone(), resumed.cost),
                (reference.uov.clone(), reference.cost),
                "cut={cut}"
            );
            let _ = std::fs::remove_file(&path);
        }
        assert!(
            saw_live_frontier,
            "every cut produced an empty frontier; the orphan check never ran on live state"
        );
    }

    /// An iteration domain that delegates to a [`RectDomain`] but panics
    /// on the Nth `num_points` call — `num_points` sits on the KnownBounds
    /// cost path, so the panic detonates inside the search mid-sweep.
    #[derive(Debug)]
    struct DetonatingDomain {
        inner: RectDomain,
        calls: AtomicU64,
        /// Panic on this call number; `u64::MAX` disarms.
        fuse: AtomicU64,
    }

    impl IterationDomain for DetonatingDomain {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn contains(&self, p: &IVec) -> bool {
            self.inner.contains(p)
        }
        fn extreme_points(&self) -> Vec<IVec> {
            self.inner.extreme_points()
        }
        fn points(&self) -> Box<dyn Iterator<Item = IVec> + '_> {
            self.inner.points()
        }
        fn num_points(&self) -> u64 {
            let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if n == self.fuse.load(Ordering::Relaxed) {
                panic!("injected worker fault: num_points call {n}");
            }
            self.inner.num_points()
        }
    }

    /// A search panic mid-sweep must not corrupt the on-disk state: the
    /// snapshot present after the panic decodes, carries no orphaned
    /// PATHSET entries, and resumes (with the fault disarmed) to the
    /// byte-identical answer of a never-faulted run.
    #[test]
    fn worker_panic_mid_sweep_leaves_resumable_state() {
        let s = Stencil::new(vec![
            ivec![1, -2],
            ivec![1, -1],
            ivec![1, 0],
            ivec![1, 1],
            ivec![1, 2],
        ])
        .expect("valid");
        let grid = RectDomain::grid(10, 10);
        let reference = find_best_uov(&s, Objective::KnownBounds(&grid), &SearchConfig::default())
            .expect("clean");

        // Phase 1: write a genuine mid-search snapshot with a node cap.
        let path = tmp_path("panic_resumable");
        let cut_config = SearchConfig {
            budget: Budget::unlimited().with_max_nodes(4),
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                interval: 1,
            }),
            ..SearchConfig::default()
        };
        let partial =
            find_best_uov(&s, Objective::KnownBounds(&grid), &cut_config).expect("in range");
        assert_eq!(partial.checkpoint_error, None);

        // Phase 2: resume through the detonating domain. The fingerprint
        // check passes (the wrapper delegates), then the fuse blows inside
        // the search's cost evaluation.
        let domain = DetonatingDomain {
            inner: RectDomain::grid(10, 10),
            calls: AtomicU64::new(0),
            fuse: AtomicU64::new(10),
        };
        let resume_config = SearchConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                interval: 1,
            }),
            ..SearchConfig::default()
        };
        // The engine's contract: a search panic is caught into a typed
        // `SearchError::WorkerPanic`, never an unwinding caller. The
        // catch_unwind is belt-and-braces so a regression to propagation
        // still reaches the snapshot checks below instead of aborting.
        let blown = catch_unwind(AssertUnwindSafe(|| {
            find_best_uov(&s, Objective::KnownBounds(&domain), &resume_config)
        }));
        match blown {
            Ok(Err(SearchError::WorkerPanic { payload, .. })) => {
                assert!(
                    payload.contains("injected worker fault"),
                    "unexpected worker panic payload: {payload}"
                );
            }
            Ok(other) => panic!("fuse at call 10 never detonated: {other:?}"),
            Err(_) => {} // propagated panic: still a detonation
        }

        // Phase 3: whatever snapshot survived the detonation must be
        // valid, coherent, and resumable to the reference answer.
        let snap = read_snap(&path).expect("post-panic snapshot must decode");
        assert_no_orphaned_pathset_entries(&snap, "post-panic");
        domain.fuse.store(u64::MAX, Ordering::Relaxed);
        let resumed = search_resume(
            &path,
            &s,
            Objective::KnownBounds(&grid),
            &SearchConfig::default(),
        )
        .expect("post-panic snapshot must resume");
        assert_eq!(
            (resumed.uov, resumed.cost),
            (reference.uov, reference.cost),
            "resume after worker panic diverged"
        );
        assert!(resumed.stats.complete);
        let _ = std::fs::remove_file(&path);
    }

    /// Near-`i64::MAX` coordinates miss the dense window (the bounds
    /// check happens before any offset arithmetic) and land in the spill
    /// tier; merges and key round-trips there never overflow.
    #[test]
    fn extreme_coordinates_take_the_spill_tier_without_overflow() {
        let window = Window::from_bounds(&[-8, -8], &[8, 8], 1 << 16);
        assert!(!window.is_empty());
        // In-window sanity first.
        assert!(window.index(&[0, 0]).is_some());
        assert!(window.index(&[8, -8]).is_some());
        // Extremes: every one must miss cleanly, including values whose
        // offset subtraction would wrap i64.
        for w in [
            [i64::MAX, 0],
            [i64::MAX - 1, i64::MAX - 1],
            [0, i64::MIN],
            [i64::MIN + 1, i64::MAX],
            [9, 0],
        ] {
            assert_eq!(window.index(&w), None, "window admitted {w:?}");
        }

        let mut table = MaskTable::new(Window::from_bounds(&[-8, -8], &[8, 8], 1 << 16));
        let far = [i64::MAX - 1, i64::MIN + 2];
        let first = table.merge(&far, 0b101);
        assert!(first.is_new && first.grew);
        assert_eq!(first.merged, 0b101);
        let again = table.merge(&far, 0b010);
        assert!(!again.is_new && again.grew);
        assert_eq!(again.merged, 0b111);
        assert_eq!(again.key, first.key, "spill key must be stable");
        assert_eq!(table.probe(&far), Some(0b111));
        assert_eq!(table.key_of(&far), Some(first.key));
        assert_eq!(table.mask_of(first.key), Some(0b111));
        let mut coords = Vec::new();
        assert!(table.coords_of(first.key, &mut coords));
        assert_eq!(coords, far);
        // One spill node + one dense node both count toward the memo cap.
        table.merge(&[1, 1], 0b1);
        assert_eq!(table.len(), 2);

        // The cone memo's dense tier is likewise immune: indices only
        // come from Window::index, so extremes can never reach a page.
        let mut memo = ConeMemo::new(Window::from_bounds(&[-4, -4], &[4, 4], 1 << 12));
        let idx = memo.window().index(&[3, -2]).expect("in window");
        assert_eq!(memo.get(idx), None);
        assert!(memo.set(idx, true));
        assert_eq!(memo.get(idx), Some(true));
        assert_eq!(memo.window().index(&[i64::MAX - 1, 1]), None);
    }

    /// The full oracle at spill-tier coordinates: verdicts come back as
    /// `Ok` answers (never overflow panics), and they match closed-form
    /// ground truth for the quadrant cone. Non-members at near-`i64::MAX`
    /// magnitude are decided by the dual-cone functional cut — no cone
    /// walk — so even astronomically far points must answer cleanly;
    /// members use out-of-window (but walkable) coordinates.
    #[test]
    fn oracle_spill_tier_verdicts_do_not_overflow() {
        let s = Stencil::new(vec![ivec![1, 0], ivec![0, 1]]).expect("valid");
        let oracle = DoneOracle::new(&s);
        let unlimited = Budget::unlimited();
        let half = i64::MAX / 2;
        let far = 2_500i64; // window reach for this stencil is ±128
        for (w, expect) in [
            (ivec![far, far], true),
            (ivec![far, 0], true),
            (ivec![half, -1], false),
            (ivec![-1, half], false),
            (ivec![half, -half], false),
        ] {
            let got = oracle
                .in_done_budgeted(&w, &unlimited)
                .expect("spill-tier DONE query must not error");
            assert_eq!(got, expect, "DONE({w})");
        }
    }
}
