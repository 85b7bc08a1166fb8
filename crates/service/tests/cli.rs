//! The `uov-service` command line refuses flags it does not know instead
//! of running with defaults.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `uov-service` with `args` and return its exit code and stderr. A
/// child still running after 5 s is killed and the test fails here.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_uov-service"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn uov-service");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("poll uov-service").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("uov-service {args:?} was still running after 5 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect stderr");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let warm = std::env::temp_dir().join(format!("uov-cli-retired-{}.bin", std::process::id()));
    let warm = warm.to_str().expect("temporary paths are UTF-8");
    let cases: [(&[&str], &str); 6] = [
        (&["serve", "127.0.0.1:0", "--wokers", "8"], "--wokers"),
        (
            &["serve", "127.0.0.1:0", "--tenant-rate", "5"],
            "--tenant-rate",
        ),
        (
            &["serve", "127.0.0.1:0", "--search-threads", "2"],
            "--search-threads",
        ),
        (
            &["serve", "127.0.0.1:0", "--warm-cache", warm],
            "--warm-cache",
        ),
        (
            &["query", "127.0.0.1:1", "--stencil", "1,0;0,1", "--no-cahce"],
            "--no-cahce",
        ),
        (
            &[
                "query",
                "127.0.0.1:1",
                "--stencil",
                "1,0;0,1;1,1",
                "--replication",
                "1",
            ],
            "--replication",
        ),
    ];
    for (args, flag) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
    }
}
