//! Out-of-process compilation and execution of generated kernels.
//!
//! Everything here is defensive: toolchains are *discovered*, never
//! assumed; compiles and runs get hard wall-clock allowances and are
//! killed (not waited on) when they exceed them; and every failure mode is
//! a typed [`CodegenError`]. The autotuner builds its degradation ladder
//! on these guarantees — a missing `rustc` must surface as
//! [`CodegenError::ToolchainMissing`], not a panic or a hang.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::error::CodegenError;

/// Locate a tool binary: an explicit override (checked for existence), or
/// the first match on `PATH`.
///
/// # Errors
///
/// [`CodegenError::ToolchainMissing`] when neither yields a file.
pub fn find_tool(name: &str, override_path: Option<&Path>) -> Result<PathBuf, CodegenError> {
    if let Some(p) = override_path {
        if p.is_file() {
            return Ok(p.to_path_buf());
        }
        return Err(CodegenError::ToolchainMissing {
            tool: p.display().to_string(),
        });
    }
    if let Some(paths) = std::env::var_os("PATH") {
        for dir in std::env::split_paths(&paths) {
            let cand = dir.join(name);
            if cand.is_file() {
                return Ok(cand);
            }
        }
    }
    Err(CodegenError::ToolchainMissing {
        tool: name.to_string(),
    })
}

/// Outcome of a bounded subprocess run.
struct Finished {
    status: Option<i32>,
    stdout: String,
    stderr: String,
}

/// The first pause between two polls of a running child. Pauses double
/// up to [`LONGEST_POLL`], so a short child is reaped about 0.1 ms after
/// it exits and a long one costs few wakeups.
const FIRST_POLL: Duration = Duration::from_micros(100);
/// The longest pause between two polls of a running child.
const LONGEST_POLL: Duration = Duration::from_millis(5);

/// Run `cmd` to completion with a hard wall-clock allowance. The child is
/// killed on expiry; reader threads drain stdout/stderr so a chatty child
/// can never deadlock on a full pipe.
fn run_bounded(cmd: &mut Command, what: &str, timeout: Duration) -> Result<Finished, CodegenError> {
    fn io_err(what: String) -> impl FnOnce(std::io::Error) -> CodegenError {
        move |source| CodegenError::Io { what, source }
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(io_err(format!("spawning {what}")))?;
    let drain = |pipe: Option<Box<dyn Read + Send>>| {
        std::thread::spawn(move || {
            let mut buf = String::new();
            if let Some(mut pipe) = pipe {
                let _ = pipe.read_to_string(&mut buf);
            }
            buf
        })
    };
    let out_pipe: Option<Box<dyn Read + Send>> = child
        .stdout
        .take()
        .map(|p| Box::new(p) as Box<dyn Read + Send>);
    let err_pipe: Option<Box<dyn Read + Send>> = child
        .stderr
        .take()
        .map(|p| Box::new(p) as Box<dyn Read + Send>);
    let out_thread = drain(out_pipe);
    let err_thread = drain(err_pipe);
    let deadline = Instant::now() + timeout;
    let mut pause = FIRST_POLL;
    let status = loop {
        match child
            .try_wait()
            .map_err(io_err(format!("waiting for {what}")))?
        {
            Some(status) => break status.code(),
            None => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    // Join the drains so the threads don't outlive us.
                    let _ = out_thread.join();
                    let _ = err_thread.join();
                    return Err(CodegenError::Timeout {
                        what: what.to_string(),
                        millis: timeout.as_millis() as u64,
                    });
                }
                std::thread::sleep(pause);
                pause = (pause * 2).min(LONGEST_POLL);
            }
        }
    };
    let stdout = out_thread.join().unwrap_or_default();
    let stderr = err_thread.join().unwrap_or_default();
    Ok(Finished {
        status,
        stdout,
        stderr,
    })
}

/// Truncate compiler/runtime stderr to a diagnosable tail.
fn tail(s: &str) -> String {
    const KEEP: usize = 2000;
    if s.len() <= KEEP {
        s.to_string()
    } else {
        format!("…{}", &s[s.len() - KEEP..])
    }
}

/// Compile a generated Rust source file to a standalone binary.
///
/// # Errors
///
/// [`CodegenError::CompileFailed`] with the compiler's stderr,
/// [`CodegenError::Timeout`], or spawn I/O errors.
pub fn compile_rust(
    rustc: &Path,
    src: &Path,
    out: &Path,
    optimize: bool,
    timeout: Duration,
) -> Result<(), CodegenError> {
    let opt = if optimize { "3" } else { "0" };
    let mut cmd = Command::new(rustc);
    cmd.arg("--edition")
        .arg("2021")
        .arg("-C")
        .arg(format!("opt-level={opt}"))
        .arg(src)
        .arg("-o")
        .arg(out);
    let fin = run_bounded(&mut cmd, "rustc", timeout)?;
    if fin.status != Some(0) {
        return Err(CodegenError::CompileFailed {
            tool: "rustc".to_string(),
            status: fin.status,
            stderr: tail(&fin.stderr),
        });
    }
    Ok(())
}

/// Parsed output of a generated kernel binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// Total nanoseconds for all reps.
    pub time_ns: u128,
    /// The schedule-invariant checksum.
    pub check: u64,
    /// Captured `(statement, row-major point, f64 bits)` triples, present
    /// when the kernel was generated with capture and run with `print`.
    pub outs: Vec<(usize, usize, u64)>,
}

/// Execute a compiled kernel binary under the generated protocol.
///
/// # Errors
///
/// [`CodegenError::RunFailed`] on a nonzero exit, [`CodegenError::Timeout`]
/// if the allowance expires, [`CodegenError::BadOutput`] if stdout does not
/// parse.
pub fn run_kernel(
    bin: &Path,
    seed: u64,
    reps: u32,
    print: bool,
    timeout: Duration,
) -> Result<RunOutput, CodegenError> {
    let mut cmd = Command::new(bin);
    cmd.arg(seed.to_string())
        .arg(reps.to_string())
        .arg(if print { "1" } else { "0" });
    let fin = run_bounded(&mut cmd, "generated kernel", timeout)?;
    if fin.status != Some(0) {
        return Err(CodegenError::RunFailed {
            status: fin.status,
            stderr: tail(&fin.stderr),
        });
    }
    parse_output(&fin.stdout)
}

/// Parse the `TIME_NS`/`CHECK`/`OUT` protocol emitted by generated
/// kernels.
///
/// # Errors
///
/// [`CodegenError::BadOutput`] on any missing or malformed line.
pub fn parse_output(stdout: &str) -> Result<RunOutput, CodegenError> {
    let mut time_ns = None;
    let mut check = None;
    let mut outs = Vec::new();
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("TIME_NS") => {
                time_ns = parts.next().and_then(|v| v.parse::<u128>().ok());
                if time_ns.is_none() {
                    return Err(CodegenError::BadOutput(format!("bad TIME_NS line: {line}")));
                }
            }
            Some("CHECK") => {
                check = parts.next().and_then(|v| u64::from_str_radix(v, 16).ok());
                if check.is_none() {
                    return Err(CodegenError::BadOutput(format!("bad CHECK line: {line}")));
                }
            }
            Some("OUT") => {
                let s = parts.next().and_then(|v| v.parse::<usize>().ok());
                let lin = parts.next().and_then(|v| v.parse::<usize>().ok());
                let bits = parts.next().and_then(|v| u64::from_str_radix(v, 16).ok());
                match (s, lin, bits) {
                    (Some(s), Some(lin), Some(bits)) => outs.push((s, lin, bits)),
                    _ => return Err(CodegenError::BadOutput(format!("bad OUT line: {line}"))),
                }
            }
            _ => {}
        }
    }
    match (time_ns, check) {
        (Some(time_ns), Some(check)) => Ok(RunOutput {
            time_ns,
            check,
            outs,
        }),
        _ => Err(CodegenError::BadOutput(
            "missing TIME_NS or CHECK line".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_tool_is_typed() {
        let err = find_tool(
            "definitely-not-a-compiler-xyz",
            Some(Path::new("/nonexistent/rustc")),
        )
        .unwrap_err();
        assert!(matches!(err, CodegenError::ToolchainMissing { .. }));
        let err = find_tool("definitely-not-a-compiler-xyz", None).unwrap_err();
        assert!(matches!(err, CodegenError::ToolchainMissing { .. }));
    }

    #[test]
    fn protocol_parses_and_rejects() {
        let ok = parse_output("TIME_NS 123\nCHECK 00000000000000ff\nOUT 0 7 3ff0000000000000\n")
            .unwrap();
        assert_eq!(ok.time_ns, 123);
        assert_eq!(ok.check, 0xff);
        assert_eq!(ok.outs, vec![(0, 7, 0x3ff0000000000000)]);
        assert!(matches!(
            parse_output("CHECK 00ff\n"),
            Err(CodegenError::BadOutput(_))
        ));
        assert!(matches!(
            parse_output("TIME_NS abc\nCHECK 00ff\n"),
            Err(CodegenError::BadOutput(_))
        ));
    }
}
