//! The `experiments` binary's exit status, driven as a user would.

use std::process::Command;

/// `--out` naming a regular file makes every CSV write fail; the run must
/// say so with a non-zero exit rather than look green.
#[test]
fn unwritable_out_dir_exits_non_zero() {
    let file = std::env::temp_dir().join(format!("icecube-cli-out-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1_1", "--out"])
        .arg(&file)
        .output()
        .unwrap();
    std::fs::remove_file(&file).unwrap();
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stderr).contains("csv write failed"));
}
