//! Paper stdout goldens: each paper-shape binary (`table1/2/3`,
//! `figure4`, `exp-{testbed,tmus,att,sprint,gfc,iran}`) runs to
//! completion and prints exactly `tests/fixtures/paper/<name>.txt`.
//!
//! The binaries self-check the paper's shape and exit non-zero on a
//! mismatch; these tests also pin every number they print, so a refactor
//! that keeps the shape but moves a figure fails here. Each binary runs
//! in its own directory under the cargo target's scratch area, so
//! `table3` writes its dataset there instead of into `results/`.
//! Regenerate only for a change meant to alter the paper output:
//! `UPDATE_FIXTURES=1 cargo test -p liberate-bench --test paper_goldens`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn check(name: &str, exe: &str) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("paper_goldens")
        .join(name);
    fs::create_dir_all(&dir).unwrap();
    let out = Command::new(exe)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("running {name}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");

    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/paper")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        fs::write(&path, &got).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; regenerate with UPDATE_FIXTURES=1",
            path.display()
        )
    });
    if want != got {
        let line = want
            .lines()
            .zip(got.lines())
            .position(|(w, g)| w != g)
            .unwrap_or(want.lines().count().min(got.lines().count()));
        panic!(
            "{name} stdout drifted from {} at line {} (UPDATE_FIXTURES=1 to accept):\n--- want\n{}\n--- got\n{}",
            path.display(),
            line + 1,
            want.lines().nth(line).unwrap_or("<end>"),
            got.lines().nth(line).unwrap_or("<end>"),
        );
    }
}

#[test]
fn table1() {
    check("table1", env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn table2() {
    check("table2", env!("CARGO_BIN_EXE_table2"));
}

#[test]
fn table3() {
    check("table3", env!("CARGO_BIN_EXE_table3"));
}

#[test]
fn figure4() {
    check("figure4", env!("CARGO_BIN_EXE_figure4"));
}

#[test]
fn exp_testbed() {
    check("exp-testbed", env!("CARGO_BIN_EXE_exp-testbed"));
}

#[test]
fn exp_tmus() {
    check("exp-tmus", env!("CARGO_BIN_EXE_exp-tmus"));
}

#[test]
fn exp_att() {
    check("exp-att", env!("CARGO_BIN_EXE_exp-att"));
}

#[test]
fn exp_sprint() {
    check("exp-sprint", env!("CARGO_BIN_EXE_exp-sprint"));
}

#[test]
fn exp_gfc() {
    check("exp-gfc", env!("CARGO_BIN_EXE_exp-gfc"));
}

#[test]
fn exp_iran() {
    check("exp-iran", env!("CARGO_BIN_EXE_exp-iran"));
}
