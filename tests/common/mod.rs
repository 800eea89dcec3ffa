//! Helpers shared by the integration suites.

use std::fs;
use std::path::{Path, PathBuf};

/// Compare `got` byte for byte with the golden file
/// `tests/fixtures/<name>` (e.g. `journals/scripted_seed7.jsonl`). With
/// `UPDATE_FIXTURES=1` set, write `got` as the new golden instead.
pub fn assert_golden(name: &str, got: &str) {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, got).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
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
            .map_or(want.lines().count().min(got.lines().count()), |i| i);
        panic!(
            "golden drift against {} from line {} (UPDATE_FIXTURES=1 to accept):\n--- want\n{}\n--- got\n{}",
            path.display(),
            line + 1,
            want.lines().nth(line).unwrap_or("<end>"),
            got.lines().nth(line).unwrap_or("<end>"),
        );
    }
}
