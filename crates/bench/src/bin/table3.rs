//! **Table 3** — the headline result: effectiveness of every evasion
//! technique against the five classifier environments, with CC? (changes
//! classification), RS? (packets reach the server), and the per-OS server
//! response columns, diffed cell-by-cell against the paper.
//!
//! Run with: `cargo run --release -p liberate-bench --bin table3`

use liberate::report::TextTable;
use liberate_bench::expected::OsExpect;
use liberate_bench::harness;
use liberate_bench::osmatrix::run_inert_matrix;
use liberate_bench::table3::{diff_against_paper, render, run_table3, to_json};

fn os_mark(e: OsExpect) -> &'static str {
    match e {
        OsExpect::Dropped => "Y",
        OsExpect::Delivered => ".",
        OsExpect::DeliveredTruncated => "Y5",
        OsExpect::RstResponse => ".6",
        OsExpect::NotApplicable => "-",
    }
}

fn main() {
    println!("Table 3: effectiveness of lib\u{b7}erate's evasion techniques");
    println!("(CC? = changes classification; RS? = reaches server; Y~ = arrives transformed)\n");

    let measured = run_table3();
    println!("{}", render(&measured));

    println!("\nServer response per OS for the inert rows (Y = dropped by the OS):\n");
    let mut t = TextTable::new(&["Technique", "Linux", "macOS", "Windows"]);
    for (technique, cells) in run_inert_matrix() {
        if technique == liberate::prelude::Technique::InertLowTtl {
            t.row(vec![
                technique.description(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        t.row(vec![
            technique.description(),
            os_mark(cells[0]).to_string(),
            os_mark(cells[1]).to_string(),
            os_mark(cells[2]).to_string(),
        ]);
    }
    println!("{}", t.render());

    // Publish the dataset.
    let dataset = to_json(&measured).render();
    if let Ok(path) = harness::write_result("table3.json", &dataset) {
        println!("dataset written to {}", path.display());
    }

    let mismatches = diff_against_paper(&measured);
    if mismatches.is_empty() {
        println!("[ok] all 26 rows x 5 environments match the paper's Table 3");
    } else {
        println!("{} cell(s) diverge from the paper:", mismatches.len());
        for m in &mismatches {
            println!("  - {m}");
        }
        std::process::exit(1);
    }
}
