//! Result rendering: the marks used by the paper's tables and a small
//! fixed-width table builder for the experiment binaries.

use crate::evaluate::Reach;

/// Table 3's check mark.
pub const CHECK: &str = "Y";
/// Table 3's cross.
pub const CROSS: &str = ".";
/// Table 3's em-dash ("not applicable / not classified").
pub const DASH: &str = "-";
/// Table 3's overlined check ("arrived, but transformed").
pub const CHECK_TRANSFORMED: &str = "Y~";

/// Render a CC? cell.
pub fn mark_cc(cc: Option<bool>) -> &'static str {
    match cc {
        Some(true) => CHECK,
        Some(false) => CROSS,
        None => DASH,
    }
}

/// Render an RS? cell.
pub fn mark_reach(r: Reach) -> &'static str {
    match r {
        Reach::Yes => CHECK,
        Reach::No => CROSS,
        Reach::Transformed => CHECK_TRANSFORMED,
    }
}

/// Render a boolean with check/cross.
pub fn mark_bool(b: bool) -> &'static str {
    if b {
        CHECK
    } else {
        CROSS
    }
}

/// A minimal fixed-width text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Render with column alignment and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut out = String::new();
            for i in 0..cols {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = widths[i].saturating_sub(cell.chars().count());
                out.push_str(cell);
                out.extend(std::iter::repeat(' ').take(pad));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.extend(std::iter::repeat('-').take(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format bits/second in human units (matches the paper's "1.5 Mbps").
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e6 {
        format!("{:.2} Mbps", bps / 1e6)
    } else if bps >= 1e3 {
        format!("{:.1} kbps", bps / 1e3)
    } else {
        format!("{bps:.0} bps")
    }
}

/// Format a byte count in human units.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1_000_000 {
        format!("{:.1} MB", bytes as f64 / 1e6)
    } else if bytes >= 1_000 {
        format!("{:.1} KB", bytes as f64 / 1e3)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks() {
        assert_eq!(mark_cc(Some(true)), "Y");
        assert_eq!(mark_cc(Some(false)), ".");
        assert_eq!(mark_cc(None), "-");
        assert_eq!(mark_reach(Reach::Transformed), "Y~");
        assert_eq!(mark_bool(true), "Y");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["Technique", "CC?", "RS?"]);
        t.row(vec!["Lower TTL".into(), "Y".into(), ".".into()]);
        t.row(vec![
            "Wrong Checksum (a longer one)".into(),
            ".".into(),
            "Y~".into(),
        ]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Technique"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "CC?" column starts at the same offset everywhere.
        let col = lines[0].find("CC?").unwrap();
        assert_eq!(&lines[2][col..col + 1], "Y");
    }

    #[test]
    fn humanized_units() {
        assert_eq!(fmt_bps(1_480_000.0), "1.48 Mbps");
        assert_eq!(fmt_bps(11_200_000.0), "11.20 Mbps");
        assert_eq!(fmt_bps(300.0), "300 bps");
        assert_eq!(fmt_bytes(18_000_000), "18.0 MB");
        assert_eq!(fmt_bytes(300_000), "300.0 KB");
        assert_eq!(fmt_bytes(42), "42 B");
    }
}
