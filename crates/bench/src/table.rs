//! Minimal aligned-column text tables for experiment output.

use std::fmt::Write as _;

/// An aligned ASCII table builder.
///
/// # Examples
///
/// ```
/// use cascade_bench::TextTable;
///
/// let mut t = TextTable::new(&["dataset", "speedup"]);
/// t.row(&["WIKI", "2.5x"]);
/// let s = t.to_string();
/// assert!(s.contains("WIKI"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", h, w = widths[i]);
        }
        out.push('\n');
        for (i, _) in (0..cols).enumerate() {
            let _ = write!(out, "{}  ", "-".repeat(widths[i]));
        }
        out.push('\n');
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        }
        f.write_str(&out)
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{:.2}", v)
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{:.3}", v)
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_columns() {
        let mut t = TextTable::new(&["a", "bbbb"]);
        t.row(&["xxxxx", "y"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    "));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(&["a"]);
        t.row(&["x", "y"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(0.5), "0.500");
        assert_eq!(pct(0.123), "12.3%");
    }
}
