//! Plain-text table rendering for the figure binaries.

use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            ..Table::default()
        }
    }

    /// Set the column headers.
    pub fn headers<S: Into<String>>(mut self, hs: impl IntoIterator<Item = S>) -> Self {
        self.headers = hs.into_iter().map(Into::into).collect();
        self
    }

    /// Append a row (padded/truncated to the header count).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.headers.len().max(r.len()), String::new());
        self.rows.push(r);
        self
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let c = cells.get(i).unwrap_or(&empty);
                let _ = write!(s, "{c:>w$}  ", w = *w);
            }
            s.trim_end().to_string()
        };
        if !self.headers.is_empty() {
            let _ = writeln!(out, "{}", line(&self.headers, &widths));
            let _ = writeln!(
                out,
                "{}",
                widths
                    .iter()
                    .map(|w| "-".repeat(*w))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
        }
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }
}

/// Format an optional MAPE as the figures print it.
pub fn fmt_mape(m: Option<f64>) -> String {
    match m {
        Some(v) => format!("{v:.1}"),
        None => "-".to_string(),
    }
}

/// Format a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("demo").headers(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["beta-long", "22"]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = table().render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[2].starts_with('-'));
        // Right-aligned: "alpha" padded to "beta-long" width.
        assert!(lines[3].contains("    alpha"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("").headers(["a", "b", "c"]);
        t.row(["only"]);
        let s = t.render();
        assert!(s.contains("only"));
        // Header, separator, the one row.
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_mape(Some(12.345)), "12.3");
        assert_eq!(fmt_mape(None), "-");
        assert_eq!(fmt_pct(50.0), "50.0");
    }
}
