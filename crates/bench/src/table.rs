//! Minimal markdown table / grid rendering for experiment output (kept
//! dependency-free; the workspace has no serialization crate).

/// A markdown table under construction.
#[derive(Debug, Clone, Default)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        MarkdownTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to a markdown string with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        let _ = cols;
        out
    }
}

/// Format a float with 2–4 significant decimals, matching the paper's
/// table style.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

/// Format a percentage delta such as "+3.82%" / "-10.42%".
pub fn pct(x: f64) -> String {
    format!("{}{:.2}%", if x >= 0.0 { "+" } else { "" }, x * 100.0)
}

/// Render an `n×n` grid of small integers (application ids) the way the
/// paper draws Figures 4 and 8.
pub fn render_grid(n: usize, cell: impl Fn(usize, usize) -> String) -> String {
    let mut out = String::new();
    for r in 0..n {
        for c in 0..n {
            out.push_str(&format!("{:>3}", cell(r, c)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = MarkdownTable::new(vec!["cfg", "value"]);
        t.row(vec!["C1", "22.63"]);
        t.row(vec!["C2-long-name", "1"]);
        let s = t.render();
        assert!(s.contains("| cfg "));
        assert!(s.lines().count() == 4);
        let widths: Vec<usize> = s.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = MarkdownTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(22.6311), "22.63");
        assert_eq!(f(0.5347), "0.535");
        assert_eq!(f(131.87), "131.9");
        assert_eq!(pct(-0.1042), "-10.42%");
        assert_eq!(pct(0.0382), "+3.82%");
    }

    #[test]
    fn grid_renders() {
        let g = render_grid(2, |r, c| format!("{}", r * 2 + c + 1));
        assert_eq!(g, "  1  2\n  3  4\n");
    }
}
