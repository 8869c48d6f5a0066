//! Plain-text table rendering used by the table renderers and examples to print the
//! reproduced tables in a paper-like layout.

/// A simple text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row<I: IntoIterator<Item = S>, S: ToString>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<w$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage string like the paper's tables.
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:.0}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Demo", &["Dataset", "Vulnerable"]);
        t.row(["Open resolvers", "74%"]);
        t.row(["Ad-net", "70%"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("Open resolvers"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.74), "74%");
        assert_eq!(pct(1.0), "100%");
        assert_eq!(pct(0.056), "6%");
    }
}
