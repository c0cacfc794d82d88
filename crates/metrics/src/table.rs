//! Plain-text tables and CSV export.

use std::fmt;

/// A plain-text table with aligned columns, used by every experiment
/// binary to print paper-style result tables.
///
/// # Examples
///
/// ```
/// use msn_metrics::Table;
///
/// let mut t = Table::new(vec!["scheme", "coverage"]);
/// t.row(vec!["CPVF".into(), "74.5%".into()]);
/// t.row(vec!["FLOOR".into(), "78.8%".into()]);
/// let text = t.to_string();
/// assert!(text.contains("FLOOR"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows as raw cells (for CSV export or further processing).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {cell:>w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        writeln!(f, "{sep}")?;
        write_row(f, &self.headers)?;
        writeln!(f, "{sep}")?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        write!(f, "{sep}")?;
        let _ = ncols;
        Ok(())
    }
}

/// Serializes headers and rows as CSV (RFC-4180-style quoting for
/// cells containing commas, quotes or newlines).
///
/// # Examples
///
/// ```
/// use msn_metrics::to_csv;
///
/// let csv = to_csv(
///     &["a".into(), "b".into()],
///     &[vec!["1".into(), "x,y".into()]],
/// );
/// assert_eq!(csv, "a,b\n1,\"x,y\"\n");
/// ```
pub fn to_csv(headers: &[String], rows: &[Vec<String>]) -> String {
    fn quote(cell: &str) -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_borders() {
        let mut t = Table::new(vec!["n", "value"]);
        t.row(vec!["1".into(), "100".into()]);
        t.row(vec!["22".into(), "3".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].starts_with('+'));
        // all lines equal width
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
        assert_eq!(t.headers().len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["only"]);
        t.row(vec!["a".into(), "b".into()]);
    }

    #[test]
    fn csv_quoting() {
        let csv = to_csv(
            &["h1".into(), "h\"2".into()],
            &[vec!["plain".into(), "with,comma".into()]],
        );
        assert_eq!(csv, "h1,\"h\"\"2\"\nplain,\"with,comma\"\n");
    }

    #[test]
    fn csv_roundtrip_simple() {
        let mut t = Table::new(vec!["x", "y"]);
        t.row(vec!["1.5".into(), "2.5".into()]);
        let csv = to_csv(t.headers(), t.rows());
        assert_eq!(csv, "x,y\n1.5,2.5\n");
    }
}
