//! A small plain-text reporting helper (ASCII tables) used by the
//! experiment binaries and benches to print the rows/series the paper
//! reports.

use std::fmt;

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "a table needs at least one column");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header.
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row length must match the header"
        );
        self.rows.push(row);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (cell, w) in cells.iter().zip(widths.iter()) {
                write!(f, "| {cell:<w$} ")?;
            }
            writeln!(f, "|")
        };
        write_row(f, &self.header)?;
        for (w, _) in widths.iter().zip(self.header.iter()) {
            write!(f, "|{:-<width$}", "", width = w + 2)?;
        }
        writeln!(f, "|")?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new(vec!["name".to_string(), "value".to_string()]);
        t.push_row(vec!["alpha".to_string(), "1".to_string()]);
        t.push_row(vec!["b".to_string(), "22.5".to_string()]);
        let text = t.to_string();
        assert!(text.contains("| name  | value |"));
        assert!(text.contains("| alpha | 1     |"));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_rows_panic() {
        let mut t = Table::new(vec!["a".to_string()]);
        t.push_row(vec!["1".to_string(), "2".to_string()]);
    }
}
