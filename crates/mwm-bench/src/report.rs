//! Structured experiment results.
//!
//! Experiments used to return pre-formatted `Vec<String>` rows, which forced
//! integration tests to parse aligned text. [`ExperimentReport`] keeps the id,
//! title, column names and raw cell values; [`ExperimentReport::render`]
//! produces the aligned text table for the CLI.

use std::fmt;

/// The structured result of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment id (`"e1"` … `"e15"`).
    pub id: &'static str,
    /// Human-readable title (the table heading).
    pub title: String,
    /// Column names, in display order.
    pub columns: Vec<&'static str>,
    /// Data rows; each row has one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl ExperimentReport {
    /// Creates an empty report with the given shape.
    pub fn new(id: &'static str, title: impl Into<String>, columns: Vec<&'static str>) -> Self {
        ExperimentReport { id, title: title.into(), columns, rows: Vec::new() }
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// If the cell count does not match the column count — a programming
    /// error in the experiment, caught immediately in its own tests.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "experiment {} row has {} cells for {} columns",
            self.id,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Looks up a cell by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> Option<&str> {
        let col = self.columns.iter().position(|&c| c == column)?;
        self.rows.get(row).map(|r| r[col].as_str())
    }

    /// Renders the aligned text table: title line, header, one line per row.
    /// The first column is left-aligned, the rest right-aligned.
    pub fn render(&self) -> Vec<String> {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let format_row = |cells: &[&str]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, cell)| {
                    if i == 0 {
                        format!("{cell:<width$}", width = widths[i])
                    } else {
                        format!("{cell:>width$}", width = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = vec![format!("== {}: {} ==", self.id.to_uppercase(), self.title)];
        let header: Vec<&str> = self.columns.to_vec();
        out.push(format_row(&header));
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(String::as_str).collect();
            out.push(format_row(&cells));
        }
        out
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in self.render() {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        let mut r = ExperimentReport::new("e1", "sample", vec!["name", "value"]);
        r.push_row(vec!["alpha".to_string(), "1".to_string()]);
        r.push_row(vec!["b".to_string(), "12345".to_string()]);
        r
    }

    #[test]
    fn cells_are_addressable_by_column_name() {
        let r = sample();
        assert_eq!(r.cell(0, "name"), Some("alpha"));
        assert_eq!(r.cell(1, "value"), Some("12345"));
        assert_eq!(r.cell(0, "missing"), None);
        assert_eq!(r.cell(5, "name"), None);
    }

    #[test]
    fn rendering_aligns_columns() {
        let lines = sample().render();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("E1"));
        // Both data lines have equal length thanks to padding.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_is_rejected() {
        let mut r = ExperimentReport::new("e1", "sample", vec!["a", "b"]);
        r.push_row(vec!["only-one".to_string()]);
    }
}
