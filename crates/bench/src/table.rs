//! Plain-text rendering of reproduced figures.

use std::fmt;

/// One row of a figure: a label (x-axis value) and one cell per series.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The x-axis label, e.g. `"2.0M"`.
    pub label: String,
    /// One value per series, in series order.
    pub values: Vec<f64>,
}

/// A reproduced figure: named series over labelled rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier, e.g. `"Fig. 8"`.
    pub id: String,
    /// Title from the paper.
    pub title: String,
    /// Series (column) names.
    pub series: Vec<String>,
    /// Unit of every cell.
    pub unit: String,
    /// The data rows.
    pub rows: Vec<Row>,
    /// The acceptance criterion this reproduction is judged by.
    pub expectation: String,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        series: Vec<String>,
        unit: impl Into<String>,
        expectation: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            series,
            unit: unit.into(),
            rows: Vec::new(),
            expectation: expectation.into(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the series count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.series.len(),
            "row width must match series count"
        );
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }

    /// The values of one series across all rows.
    #[cfg(test)]
    pub fn series_values(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.series.iter().position(|s| s == name)?;
        Some(self.rows.iter().map(|r| r.values[idx]).collect())
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} — {} ({})", self.id, self.title, self.unit)?;
        write!(f, "{:>10}", "")?;
        for s in &self.series {
            write!(f, "{s:>16}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:>10}", row.label)?;
            for v in &row.values {
                write!(f, "{v:>16.1}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "expectation: {}", self.expectation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new(
            "Fig. X",
            "demo",
            vec!["a".into(), "b".into()],
            "ms",
            "a < b",
        );
        fig.push_row("2.0M", vec![1.0, 10.0]);
        fig.push_row("3.0M", vec![2.0, 20.0]);
        fig
    }

    #[test]
    fn series_extraction() {
        let fig = sample();
        assert_eq!(fig.series_values("a"), Some(vec![1.0, 2.0]));
        assert_eq!(fig.series_values("b"), Some(vec![10.0, 20.0]));
        assert_eq!(fig.series_values("zzz"), None);
    }

    #[test]
    fn rendering_contains_everything() {
        let text = sample().to_string();
        assert!(text.contains("Fig. X"));
        assert!(text.contains("2.0M"));
        assert!(text.contains("10.0"));
        assert!(text.contains("expectation: a < b"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut fig = sample();
        fig.push_row("bad", vec![1.0]);
    }
}
