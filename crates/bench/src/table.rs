//! Minimal tabular report printing, and the same tables as JSON.

/// One output row: a label plus (column, value) pairs.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (x-axis value, usually).
    pub label: String,
    /// Column name/value pairs, in display order.
    pub cells: Vec<(String, f64)>,
}

impl Row {
    /// Builds a row.
    pub fn new(label: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            cells: Vec::new(),
        }
    }

    /// Adds a cell.
    pub fn cell(mut self, name: impl Into<String>, value: f64) -> Row {
        self.cells.push((name.into(), value));
        self
    }

    /// Reads a cell back by name (for assertions in tests/binaries).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.cells.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Prints rows as an aligned table with a title.
pub fn print_table(title: &str, xlabel: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    if rows.is_empty() {
        println!("(no data)");
        return;
    }
    let mut cols: Vec<String> = Vec::new();
    for row in rows {
        for (n, _) in &row.cells {
            if !cols.contains(n) {
                cols.push(n.clone());
            }
        }
    }
    print!("{xlabel:>14}");
    for c in &cols {
        print!(" {c:>14}");
    }
    println!();
    for row in rows {
        print!("{:>14}", row.label);
        for c in &cols {
            match row.get(c) {
                Some(v) if v.abs() >= 1000.0 => print!(" {v:>14.0}"),
                Some(v) => print!(" {v:>14.3}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Renders printed tables as one JSON array, one object a table and
/// a line each: `{"title", "xlabel", "rows": [{"label", "cells":
/// {name: value, ...}}, ...]}`, cells in display order. A value that is
/// not finite is `null`, which is what JSON has for it.
pub fn to_json(tables: &[(&str, &str, Vec<Row>)]) -> String {
    let mut s = String::from("[");
    for (t, (title, xlabel, rows)) in tables.iter().enumerate() {
        if t > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n{{\"title\":{},\"xlabel\":{},\"rows\":[",
            quoted(title),
            quoted(xlabel)
        ));
        for (r, row) in rows.iter().enumerate() {
            if r > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"label\":{},\"cells\":{{", quoted(&row.label)));
            for (c, (name, v)) in row.cells.iter().enumerate() {
                if c > 0 {
                    s.push(',');
                }
                s.push_str(&quoted(name));
                if v.is_finite() {
                    s.push_str(&format!(":{v}"));
                } else {
                    s.push_str(":null");
                }
            }
            s.push_str("}}");
        }
        s.push_str("]}");
    }
    s.push_str("\n]\n");
    s
}

/// `text` as a JSON string literal.
fn quoted(text: &str) -> String {
    let mut s = String::from("\"");
    for ch in text.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if c.is_control() => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_roundtrip() {
        let r = Row::new("64").cell("lite", 1.5).cell("verbs", 1.4);
        assert_eq!(r.get("lite"), Some(1.5));
        assert_eq!(r.get("nope"), None);
        print_table("t", "size", std::slice::from_ref(&r));
        let nan = Row::new("a \"b\"").cell("x", f64::NAN);
        assert_eq!(
            to_json(&[("t", "size", vec![r, nan])]),
            "[\n{\"title\":\"t\",\"xlabel\":\"size\",\"rows\":[\
             {\"label\":\"64\",\"cells\":{\"lite\":1.5,\"verbs\":1.4}},\
             {\"label\":\"a \\\"b\\\"\",\"cells\":{\"x\":null}}]}\n]\n"
        );
    }
}
