//! CSV import and export.
//!
//! A small, dependency-free CSV codec sufficient for moving tables in and
//! out of the engine: comma-separated, RFC-4180 style quoting (fields
//! containing commas, quotes or newlines are wrapped in `"` with embedded
//! quotes doubled), header row with column names, empty unquoted fields as
//! NULL. Types are inferred on import (Int → Float → Str, NULLs neutral)
//! unless a schema is supplied.

use std::io::{BufRead, Write};

use crate::column::ColumnVector;
use crate::error::{StorageError, StorageResult};
use crate::table::Table;
use crate::value::{DataType, Value};

/// Write `table` as CSV (header + rows).
///
/// # Errors
/// [`std::io::ErrorKind::InvalidInput`], before anything is written, when
/// `table` has one column and a NULL in it: that row would be a blank line,
/// which [`read_csv`] skips, so the file would lose the row. Otherwise the
/// writer's own errors.
pub fn write_csv(table: &Table, out: &mut impl Write) -> std::io::Result<()> {
    if matches!(table.columns(), [column] if column.null_count() > 0) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a one-column table with a NULL row has no CSV form: the row would be a blank line",
        ));
    }
    let header: Vec<String> = table.column_names().iter().map(|n| quote_field(n)).collect();
    writeln!(out, "{}", header.join(","))?;
    for row in 0..table.num_rows() {
        let fields: Vec<String> = table
            .columns()
            .iter()
            .map(|c| {
                let v = c.get(row).unwrap_or(Value::Null);
                match v {
                    Value::Null => String::new(),
                    Value::Int(x) => x.to_string(),
                    Value::Float(x) => format_float(x),
                    Value::Str(s) => quote_field(&s),
                }
            })
            .collect();
        writeln!(out, "{}", fields.join(","))?;
    }
    Ok(())
}

/// Format a float so it round-trips as a float (always keeps a `.` or
/// exponent so import does not infer Int).
fn format_float(x: f64) -> String {
    let s = x.to_string();
    if s.contains('.')
        || s.contains('e')
        || s.contains('E')
        || s.contains("NaN")
        || s.contains("inf")
    {
        s
    } else {
        format!("{s}.0")
    }
}

fn quote_field(s: &str) -> String {
    if s.is_empty() || s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// One parsed field: raw text plus whether it was quoted (a quoted empty
/// field is an empty string; an unquoted empty field is NULL).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Field {
    text: String,
    quoted: bool,
}

/// Split CSV text into records of fields. A record ends at a line break
/// (`\n` or `\r\n`) outside quotes, so a quoted field may span lines.
/// Every delimiter is ASCII, and UTF-8 never puts an ASCII byte inside a
/// multibyte character, so each field is sliced out of `text` whole.
fn parse_records(text: &str) -> StorageResult<Vec<Vec<Field>>> {
    let mut records = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let mut fields = Vec::new();
        loop {
            let (field, tail) = parse_field(rest)?;
            fields.push(field);
            if let Some(next) = tail.strip_prefix(',') {
                rest = next;
                continue;
            }
            let tail = tail.trim_start_matches('\r');
            rest = match tail.strip_prefix('\n') {
                Some(next) => next,
                None if tail.is_empty() => tail,
                None => return Err(StorageError::Csv("content after closing quote".into())),
            };
            break;
        }
        records.push(fields);
    }
    Ok(records)
}

/// Parse the field at the front of `text`; returns it and the text after it.
fn parse_field(text: &str) -> StorageResult<(Field, &str)> {
    let Some(mut body) = text.strip_prefix('"') else {
        let (field, tail) = text.split_at(text.find([',', '\n']).unwrap_or(text.len()));
        let field = if tail.starts_with(',') { field } else { field.trim_end_matches('\r') };
        return Ok((Field { text: field.to_owned(), quoted: false }, tail));
    };
    let mut out = String::new();
    loop {
        let Some((chunk, tail)) = body.split_once('"') else {
            return Err(StorageError::Csv("unterminated quoted CSV field".into()));
        };
        out.push_str(chunk);
        // `""` escapes a quote.
        match tail.strip_prefix('"') {
            Some(escaped) => {
                out.push('"');
                body = escaped;
            }
            None => return Ok((Field { text: out, quoted: true }, tail)),
        }
    }
}

/// Widen an inferred column type to admit `f` (Int → Float → Str; NULLs
/// are neutral, a quoted field is a string).
fn widen(ty: DataType, f: &Field) -> DataType {
    match ty {
        _ if !f.quoted && f.text.is_empty() => ty,
        _ if f.quoted => DataType::Str,
        DataType::Int if f.text.parse::<i64>().is_ok() => DataType::Int,
        DataType::Int | DataType::Float if f.text.parse::<f64>().is_ok() => DataType::Float,
        _ => DataType::Str,
    }
}

/// Read a CSV (with header) into a table named `name`. When `schema` is
/// `None`, column types are inferred; otherwise it must list one type per
/// CSV column. Blank lines are skipped.
pub fn read_csv(
    name: &str,
    input: &mut impl BufRead,
    schema: Option<&[DataType]>,
) -> StorageResult<Table> {
    let mut text = String::new();
    input.read_to_string(&mut text).map_err(|e| StorageError::Csv(e.to_string()))?;
    let mut records = parse_records(&text)?.into_iter();
    let Some(header) = records.next() else {
        return Err(StorageError::Csv("empty CSV input".into()));
    };
    let ncols = header.len();
    let blank = |rec: &[Field]| matches!(rec, [f] if !f.quoted && f.text.is_empty());

    let mut rows: Vec<Vec<Field>> = Vec::with_capacity(records.len());
    for (idx, rec) in records.enumerate() {
        if blank(&rec) {
            continue;
        }
        if rec.len() != ncols {
            return Err(StorageError::Csv(format!(
                "row {} has {} fields, expected {ncols}",
                idx + 2,
                rec.len()
            )));
        }
        rows.push(rec);
    }

    let types: Vec<DataType> = match schema {
        Some(s) => {
            if s.len() != ncols {
                return Err(StorageError::ArityMismatch { expected: ncols, actual: s.len() });
            }
            s.to_vec()
        }
        None => {
            let mut types = vec![DataType::Int; ncols];
            for rec in &rows {
                for (ty, f) in types.iter_mut().zip(rec) {
                    *ty = widen(*ty, f);
                }
            }
            types
        }
    };

    let mut columns: Vec<ColumnVector> =
        types.iter().map(|&t| ColumnVector::with_capacity(t, rows.len())).collect();
    for rec in &rows {
        for (c, ((field, ty), column)) in rec.iter().zip(&types).zip(&mut columns).enumerate() {
            let value = if !field.quoted && field.text.is_empty() {
                Value::Null
            } else {
                match ty {
                    DataType::Int => Value::Int(field.text.parse::<i64>().map_err(|_| {
                        StorageError::Csv(format!(
                            "`{}` is not an integer (column {c})",
                            field.text
                        ))
                    })?),
                    DataType::Float => Value::Float(field.text.parse::<f64>().map_err(|_| {
                        StorageError::Csv(format!("`{}` is not a float (column {c})", field.text))
                    })?),
                    DataType::Str => Value::Str(field.text.clone()),
                }
            };
            column.push(value)?;
        }
    }

    Table::new(name, header.into_iter().map(|h| h.text).zip(columns).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy;
    use std::io::Cursor;

    fn sample() -> Table {
        let mut t = Table::empty(
            "t",
            &[("id", DataType::Int), ("score", DataType::Float), ("tag", DataType::Str)],
        );
        t.push_row(vec![Value::Int(1), Value::Float(1.5), Value::from("plain")]).unwrap();
        t.push_row(vec![Value::Int(-2), Value::Null, Value::from("with,comma")]).unwrap();
        t.push_row(vec![Value::Null, Value::Float(3.0), Value::from("say \"hi\"")]).unwrap();
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv("t", &mut Cursor::new(&buf), None).unwrap();
        assert_eq!(back.num_rows(), 3);
        assert_eq!(back.column_names(), t.column_names());
        for r in 0..3 {
            assert_eq!(back.row(r).unwrap(), t.row(r).unwrap(), "row {r}");
        }
        // Types survived: the float column did not collapse to Int.
        assert_eq!(back.column_by_name("score").unwrap().data_type(), DataType::Float);
    }

    #[test]
    fn type_inference_promotes_int_to_float_to_str() {
        let csv = "a,b,c\n1,1,1\n2,2.5,x\n";
        let t = read_csv("t", &mut Cursor::new(csv), None).unwrap();
        assert_eq!(t.column_by_name("a").unwrap().data_type(), DataType::Int);
        assert_eq!(t.column_by_name("b").unwrap().data_type(), DataType::Float);
        assert_eq!(t.column_by_name("c").unwrap().data_type(), DataType::Str);
        // The Int 1 in the Float column widened.
        assert_eq!(t.column_by_name("b").unwrap().get(0).unwrap(), Value::Float(1.0));
    }

    #[test]
    fn unquoted_empty_is_null_quoted_empty_is_string() {
        let csv = "a,b\n,\"\"\n5,x\n";
        let t = read_csv("t", &mut Cursor::new(csv), None).unwrap();
        assert_eq!(t.column_by_name("a").unwrap().get(0).unwrap(), Value::Null);
        assert_eq!(t.column_by_name("b").unwrap().get(0).unwrap(), Value::from(""));
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        let csv = "a\n1\n2\n";
        let t = read_csv("t", &mut Cursor::new(csv), Some(&[DataType::Float])).unwrap();
        assert_eq!(t.column_by_name("a").unwrap().data_type(), DataType::Float);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(read_csv("t", &mut Cursor::new(""), None).is_err());
        // Ragged row.
        assert!(read_csv("t", &mut Cursor::new("a,b\n1\n"), None).is_err());
        // Unterminated quote.
        assert!(read_csv("t", &mut Cursor::new("a\n\"open\n"), None).is_err());
        // Schema arity mismatch.
        assert!(read_csv("t", &mut Cursor::new("a,b\n1,2\n"), Some(&[DataType::Int])).is_err());
        // Unparseable under explicit schema.
        assert!(read_csv("t", &mut Cursor::new("a\nxyz\n"), Some(&[DataType::Int])).is_err());
    }

    #[test]
    fn quoting_handles_quotes_and_commas() {
        assert_eq!(quote_field("plain"), "plain");
        assert_eq!(quote_field("a,b"), "\"a,b\"");
        assert_eq!(quote_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        let recs = parse_records("\"a,b\",\"say \"\"hi\"\"\",plain").unwrap();
        let texts: Vec<&str> = recs[0].iter().map(|f| f.text.as_str()).collect();
        assert_eq!(texts, ["a,b", "say \"hi\"", "plain"]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let csv = "a\n1\n\n2\n";
        let t = read_csv("t", &mut Cursor::new(csv), None).unwrap();
        assert_eq!(t.num_rows(), 2);
        let csv = "a,b\n1,2\n\n3,4\r\n\r\n";
        let t = read_csv("t", &mut Cursor::new(csv), None).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column_by_name("b").unwrap().get(1).unwrap(), Value::Int(4));
    }

    #[test]
    fn non_ascii_text_survives_a_read() {
        let t = read_csv("t", &mut Cursor::new("s,n\ncafé,\"naïve, ok\"\n"), None).unwrap();
        assert_eq!(t.column_by_name("s").unwrap().get(0).unwrap(), Value::from("café"));
        assert_eq!(t.column_by_name("n").unwrap().get(0).unwrap(), Value::from("naïve, ok"));
    }

    #[test]
    fn a_quoted_field_may_span_lines() {
        let t = read_csv("t", &mut Cursor::new("a,b\n\"x\ny\",1\n"), None).unwrap();
        assert_eq!(t.column_by_name("a").unwrap().get(0).unwrap(), Value::from("x\ny"));
        assert_eq!(t.num_rows(), 1);
    }

    /// Every row of `t`, in order.
    fn rows(t: &Table) -> Vec<Vec<Value>> {
        (0..t.num_rows()).map(|r| t.row(r).unwrap()).collect()
    }

    /// String pieces for random cells: non-ASCII, the delimiters and line
    /// breaks; zero pieces make the empty string.
    const PIECES: &[&str] = &["a", "Z", "1", ".", " ", "é", "日", "😀", "\"", ",", "\n", "\r\n"];

    /// Bytes for random CSV input: the delimiters, line breaks, a two-byte
    /// UTF-8 character's halves and a byte no UTF-8 text holds.
    const BYTES: &[u8] =
        &[b'a', b'1', b'.', b'-', b' ', b',', b'"', b'\n', b'\r', 0xC3, 0xA9, 0xFF];

    fn text() -> impl proptest::Strategy<Value = String> {
        proptest::collection::vec(0..PIECES.len(), 0..5)
            .prop_map(|ix| ix.iter().filter_map(|&i| PIECES.get(i).copied()).collect())
    }

    /// A table of 1–3 columns of random types, with NULLs anywhere.
    fn table() -> impl proptest::Strategy<Value = Table> {
        let cell = proptest::option::of((-1000i64..1000, -1e6f64..1e6, text()));
        let rows = proptest::collection::vec(proptest::collection::vec(cell, 3), 0..8);
        (proptest::collection::vec(0usize..3, 1..4), rows).prop_map(|(kinds, rows)| {
            let types = [DataType::Int, DataType::Float, DataType::Str];
            let schema: Vec<(String, DataType)> =
                kinds.iter().enumerate().map(|(c, &k)| (format!("c{c}"), types[k])).collect();
            let schema: Vec<(&str, DataType)> =
                schema.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let mut t = Table::empty("t", &schema);
            for row in rows {
                let values = kinds.iter().zip(row).map(|(&k, cell)| match (k, cell) {
                    (_, None) => Value::Null,
                    (0, Some((i, _, _))) => Value::Int(i),
                    (1, Some((_, f, _))) => Value::Float(f),
                    (_, Some((_, _, s))) => Value::Str(s),
                });
                t.push_row(values.collect()).unwrap();
            }
            t
        })
    }

    proptest::proptest! {
        #[test]
        fn csv_round_trips_arbitrary_text(t in table()) {
            // The one table shape CSV cannot carry is refused, not mangled.
            let unwritable = matches!(t.columns(), [c] if c.null_count() > 0);
            let mut buf = Vec::new();
            let written = write_csv(&t, &mut buf);
            if unwritable {
                let kind = written.map_err(|e| e.kind());
                proptest::prop_assert_eq!(kind, Err(std::io::ErrorKind::InvalidInput));
                proptest::prop_assert!(buf.is_empty());
                return Ok(());
            }
            written.unwrap();
            let types: Vec<DataType> = t.columns().iter().map(ColumnVector::data_type).collect();
            let back = read_csv("t", &mut Cursor::new(&buf), Some(&types)).unwrap();
            proptest::prop_assert_eq!(back.column_names(), t.column_names());
            proptest::prop_assert_eq!(rows(&back), rows(&t), "{}", String::from_utf8_lossy(&buf));
        }

        #[test]
        fn read_csv_never_panics_on_random_bytes(
            ix in proptest::collection::vec(0..BYTES.len(), 0..40),
            typed in proptest::bool::ANY,
        ) {
            let bytes: Vec<u8> = ix.iter().filter_map(|&i| BYTES.get(i).copied()).collect();
            let schema = [DataType::Str, DataType::Int];
            let _ = read_csv("t", &mut Cursor::new(&bytes), typed.then_some(&schema[..]));
        }
    }
}
