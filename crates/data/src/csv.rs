//! A small, dependency-free CSV reader/writer (RFC 4180 subset).
//!
//! Handles quoted fields, embedded commas, embedded quotes (`""`), and
//! embedded newlines inside quotes. Type inference is delegated to
//! [`crate::infer`].

use crate::error::{DataError, Result};
use crate::infer::{infer_columns, InferOptions};
use crate::table::Table;
use std::borrow::Cow;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// A tokenised document: every field of every non-blank record, flat and in
/// document order. Fields borrow from the input; one is owned only when it
/// is not a contiguous slice of it (a `""` escape or a dropped `\r` in the
/// middle).
struct Records<'a> {
    fields: Vec<Cow<'a, str>>,
    /// `ends[r]` is one past the index of record `r`'s last field.
    ends: Vec<usize>,
}

impl<'a> Records<'a> {
    /// The records as slices of their fields, in document order.
    fn iter(&self) -> impl Iterator<Item = &[Cow<'a, str>]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let record = &self.fields[start..end];
            start = end;
            record
        })
    }
}

/// One field under construction: an owned decoded prefix (only once the
/// field stops being contiguous in the input) plus the current run
/// `text[start..end]`.
struct FieldRun {
    owned: Option<String>,
    start: usize,
    end: usize,
}

impl FieldRun {
    fn at(pos: usize) -> Self {
        Self {
            owned: None,
            start: pos,
            end: pos,
        }
    }

    fn is_empty(&self) -> bool {
        self.owned.is_none() && self.start == self.end
    }

    /// Appends `text[from..to]`; free while the pieces stay adjacent.
    fn extend(&mut self, text: &str, from: usize, to: usize) {
        if from == to {
            return;
        }
        if self.start == self.end {
            self.start = from;
        } else if self.end != from {
            self.owned
                .get_or_insert_with(String::new)
                .push_str(&text[self.start..self.end]);
            self.start = from;
        }
        self.end = to;
    }

    fn finish(self, text: &str) -> Cow<'_, str> {
        let run = &text[self.start..self.end];
        match self.owned {
            None => Cow::Borrowed(run),
            Some(mut owned) => {
                owned.push_str(run);
                Cow::Owned(owned)
            }
        }
    }
}

/// The one CSV tokeniser: splits `text` into records of fields, skipping
/// blank lines. Every byte it branches on is ASCII, so all slice bounds
/// fall on character boundaries.
fn tokenize(text: &str) -> Result<Records<'_>> {
    let bytes = text.as_bytes();
    let mut out = Records {
        fields: Vec::new(),
        ends: Vec::new(),
    };
    let mut pos = 0;
    let mut line = 1;
    while pos < bytes.len() {
        let first = out.fields.len();
        let start_line = line;
        let mut field = FieldRun::at(pos);
        let mut in_quotes = false;
        loop {
            let run = pos;
            if in_quotes {
                while pos < bytes.len() && bytes[pos] != b'"' {
                    line += usize::from(bytes[pos] == b'\n');
                    pos += 1;
                }
            } else {
                while pos < bytes.len() && !matches!(bytes[pos], b',' | b'\n' | b'\r' | b'"') {
                    pos += 1;
                }
            }
            field.extend(text, run, pos);
            let Some(&special) = bytes.get(pos) else {
                if in_quotes {
                    return Err(DataError::Csv {
                        line: start_line,
                        message: "unterminated quoted field".into(),
                    });
                }
                out.fields.push(field.finish(text));
                break;
            };
            pos += 1;
            match special {
                b'"' if in_quotes => {
                    if bytes.get(pos) == Some(&b'"') {
                        // `""`: keep the first quote (adjacent to the run
                        // so far), skip the second
                        field.extend(text, pos - 1, pos);
                        pos += 1;
                    } else {
                        in_quotes = false;
                    }
                }
                b'"' => {
                    if !field.is_empty() {
                        return Err(DataError::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                b',' => {
                    out.fields
                        .push(std::mem::replace(&mut field, FieldRun::at(pos)).finish(text));
                }
                b'\n' => {
                    line += 1;
                    out.fields.push(field.finish(text));
                    break;
                }
                // `\r\n` ends the record at its `\n`; a lone `\r` is dropped
                _ => {}
            }
        }
        if out.fields.len() == first + 1 && out.fields[first].is_empty() {
            out.fields.pop(); // blank line
        } else {
            out.ends.push(out.fields.len());
        }
    }
    Ok(out)
}

/// Parses CSV text into raw rows of string fields.
///
/// The first record is NOT treated specially; header handling happens in
/// [`read_csv`]. Blank lines are ignored.
pub fn parse_rows(text: &str) -> Result<Vec<Vec<String>>> {
    let records = tokenize(text)?;
    let rows = records
        .iter()
        .map(|record| record.iter().map(|f| f.to_string()).collect())
        .collect();
    Ok(rows)
}

/// Reads a CSV document (with a header row) from any reader and infers a
/// typed [`Table`].
pub fn read_csv_from(reader: impl Read, name: &str, options: &InferOptions) -> Result<Table> {
    let mut text = String::new();
    BufReader::new(reader).read_to_string(&mut text)?;
    read_csv_str(&text, name, options)
}

/// Reads a CSV document (with a header row) from a string.
///
/// The text is tokenised once into field slices and each column is inferred
/// and built straight from its stride — no per-field `String`.
///
/// # Examples
/// ```
/// use foresight_data::csv::read_csv_str;
/// use foresight_data::infer::InferOptions;
///
/// let t = read_csv_str("x,label\n1.5,a\n2.5,b\n", "demo", &InferOptions::default()).unwrap();
/// assert_eq!(t.n_rows(), 2);
/// assert!(t.numeric_by_name("x").is_ok());
/// assert!(t.categorical_by_name("label").is_ok());
/// ```
pub fn read_csv_str(text: &str, name: &str, options: &InferOptions) -> Result<Table> {
    let records = tokenize(text)?;
    let Some(&width) = records.ends.first() else {
        return Err(DataError::Empty("csv document has no rows"));
    };
    for (i, record) in records.iter().enumerate().skip(1) {
        if record.len() != width {
            return Err(DataError::Csv {
                line: i + 1,
                message: format!("expected {width} fields, found {}", record.len()),
            });
        }
    }
    let (header, body) = records.fields.split_at(width);
    infer_columns(name, header, body, options)
}

/// Reads a CSV file from disk.
pub fn read_csv(path: impl AsRef<Path>, options: &InferOptions) -> Result<Table> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_owned());
    let file = std::fs::File::open(path)?;
    read_csv_from(file, &name, options)
}

/// Escapes one field for CSV output.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Writes a table as CSV (header + rows) to any writer.
pub fn write_csv_to(table: &Table, mut writer: impl Write) -> Result<()> {
    let header: Vec<String> = table.schema().names().map(escape).collect();
    writeln!(writer, "{}", header.join(","))?;
    for r in 0..table.n_rows() {
        let row: Vec<String> = table
            .row(r)
            .iter()
            .map(|v| escape(&v.to_string()))
            .collect();
        writeln!(writer, "{}", row.join(","))?;
    }
    Ok(())
}

/// Serializes a table to a CSV string.
pub fn write_csv_string(table: &Table) -> Result<String> {
    let mut buf = Vec::new();
    write_csv_to(table, &mut buf)?;
    Ok(String::from_utf8(buf).expect("csv output is utf-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_parse() {
        let rows = parse_rows("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec!["a", "b"]);
        assert_eq!(rows[2], vec!["3", "4"]);
    }

    #[test]
    fn quoted_fields() {
        let rows = parse_rows("\"a,b\",\"he said \"\"hi\"\"\"\n\"multi\nline\",x\n").unwrap();
        assert_eq!(rows[0], vec!["a,b", "he said \"hi\""]);
        assert_eq!(rows[1], vec!["multi\nline", "x"]);
    }

    #[test]
    fn crlf_and_trailing_newline() {
        let rows = parse_rows("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
        // no trailing newline
        let rows = parse_rows("a,b\n1,2").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse_rows("\"unterminated"),
            Err(DataError::Csv { .. })
        ));
        assert!(matches!(parse_rows("ab\"cd,e"), Err(DataError::Csv { .. })));
        assert!(matches!(
            read_csv_str("a,b\n1\n", "t", &InferOptions::default()),
            Err(DataError::Csv { .. })
        ));
        assert!(matches!(
            read_csv_str("", "t", &InferOptions::default()),
            Err(DataError::Empty(_))
        ));
    }

    #[test]
    fn typed_read() {
        let t = read_csv_str(
            "x,cat,y\n1,a,10\n2,b,\n3,a,30\n",
            "t",
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(t.n_rows(), 3);
        let y = t.numeric_by_name("y").unwrap();
        assert_eq!(y.null_count(), 1);
        assert_eq!(t.categorical_by_name("cat").unwrap().cardinality(), 2);
    }

    #[test]
    fn error_messages_and_lines() {
        let err = |text: &str| match read_csv_str(text, "t", &InferOptions::default()) {
            Err(DataError::Csv { line, message }) => (line, message),
            other => panic!("expected a csv error for {text:?}, got {other:?}"),
        };
        // the quote error names the line it is on, counting newlines inside
        // quoted fields of the same record
        assert_eq!(
            err("a,b\n\"x\ny\",p\"q\n"),
            (3, "quote inside unquoted field".to_owned())
        );
        // an unterminated quote names the line its record starts on
        assert_eq!(
            err("a,b\n1,2\n\"open,3\n4,5\n"),
            (3, "unterminated quoted field".to_owned())
        );
        // a ragged row is numbered by record (header = 1), blank lines skipped
        assert_eq!(
            err("a,b\n\n1,2\n3\n"),
            (3, "expected 2 fields, found 1".to_owned())
        );
        // a parse error anywhere outranks an earlier ragged row
        assert_eq!(
            err("a,b\n1\nx\"y\n"),
            (3, "quote inside unquoted field".to_owned())
        );
    }

    #[test]
    fn non_ascii_fields_survive() {
        // header, unquoted, quoted, and multi-byte characters next to `""`
        let src = "naïve,city\nZürich,\"São \"\"Paulo\"\", 日本\"\n€5,\"Ω\"\"\"\n";
        let rows = parse_rows(src).unwrap();
        assert_eq!(rows[0], vec!["naïve", "city"]);
        assert_eq!(rows[1], vec!["Zürich", "São \"Paulo\", 日本"]);
        assert_eq!(rows[2], vec!["€5", "Ω\""]);
        let t = read_csv_str(src, "t", &InferOptions::default()).unwrap();
        assert_eq!(
            t.categorical_by_name("naïve").unwrap().get(0),
            Some("Zürich")
        );
        // and the writer's output reads back to the same table
        let again = read_csv_str(
            &write_csv_string(&t).unwrap(),
            "t",
            &InferOptions::default(),
        )
        .unwrap();
        assert_eq!(t, again);
    }

    #[test]
    fn unescaped_fields_borrow_from_the_input() {
        let src = "a,\"b c\",\"d\"\"\"\r\n\"x\"\"y\",l\rm,\"q\"r\n";
        let records = tokenize(src).unwrap();
        let owned: Vec<bool> = records
            .fields
            .iter()
            .map(|f| matches!(f, Cow::Owned(_)))
            .collect();
        assert_eq!(records.fields[2], "d\"");
        assert_eq!(records.fields[3], "x\"y");
        assert_eq!(records.fields[4], "lm");
        assert_eq!(records.fields[5], "qr");
        // only the mid-field `""`, the stray `\r` and the text after a
        // closing quote had to be copied
        assert_eq!(owned, [false, false, false, true, true, true]);
    }

    /// The reader this module had before the columnar one, kept verbatim as
    /// the differential oracle (it pushes bytes as chars, so it is only
    /// right on ASCII input).
    mod oracle {
        use super::*;

        fn parse_record(
            input: &[u8],
            mut pos: usize,
            line: &mut usize,
        ) -> Result<(Vec<String>, usize)> {
            let mut fields = Vec::new();
            let mut field = String::new();
            let mut in_quotes = false;
            let start_line = *line;

            while pos < input.len() {
                let b = input[pos];
                if in_quotes {
                    match b {
                        b'"' => {
                            if input.get(pos + 1) == Some(&b'"') {
                                field.push('"');
                                pos += 2;
                            } else {
                                in_quotes = false;
                                pos += 1;
                            }
                        }
                        b'\n' => {
                            field.push('\n');
                            *line += 1;
                            pos += 1;
                        }
                        _ => {
                            field.push(b as char);
                            pos += 1;
                        }
                    }
                } else {
                    match b {
                        b'"' => {
                            if !field.is_empty() {
                                return Err(DataError::Csv {
                                    line: *line,
                                    message: "quote inside unquoted field".into(),
                                });
                            }
                            in_quotes = true;
                            pos += 1;
                        }
                        b',' => {
                            fields.push(std::mem::take(&mut field));
                            pos += 1;
                        }
                        b'\r' => {
                            if input.get(pos + 1) == Some(&b'\n') {
                                pos += 1;
                                continue;
                            }
                            pos += 1; // lone \r: ignore
                        }
                        b'\n' => {
                            *line += 1;
                            fields.push(field);
                            return Ok((fields, pos + 1));
                        }
                        _ => {
                            field.push(b as char);
                            pos += 1;
                        }
                    }
                }
            }
            if in_quotes {
                return Err(DataError::Csv {
                    line: start_line,
                    message: "unterminated quoted field".into(),
                });
            }
            fields.push(field);
            Ok((fields, pos))
        }

        pub fn parse_rows(text: &str) -> Result<Vec<Vec<String>>> {
            let bytes = text.as_bytes();
            let mut rows = Vec::new();
            let mut pos = 0;
            let mut line = 1;
            while pos < bytes.len() {
                let (fields, next) = parse_record(bytes, pos, &mut line)?;
                pos = next;
                if fields.len() == 1 && fields[0].is_empty() {
                    continue; // blank line
                }
                rows.push(fields);
            }
            Ok(rows)
        }

        pub fn read_csv_str(text: &str, name: &str, options: &InferOptions) -> Result<Table> {
            let mut rows = parse_rows(text)?;
            if rows.is_empty() {
                return Err(DataError::Empty("csv document has no rows"));
            }
            let header = rows.remove(0);
            let width = header.len();
            for (i, row) in rows.iter().enumerate() {
                if row.len() != width {
                    return Err(DataError::Csv {
                        line: i + 2,
                        message: format!("expected {width} fields, found {}", row.len()),
                    });
                }
            }
            let body: Vec<String> = rows.into_iter().flatten().collect();
            infer_columns(name, &header, &body, options)
        }
    }

    /// Same table or same error (variant, message and line number).
    fn same_outcome<T: PartialEq + std::fmt::Debug>(new: &Result<T>, old: &Result<T>) -> bool {
        match (new, old) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
            _ => false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// New reader ≡ old reader on ASCII documents built from the
        /// characters the tokeniser branches on.
        #[test]
        fn reader_matches_the_old_parser(
            text in proptest::string::string_regex("[ab1.N ,,,\"\"\n\n\n\r]{0,48}").expect("valid regex")
        ) {
            let rows = parse_rows(&text);
            let rows_old = oracle::parse_rows(&text);
            proptest::prop_assert!(
                same_outcome(&rows, &rows_old),
                "parse_rows({:?}): {:?} vs oracle {:?}", text, rows, rows_old
            );
            let options = InferOptions::default();
            let table = read_csv_str(&text, "t", &options);
            let table_old = oracle::read_csv_str(&text, "t", &options);
            proptest::prop_assert!(
                same_outcome(&table, &table_old),
                "read_csv_str({:?}): {:?} vs oracle {:?}", text, table, table_old
            );
        }
    }

    #[test]
    fn round_trip() {
        let src = "x,cat\n1,a\n2,\"b,c\"\n";
        let t = read_csv_str(src, "t", &InferOptions::default()).unwrap();
        let out = write_csv_string(&t).unwrap();
        let t2 = read_csv_str(&out, "t", &InferOptions::default()).unwrap();
        assert_eq!(t, t2);
    }
}
