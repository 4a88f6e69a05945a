//! A small, dependency-free CSV reader/writer (RFC 4180 subset).
//!
//! Handles quoted fields, embedded commas, embedded quotes (`""`), and
//! embedded newlines inside quotes. Type inference is delegated to
//! [`crate::infer`].

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::infer::{ColumnInfer, InferOptions};
use crate::table::{Table, TableBuilder};
use std::borrow::Cow;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// Where the tokeniser delivers a document, in document order: each field
/// of a non-blank record, then the record's end. Fields borrow from the
/// input; one is owned only when it is not a contiguous slice of it (a `""`
/// escape or a dropped `\r` in the middle).
trait RecordSink<'a> {
    fn field(&mut self, field: Cow<'a, str>);
    fn end_record(&mut self);
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

/// The one CSV tokeniser: splits `text` into records of fields for `sink`,
/// skipping blank lines. Every byte it branches on is ASCII, so all slice
/// bounds fall on character boundaries.
fn tokenize<'a>(text: &'a str, sink: &mut impl RecordSink<'a>) -> Result<()> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let mut line = 1;
    while pos < bytes.len() {
        let start_line = line;
        let mut field = FieldRun::at(pos);
        let mut first_field = true;
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
            let special = bytes.get(pos).copied();
            pos += 1;
            match special {
                None if in_quotes => {
                    return Err(DataError::Csv {
                        line: start_line,
                        message: "unterminated quoted field".into(),
                    });
                }
                Some(b'"') if in_quotes => {
                    if bytes.get(pos) == Some(&b'"') {
                        // `""`: keep the first quote (adjacent to the run
                        // so far), skip the second
                        field.extend(text, pos - 1, pos);
                        pos += 1;
                    } else {
                        in_quotes = false;
                    }
                }
                Some(b'"') => {
                    if !field.is_empty() {
                        return Err(DataError::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                Some(b',') => {
                    sink.field(std::mem::replace(&mut field, FieldRun::at(pos)).finish(text));
                    first_field = false;
                }
                Some(b'\n') | None => {
                    line += usize::from(special.is_some());
                    // a lone empty field is a blank line
                    if !(first_field && field.is_empty()) {
                        sink.field(field.finish(text));
                        sink.end_record();
                    }
                    break;
                }
                // `\r\n` ends the record at its `\n`; a lone `\r` is dropped
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// Parses CSV text into raw rows of string fields.
///
/// The first record is NOT treated specially; header handling happens in
/// [`read_csv`]. Blank lines are ignored.
pub fn parse_rows(text: &str) -> Result<Vec<Vec<String>>> {
    #[derive(Default)]
    struct Rows {
        rows: Vec<Vec<String>>,
        row: Vec<String>,
    }
    impl<'a> RecordSink<'a> for Rows {
        fn field(&mut self, field: Cow<'a, str>) {
            self.row.push(field.into_owned());
        }
        fn end_record(&mut self) {
            self.rows.push(std::mem::take(&mut self.row));
        }
    }
    let mut sink = Rows::default();
    tokenize(text, &mut sink)?;
    Ok(sink.rows)
}

/// One reading of a document into typed columns: the header's names, then
/// every field handed straight to its column's [`ColumnInfer`].
struct TableReader<'o> {
    options: &'o InferOptions,
    header: Vec<String>,
    /// Empty until the header ends, unless the caller chose the columns'
    /// starting states (the second reading).
    columns: Vec<ColumnInfer>,
    /// Records finished so far, the header included.
    records: usize,
    /// Fields seen so far in the current record.
    fields: usize,
    /// The first record whose width is not the header's.
    ragged: Option<DataError>,
}

impl<'o> TableReader<'o> {
    fn new(options: &'o InferOptions, columns: Vec<ColumnInfer>) -> Self {
        Self {
            options,
            header: Vec::new(),
            columns,
            records: 0,
            fields: 0,
            ragged: None,
        }
    }
}

impl<'a> RecordSink<'a> for TableReader<'_> {
    fn field(&mut self, field: Cow<'a, str>) {
        if self.records == 0 {
            self.header.push(field.into_owned());
        } else if let Some(column) = self.columns.get_mut(self.fields) {
            column.push(&field, self.options);
        }
        self.fields += 1;
    }

    fn end_record(&mut self) {
        self.records += 1;
        let width = self.header.len();
        if self.columns.is_empty() {
            self.columns.resize_with(width, ColumnInfer::numeric);
        }
        if self.fields != width && self.ragged.is_none() {
            self.ragged = Some(DataError::Csv {
                line: self.records,
                message: format!("expected {width} fields, found {}", self.fields),
            });
        }
        self.fields = 0;
    }
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
/// One pass: the text is tokenised once and each field goes straight into
/// its column — a speculative `f64` push, or a dictionary-encoded label once
/// the column has shown text — with no per-field `String` and no collection
/// of the fields. Only columns that turn categorical after numbers (late
/// text, or the low-cardinality-integer rule) cost a second tokenising pass,
/// which reads just those.
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
    let mut reader = TableReader::new(options, Vec::new());
    tokenize(text, &mut reader)?;
    if reader.records == 0 {
        return Err(DataError::Empty("csv document has no rows"));
    }
    if let Some(ragged) = reader.ragged {
        return Err(ragged);
    }
    let mut columns: Vec<Option<Column>> = reader
        .columns
        .into_iter()
        .map(|column| column.finish(options))
        .collect();
    if columns.iter().any(Option::is_none) {
        let again = columns.iter().map(|column| match column {
            None => ColumnInfer::categorical(),
            Some(_) => ColumnInfer::Skipped,
        });
        let mut second = TableReader::new(options, again.collect());
        tokenize(text, &mut second)?;
        for (column, reread) in columns.iter_mut().zip(second.columns) {
            *column = column.take().or_else(|| reread.finish(options));
        }
    }
    reader
        .header
        .into_iter()
        .zip(columns)
        .fold(TableBuilder::new(name), |builder, (name, column)| {
            builder.column(name, column.expect("a categorical reading always finishes"))
        })
        .build()
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
        // so is a long one, at the first row that is off
        assert_eq!(
            err("a,b\n1,2\n1,2,3\n4\n"),
            (3, "expected 2 fields, found 3".to_owned())
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
        #[derive(Default)]
        struct Fields<'a>(Vec<Cow<'a, str>>);
        impl<'a> RecordSink<'a> for Fields<'a> {
            fn field(&mut self, field: Cow<'a, str>) {
                self.0.push(field);
            }
            fn end_record(&mut self) {}
        }
        let src = "a,\"b c\",\"d\"\"\"\r\n\"x\"\"y\",l\rm,\"q\"r\n";
        let mut fields = Fields::default();
        tokenize(src, &mut fields).unwrap();
        let owned: Vec<bool> = fields
            .0
            .iter()
            .map(|f| matches!(f, Cow::Owned(_)))
            .collect();
        assert_eq!(fields.0[2], "d\"");
        assert_eq!(fields.0[3], "x\"y");
        assert_eq!(fields.0[4], "lm");
        assert_eq!(fields.0[5], "qr");
        // only the mid-field `""`, the stray `\r` and the text after a
        // closing quote had to be copied
        assert_eq!(owned, [false, false, false, true, true, true]);
    }

    #[test]
    fn padded_null_tokens_are_missing() {
        let options = InferOptions::default();
        // numeric column: a padded token is a missing cell, not text
        let t = read_csv_str("x\n1.5\n NA \n2.5\n", "t", &options).unwrap();
        let x = t.numeric_by_name("x").unwrap();
        assert_eq!(x.values()[0], 1.5);
        assert!(x.values()[1].is_nan());
        assert_eq!(x.values()[2], 2.5);
        // categorical column: missing, not the label `NA`; whitespace alone
        // is the empty token
        let t = read_csv_str("c,d\na,1\n NA ,2\nb,3\n\" \",4\n", "t", &options).unwrap();
        let c = t.categorical_by_name("c").unwrap();
        assert_eq!(c.labels(), ["a", "b"]);
        assert_eq!(
            c.codes(),
            [0, crate::column::NULL_CODE, 1, crate::column::NULL_CODE]
        );
        // as padded numbers always were
        let t = read_csv_str("x\n 2.5 \n\tnull\n", "t", &options).unwrap();
        assert_eq!(t.numeric_by_name("x").unwrap().null_count(), 1);
    }

    #[test]
    fn late_text_demotes_a_numeric_column() {
        let options = InferOptions::default();
        // text after numbers: the earlier cells come back as the labels
        // they were written as, not as reformatted numbers
        let t = read_csv_str(
            "x,c,y\n1.0,\"1,234\",5\nNA,7,6\n 2 ,seven,7\n",
            "t",
            &options,
        )
        .unwrap();
        assert_eq!(t.numeric_by_name("x").unwrap().null_count(), 1);
        let c = t.categorical_by_name("c").unwrap();
        assert_eq!(c.labels(), ["1,234", "7", "seven"]);
        assert_eq!(t.numeric_by_name("y").unwrap().values(), [5.0, 6.0, 7.0]);
        // text after only missing cells needs no second reading
        let t = read_csv_str("c\nNA\n\"\"\nu\n3\n", "t", &options).unwrap();
        let c = t.categorical_by_name("c").unwrap();
        assert_eq!(c.labels(), ["u", "3"]);
        // (the `""` line is blank, not a row)
        assert_eq!(c.null_count(), 1);
        // the integer-code rule reclassifies at the end of the column
        let codes = InferOptions {
            max_integer_categories: 2,
            ..Default::default()
        };
        let t = read_csv_str("k,v\n01,1\n2,2\n01,3\n", "t", &codes).unwrap();
        assert_eq!(t.categorical_by_name("k").unwrap().labels(), ["01", "2"]);
        assert!(t.numeric_by_name("v").is_ok());
    }

    /// The readers this module had before the one-pass one, kept as the
    /// differential oracle: the record parser of the first (it pushes bytes
    /// as chars, so it is only right on ASCII input) and the strided,
    /// two-pass type inference of the second — verbatim but for trimming a
    /// field before asking whether it is null, the fix the one-pass reader
    /// shipped with.
    mod oracle {
        use super::*;
        use crate::column::{CategoricalColumn, NumericColumn};

        fn parse_number(field: &str) -> Option<f64> {
            let trimmed = field.trim();
            if trimmed.is_empty() {
                return None;
            }
            let cleaned: String;
            let candidate = if trimmed.contains(',') {
                cleaned = trimmed.replace(',', "");
                &cleaned
            } else {
                trimmed
            };
            candidate.parse::<f64>().ok().filter(|v| v.is_finite())
        }

        fn infer_columns(
            name: &str,
            header: &[String],
            body: &[String],
            options: &InferOptions,
        ) -> Result<Table> {
            let width = header.len();
            let mut builder = TableBuilder::new(name);
            for (c, col_name) in header.iter().enumerate() {
                let fields = body.iter().skip(c).step_by(width).map(|f| f.trim());
                builder = if let Some(values) = try_numeric(fields.clone(), options) {
                    builder.column(col_name, NumericColumn::new(values))
                } else {
                    let cells = fields.map(|f| if options.is_null(f) { None } else { Some(f) });
                    builder.column(col_name, CategoricalColumn::from_options(cells))
                };
            }
            builder.build()
        }

        fn try_numeric<'a>(
            fields: impl Iterator<Item = &'a str> + Clone,
            options: &InferOptions,
        ) -> Option<Vec<f64>> {
            let mut values = Vec::new();
            let mut any_present = false;
            for f in fields {
                if options.is_null(f) {
                    values.push(f64::NAN);
                } else {
                    let v = parse_number(f)?;
                    any_present = true;
                    values.push(v);
                }
            }
            if !any_present {
                return None; // all-missing columns default to categorical
            }
            if options.max_integer_categories > 0 {
                let all_int = values
                    .iter()
                    .filter(|v| !v.is_nan())
                    .all(|v| v.fract() == 0.0);
                if all_int {
                    let mut distinct: Vec<i64> = values
                        .iter()
                        .filter(|v| !v.is_nan())
                        .map(|&v| v as i64)
                        .collect();
                    distinct.sort_unstable();
                    distinct.dedup();
                    if distinct.len() <= options.max_integer_categories {
                        return None;
                    }
                }
            }
            Some(values)
        }

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

    /// Same value by `same`, or same error (variant, message and line
    /// number).
    fn same_outcome<T>(new: &Result<T>, old: &Result<T>, same: impl Fn(&T, &T) -> bool) -> bool {
        match (new, old) {
            (Ok(a), Ok(b)) => same(a, b),
            (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
            _ => false,
        }
    }

    /// Cell for cell: numeric values bit for bit (missing cells are NaN, so
    /// `==` would not do), labels and codes on categoricals.
    fn same_table(a: &Table, b: &Table) -> bool {
        let same_column = |(x, y): (&Column, &Column)| match (x, y) {
            (Column::Numeric(x), Column::Numeric(y)) => {
                let bits = |c: &crate::column::NumericColumn| {
                    c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                bits(x) == bits(y)
            }
            _ => x == y,
        };
        a.name() == b.name()
            && a.schema() == b.schema()
            && a.n_rows() == b.n_rows()
            && a.columns().iter().zip(b.columns()).all(same_column)
    }

    /// Both readers on `text`, under the default options and under the
    /// low-cardinality-integer rule.
    fn check_against_oracle(text: &str) -> std::result::Result<(), proptest::TestCaseError> {
        let rows = parse_rows(text);
        let rows_old = oracle::parse_rows(text);
        proptest::prop_assert!(
            same_outcome(&rows, &rows_old, |a, b| a == b),
            "parse_rows({:?}): {:?} vs oracle {:?}",
            text,
            rows,
            rows_old
        );
        for max_integer_categories in [0, 2] {
            let options = InferOptions {
                max_integer_categories,
                ..Default::default()
            };
            let table = read_csv_str(text, "t", &options);
            let table_old = oracle::read_csv_str(text, "t", &options);
            proptest::prop_assert!(
                same_outcome(&table, &table_old, same_table),
                "read_csv_str({:?}, {}): {:?} vs oracle {:?}",
                text,
                max_integer_categories,
                table,
                table_old
            );
        }
        Ok(())
    }

    const NUMBERS: [&str; 12] = [
        "1",
        "2",
        "2.5",
        "-3e2",
        "07",
        " 4 ",
        "\t5",
        "\"6\"",
        "\" 7.25 \"",
        "\"1,234\"",
        "\"-1,234,567.5\"",
        "1e400",
    ];
    const NULLS: [&str; 14] = [
        "", "NA", "na", "Na", "nA", "N/A", "n/a", "null", "NULL", "nUlL", "NaN", "nan", " NA ",
        "\"  \"",
    ];
    const TEXTS: [&str; 8] = ["a", "b", " a ", "b c", "\"x\"\"y\"", "\"p,q\"", "1x", "inf"];

    /// A document built column by column: each column is numeric, text,
    /// numeric turning to text at some row, all missing, or anything per
    /// cell; rows may be ragged, blank lines and either line ending occur.
    fn document() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::Strategy;
        let kinds = proptest::collection::vec((0u8..5, 0usize..6), 1..5);
        let cells =
            proptest::collection::vec(proptest::collection::vec((0usize..64, 0u8..6), 4), 0..9);
        let ragged = (0u8..3, 0usize..9, 0u8..2);
        (kinds, cells, ragged, 0u8..2, 0u8..4).prop_map(
            |(kinds, cells, (ragged, ragged_row, longer), crlf, duplicate)| {
                let eol = if crlf == 1 { "\r\n" } else { "\n" };
                let mut names: Vec<String> = (0..kinds.len()).map(|c| format!("c{c}")).collect();
                if duplicate == 0 {
                    names[kinds.len() - 1] = "c0".to_owned();
                }
                let mut text = names.join(",") + eol;
                for (r, picks) in cells.iter().enumerate() {
                    let mut row: Vec<&str> = kinds
                        .iter()
                        .zip(picks)
                        .map(|(&(kind, turn), &(i, roll))| {
                            let number = || {
                                if roll == 0 {
                                    NULLS[i % 14]
                                } else {
                                    NUMBERS[i % 12]
                                }
                            };
                            let label = || {
                                if roll == 0 {
                                    NULLS[i % 14]
                                } else {
                                    TEXTS[i % 8]
                                }
                            };
                            match kind {
                                0 => number(),
                                1 => label(),
                                2 if r < turn => number(),
                                2 => label(),
                                3 => NULLS[i % 14],
                                _ if roll < 3 => number(),
                                _ => label(),
                            }
                        })
                        .collect();
                    if ragged == 0 && r == ragged_row {
                        if longer == 1 {
                            row.push("9");
                        } else {
                            row.pop();
                        }
                    }
                    text += &row.join(",");
                    text += eol;
                    if picks[0].1 == 5 {
                        text += eol; // a blank line
                    }
                }
                text
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// New reader ≡ old reader on ASCII documents built from the
        /// characters the tokeniser branches on.
        #[test]
        fn reader_matches_the_old_parser(
            text in proptest::string::string_regex("[ab1.N ,,,\"\"\n\n\n\r]{0,48}").expect("valid regex"),
            document in document()
        ) {
            check_against_oracle(&text)?;
            check_against_oracle(&document)?;
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
