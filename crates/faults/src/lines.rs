//! The one reader behind every line-oriented text format in the
//! workspace; see [`LineReader`].

use std::fmt;
use std::str::{FromStr, Lines};

/// A malformed line in one of the text formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl LineError {
    /// An error at 1-based line `line`.
    pub fn new(line: usize, message: impl Into<String>) -> LineError {
        LineError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LineError {}

/// The reader shared by the `rbms` v1/v2 profiles, `charjournal v2`
/// journals and the `faultplan v1` and `netfaults v1` scripts.
///
/// [`open`](LineReader::open) checks the header line. The reader then
/// yields the remaining lines as `(line number, trimmed line)` pairs: one
/// at a time through [`field`](LineReader::field) for fixed `key value`
/// lines, then as an iterator, or through
/// [`each_record`](LineReader::each_record), which skips blank lines and
/// `#` comments. Every error is a [`LineError`] naming its line; each
/// format keeps only its record grammar.
#[derive(Debug, Clone)]
pub struct LineReader<'a> {
    lines: Lines<'a>,
    /// Number of the last line read; the header is line 1.
    line: usize,
}

impl<'a> LineReader<'a> {
    /// Checks that the first line of `text`, trimmed, is one of
    /// `headers`. Returns the index of the matching header and a reader
    /// over the lines after it.
    ///
    /// # Errors
    ///
    /// `empty {what}` when `text` has no lines, `bad header "…"`
    /// otherwise; both at line 1.
    pub fn open(
        text: &'a str,
        what: &str,
        headers: &[&str],
    ) -> Result<(usize, LineReader<'a>), LineError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| LineError::new(1, format!("empty {what}")))?;
        let version = headers
            .iter()
            .position(|h| *h == header.trim())
            .ok_or_else(|| LineError::new(1, format!("bad header {header:?}")))?;
        Ok((version, LineReader { lines, line: 1 }))
    }

    /// An error at the last line read (the header, line 1, before any).
    pub fn error(&self, message: impl Into<String>) -> LineError {
        LineError::new(self.line, message)
    }

    /// Reads the next line as `key value` and parses the value.
    ///
    /// # Errors
    ///
    /// `missing {key}` at the line where it belongs when the text has
    /// ended; `bad {key} line "…"` when the line is not `key value` or the
    /// value does not parse.
    pub fn field<T: FromStr>(&mut self, key: &str) -> Result<T, LineError> {
        let Some(raw) = self.lines.next() else {
            return Err(LineError::new(self.line + 1, format!("missing {key}")));
        };
        self.line += 1;
        raw.trim()
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|value| value.parse().ok())
            .ok_or_else(|| self.error(format!("bad {key} line {raw:?}")))
    }

    /// Feeds each remaining line that is neither blank nor a `#` comment
    /// to `record`, and stops at the first error, naming its line.
    ///
    /// # Errors
    ///
    /// The first message `record` returns, at that record's line.
    pub fn each_record(
        self,
        mut record: impl FnMut(&'a str) -> Result<(), String>,
    ) -> Result<(), LineError> {
        for (line, text) in self {
            if !text.is_empty() && !text.starts_with('#') {
                record(text).map_err(|m| LineError::new(line, m))?;
            }
        }
        Ok(())
    }
}

impl<'a> Iterator for LineReader<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let raw = self.lines.next()?;
        self.line += 1;
        Some((self.line, raw.trim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_picks_a_version_or_names_line_one() {
        let (v, _) = LineReader::open(" fmt v2 \nx", "doc", &["fmt v1", "fmt v2"]).unwrap();
        assert_eq!(v, 1);
        let err = LineReader::open("", "doc", &["fmt v1"]).unwrap_err();
        assert_eq!(err, LineError::new(1, "empty doc"));
        let err = LineReader::open("fmt v0\n", "doc", &["fmt v1"]).unwrap_err();
        assert_eq!(err.to_string(), "line 1: bad header \"fmt v0\"");
    }

    #[test]
    fn lines_are_numbered_trimmed_and_fields_checked() {
        let text = "fmt v1\n width 3 \nname  x\n\n# note\n  a b  \n";
        let (_, mut r) = LineReader::open(text, "doc", &["fmt v1"]).unwrap();
        assert_eq!(r.field::<usize>("width"), Ok(3));
        assert_eq!(r.field::<String>("name"), Ok(" x".to_string()));
        assert_eq!(r.error("x").line, 3);
        let rest: Vec<_> = r.clone().collect();
        assert_eq!(rest, [(4, ""), (5, "# note"), (6, "a b")]);
        let mut records = Vec::new();
        r.clone()
            .each_record(|text| {
                records.push(text);
                Ok(())
            })
            .unwrap();
        assert_eq!(records, ["a b"]);
        let err = r.each_record(|text| Err(format!("no {text}"))).unwrap_err();
        assert_eq!(err, LineError::new(6, "no a b"));

        let (_, mut r) = LineReader::open("fmt v1\nwidth x", "doc", &["fmt v1"]).unwrap();
        let err = r.field::<usize>("width").unwrap_err();
        assert_eq!(err.to_string(), "line 2: bad width line \"width x\"");
        assert_eq!(
            r.field::<u64>("trials"),
            Err(LineError::new(3, "missing trials"))
        );
        let (_, mut r) = LineReader::open("fmt v1\nwidthy 2", "doc", &["fmt v1"]).unwrap();
        assert!(r.field::<usize>("width").is_err());
    }
}
