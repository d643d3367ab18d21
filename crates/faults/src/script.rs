//! The `faultplan v1` text format — chaos scenarios as checked-in files.
//!
//! Line-oriented, and read by the shared [`LineReader`]:
//!
//! ```text
//! faultplan v1
//! seed 42
//! # site  arrival  kind  [argument…]
//! characterize 1 latency 200
//! characterize 2 error injected characterization failure
//! profile-write 1 torn
//! profile-read 1 corrupt
//! worker 3 panic chaos monkey
//! ```
//!
//! Blank lines and `#` comments are ignored, and errors name their line.
//! This module owns only the record grammar. `error` and `panic` take the
//! rest of the line as the message (a default is supplied when omitted);
//! `latency` takes milliseconds; `torn` and `corrupt` take nothing.

use crate::lines::{LineError, LineReader};
use crate::plan::{Fault, FaultPlan, FaultSite};

impl FaultPlan {
    /// Serializes the plan's schedule to the text format (arrival
    /// counters are runtime state and are not persisted).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "faultplan v1");
        let _ = writeln!(out, "seed {}", self.seed());
        for site in FaultSite::ALL {
            for s in &self.scheduled[site.index()] {
                let _ = write!(out, "{} {} ", site.as_str(), s.arrival);
                let _ = match &s.fault {
                    Fault::Error(m) => writeln!(out, "error {m}"),
                    Fault::Latency(ms) => writeln!(out, "latency {ms}"),
                    Fault::Panic(m) => writeln!(out, "panic {m}"),
                    Fault::Torn => writeln!(out, "torn"),
                    Fault::Corrupt => writeln!(out, "corrupt"),
                };
            }
        }
        out
    }

    /// Parses a plan from the text format.
    ///
    /// # Errors
    ///
    /// Returns a [`LineError`] naming the offending line on a bad header,
    /// unknown site or fault kind, or malformed arrival/latency.
    pub fn from_text(text: &str) -> Result<FaultPlan, LineError> {
        let (_, lines) = LineReader::open(text, "plan", &["faultplan v1"])?;
        let mut seed = 0u64;
        let mut entries: Vec<(FaultSite, u64, Fault)> = Vec::new();
        lines.each_record(|line| {
            let mut words = line.splitn(2, ' ');
            let first = words.next().expect("non-empty line");
            if first == "seed" {
                seed = words
                    .next()
                    .and_then(|w| w.trim().parse().ok())
                    .ok_or("seed needs an integer")?;
                return Ok(());
            }
            let site = FaultSite::parse(first).ok_or_else(|| format!("unknown site {first:?}"))?;
            let rest = words.next().unwrap_or("");
            let mut rest_words = rest.splitn(2, ' ');
            let arrival: u64 = rest_words
                .next()
                .and_then(|w| w.parse().ok())
                .filter(|&n| n >= 1)
                .ok_or("arrival must be a positive integer")?;
            let kind_and_arg = rest_words.next().unwrap_or("");
            let mut ka = kind_and_arg.splitn(2, ' ');
            let kind = ka.next().unwrap_or("");
            let arg = ka.next().map(str::trim).filter(|a| !a.is_empty());
            let fault = match kind {
                "error" => Fault::Error(arg.unwrap_or("injected fault").to_string()),
                "panic" => Fault::Panic(arg.unwrap_or("injected panic").to_string()),
                "latency" => Fault::Latency(
                    arg.and_then(|a| a.parse().ok())
                        .ok_or("latency needs milliseconds")?,
                ),
                "torn" => Fault::Torn,
                "corrupt" => Fault::Corrupt,
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            entries.push((site, arrival, fault));
            Ok(())
        })?;
        let mut plan = FaultPlan::new(seed);
        for (site, arrival, fault) in entries {
            plan = plan.on_nth(site, arrival, fault);
        }
        Ok(plan)
    }

    /// Loads a plan from a file.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure as a boxed error.
    pub fn load(
        path: impl AsRef<std::path::Path>,
    ) -> Result<FaultPlan, Box<dyn std::error::Error + Send + Sync>> {
        let text = std::fs::read_to_string(path)?;
        Ok(FaultPlan::from_text(&text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultInjector;

    const SCRIPT: &str = "\
faultplan v1
seed 42

# slow then failing characterization
characterize 1 latency 200
characterize 2 error injected characterization failure
profile-write 1 torn
profile-read 1 corrupt
worker 3 panic chaos monkey
";

    #[test]
    fn script_roundtrips() {
        let plan = FaultPlan::from_text(SCRIPT).unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.scheduled_count(), 5);
        let text = plan.to_text();
        let back = FaultPlan::from_text(&text).unwrap();
        assert_eq!(back.seed(), 42);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn parsed_plan_fires_as_scripted() {
        let plan = FaultPlan::from_text(SCRIPT).unwrap();
        assert_eq!(
            plan.check(FaultSite::Characterize),
            Some(Fault::Latency(200))
        );
        assert_eq!(
            plan.check(FaultSite::Characterize),
            Some(Fault::Error("injected characterization failure".into()))
        );
        assert_eq!(plan.check(FaultSite::ProfileWrite), Some(Fault::Torn));
        assert_eq!(plan.check(FaultSite::ProfileRead), Some(Fault::Corrupt));
        assert_eq!(plan.check(FaultSite::Worker), None);
        assert_eq!(plan.check(FaultSite::Worker), None);
        assert_eq!(
            plan.check(FaultSite::Worker),
            Some(Fault::Panic("chaos monkey".into()))
        );
    }

    #[test]
    fn seed_line_may_follow_schedule_lines() {
        let plan = FaultPlan::from_text("faultplan v1\nworker 1 torn\nseed 9\n").unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.scheduled_count(), 1);
    }

    #[test]
    fn default_messages_apply() {
        let plan = FaultPlan::from_text("faultplan v1\nworker 1 error\nworker 2 panic\n").unwrap();
        assert_eq!(
            plan.check(FaultSite::Worker),
            Some(Fault::Error("injected fault".into()))
        );
        assert_eq!(
            plan.check(FaultSite::Worker),
            Some(Fault::Panic("injected panic".into()))
        );
    }

    #[test]
    fn parse_errors_name_lines() {
        let cases = [
            ("", 1, "empty plan"),
            ("nope", 1, "bad header"),
            ("faultplan v1\nseed x", 2, "seed needs an integer"),
            ("faultplan v1\nmars 1 torn", 2, "unknown site"),
            (
                "faultplan v1\nworker 0 torn",
                2,
                "arrival must be a positive integer",
            ),
            (
                "faultplan v1\nworker x torn",
                2,
                "arrival must be a positive integer",
            ),
            ("faultplan v1\nworker 1 explode", 2, "unknown fault kind"),
            (
                "faultplan v1\nworker 1 latency",
                2,
                "latency needs milliseconds",
            ),
            (
                "faultplan v1\nworker 1 latency soon",
                2,
                "latency needs milliseconds",
            ),
            // Blank and comment lines still count towards the line number.
            (
                "faultplan v1\n\n# comment\nseed 3\nworker 1 explode",
                5,
                "unknown fault kind",
            ),
        ];
        for (text, line, expect) in cases {
            let err = FaultPlan::from_text(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.to_string().contains(expect), "{text:?}: {err}");
        }
    }
}
