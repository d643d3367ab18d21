//! The characterization engine, journaled and resumable (`charjournal v2`).
//!
//! Characterization is the most expensive artifact in the pipeline
//! (§6.2.1: brute force is `O(2^N)` trials). [`characterize`] is the one
//! piece of code that turns a [`CharSpec`] into an [`RbmsTable`]: it
//! decomposes each technique into deterministic **units** — a brute-force
//! state batch, an ESCT shot chunk, an AWCT window — runs them in order,
//! and combines their results. Given a [`Journal`], it also checkpoints a
//! line to the journal file after each completed unit, so a crash or an
//! injected fault mid-run does not throw the sweep away:
//!
//! ```text
//! charjournal v2
//! device ibmqx4
//! method brute
//! width 5
//! window 0
//! overlap 0
//! shots 8192
//! seed 2019
//! unit 0 9c2f41aa 0:8101 1:8052 …
//! unit 1 17d00e3b 8:7990 9:7911 …
//! ```
//!
//! Without a journal the same units run with no I/O, so a profile does not
//! depend on whether it was journaled.
//!
//! Each unit draws from its **own** RNG stream, seeded by a splitmix64
//! mix of the job seed and the unit index — never from a shared
//! sequential stream. That is what makes a resumed run *bit-identical* to
//! an uninterrupted one: completed units are replayed from the journal,
//! missing units re-run with exactly the seed they would have had, and
//! the combine step is a pure function of the unit results. Each `unit`
//! line carries its own CRC32 (see [`crate::checksum`]), so a torn append
//! (the process died mid-checkpoint) is detected and the partial line
//! discarded — that unit simply re-runs.
//!
//! The journal is read by the workspace's one line reader,
//! [`invmeas_faults::LineReader`], which checks the version line, reads
//! the `key value` header lines and names the line of any
//! [`LineError`]; this module owns only the `unit` line grammar, and stops
//! at the first line that is not an intact `unit` line. Every rewrite of
//! the file (resume compaction, an installed replica) goes through a
//! `.tmp` sibling and an atomic rename.
//!
//! The [`FaultSite::JournalWrite`] hook fires once per checkpoint append,
//! letting chaos tests kill (`Panic`), tear (`Torn`), or fail (`Error`)
//! the journal mid-run and then assert byte-identical recovery.
//!
//! The version tag covers **numerics**, not just line layout. Unit counts
//! are sampled from simulated probabilities, so any change to simulator
//! rounding changes them: `v2` marks the blocked (4096-amplitude) norm
//! and probability reductions introduced with the persistent worker pool,
//! which altered bitwise results versus `v1` binaries for registers
//! larger than one block. A `v1` journal therefore fails the header check
//! and is discarded — the run starts fresh, which is always safe — rather
//! than splicing old-numerics replayed units into a new-numerics run and
//! producing a profile reproducible under *neither* binary.

use crate::checksum::crc32;
use crate::profile_io::{replace_file, sanitize_token};
use crate::rbms::RbmsTable;
use invmeas_faults::{Fault, FaultInjector, FaultSite, LineError, LineReader, NoFaults};
use qnoise::Executor;
use qsim::{BitString, Circuit, Counts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

/// Journal version line. The unit-line layout is unchanged since `v1`;
/// the bump to `v2` marks a simulator numerics change (blocked
/// reductions) that makes cross-version unit counts non-reproducible —
/// see the module docs. Bump it again whenever sampled counts can change.
const JOURNAL_VERSION_LINE: &str = "charjournal v2";

/// Basis states per brute-force unit (journal checkpoint granularity).
const BRUTE_BATCH_STATES: usize = 8;
/// Maximum shot chunks an ESCT run is split into.
const ESCT_CHUNKS: u64 = 8;

/// Widest register brute force sweeps (`2^14` preparation circuits);
/// beyond it AWCT is the practical technique.
const BRUTE_MAX_QUBITS: usize = 14;
/// Widest register ESCT estimates (its table has `2^n` entries, each
/// needing many of the `O(2^n)` trials).
const ESCT_MAX_QUBITS: usize = 16;
/// Widest register AWCT combines into one dense table.
const AWCT_MAX_QUBITS: usize = 20;

/// A characterization technique (paper §6.2.1, Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CharMethod {
    /// Prepare-and-measure every basis state.
    Brute,
    /// Equal-superposition frequencies, sqrt-corrected.
    Esct,
    /// Sliding-window superpositions, multiplicatively combined.
    Awct,
}

impl CharMethod {
    /// The spelling used on the command line, on the wire, and in journal
    /// and profile headers.
    pub fn as_str(self) -> &'static str {
        match self {
            CharMethod::Brute => "brute",
            CharMethod::Esct => "esct",
            CharMethod::Awct => "awct",
        }
    }

    /// Parses [`as_str`](CharMethod::as_str)'s spelling.
    pub fn parse(s: &str) -> Option<CharMethod> {
        match s {
            "brute" => Some(CharMethod::Brute),
            "esct" => Some(CharMethod::Esct),
            "awct" => Some(CharMethod::Awct),
            _ => None,
        }
    }

    /// The technique the paper prescribes for profiling a `width`-qubit
    /// machine (§6.2.1): brute force up to 5 qubits, AWCT windows beyond.
    pub fn for_width(width: usize) -> CharMethod {
        if width <= 5 {
            CharMethod::Brute
        } else {
            CharMethod::Awct
        }
    }
}

/// The full identity of one characterization job. Two runs with equal
/// specs produce bit-identical tables; a journal whose header disagrees
/// with the requesting spec is *not* resumed (the stale journal is
/// discarded and the run starts fresh).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharSpec {
    /// Device label (identity only — the executor does the measuring).
    pub device: String,
    /// Technique.
    pub method: CharMethod,
    /// Register width.
    pub width: usize,
    /// AWCT window size (0 for other methods).
    pub window: usize,
    /// AWCT window overlap (0 for other methods).
    pub overlap: usize,
    /// Trial budget: per state (brute), total (ESCT), per window (AWCT).
    pub shots: u64,
    /// Job seed; each unit derives its own stream from it.
    pub seed: u64,
}

impl CharSpec {
    /// The job for `method` on a `width`-qubit device. AWCT gets the
    /// default geometry: 4-qubit windows overlapping by 2 (clipped to the
    /// register).
    pub fn new(
        method: CharMethod,
        device: impl Into<String>,
        width: usize,
        shots: u64,
        seed: u64,
    ) -> Self {
        let (window, overlap) = match method {
            CharMethod::Awct => (4.min(width), 2.min(width.saturating_sub(1))),
            CharMethod::Brute | CharMethod::Esct => (0, 0),
        };
        CharSpec {
            device: device.into(),
            method,
            width,
            window,
            overlap,
            shots,
            seed,
        }
    }

    /// An AWCT job with an explicit window geometry.
    pub fn awct(
        device: impl Into<String>,
        width: usize,
        window: usize,
        overlap: usize,
        shots: u64,
        seed: u64,
    ) -> Self {
        CharSpec {
            window,
            overlap,
            ..CharSpec::new(CharMethod::Awct, device, width, shots, seed)
        }
    }

    /// Checks that this job can run: a positive trial budget, a register
    /// within the method's width limit, and a sound AWCT geometry.
    ///
    /// # Errors
    ///
    /// A human-readable reason naming the first violated limit.
    pub fn validate(&self) -> Result<(), String> {
        if self.shots == 0 {
            return Err("characterization needs a trial budget".into());
        }
        let n = self.width;
        let max = match self.method {
            CharMethod::Brute => BRUTE_MAX_QUBITS,
            CharMethod::Esct => ESCT_MAX_QUBITS,
            CharMethod::Awct => AWCT_MAX_QUBITS,
        };
        if n == 0 || n > max {
            let hint = if self.method == CharMethod::Awct {
                ""
            } else {
                "; use awct"
            };
            return Err(format!(
                "{} characterization limited to {max} qubits ({n} requested){hint}",
                self.method.as_str()
            ));
        }
        if self.method == CharMethod::Awct {
            if self.window == 0 || self.window > n {
                return Err(format!("bad window size {}", self.window));
            }
            if self.overlap >= self.window {
                return Err("overlap must be smaller than the window".into());
            }
        }
        Ok(())
    }

    /// How many units (journal checkpoints) this job decomposes into — a
    /// pure function of the spec.
    ///
    /// # Panics
    ///
    /// Panics on a spec that fails [`validate`](CharSpec::validate).
    pub fn unit_count(&self) -> usize {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        match self.method {
            CharMethod::Brute => (1usize << self.width).div_ceil(BRUTE_BATCH_STATES),
            CharMethod::Esct => self.shots.min(ESCT_CHUNKS) as usize,
            CharMethod::Awct => awct_starts(self.width, self.window, self.overlap).len(),
        }
    }

    /// The journal header for this spec.
    fn header(&self) -> String {
        format!(
            "{JOURNAL_VERSION_LINE}\ndevice {}\nmethod {}\nwidth {}\nwindow {}\noverlap {}\nshots {}\nseed {}\n",
            sanitize_token(&self.device),
            self.method.as_str(),
            self.width,
            self.window,
            self.overlap,
            self.shots,
            self.seed,
        )
    }
}

/// Where a [`characterize`] run checkpoints its units, and what it
/// consults and notifies along the way. Only a journaled run needs these.
#[derive(Clone, Copy)]
pub struct Journal<'a> {
    /// The journal file: resumed when its header matches the spec,
    /// replaced otherwise. Its directory must exist.
    pub path: &'a Path,
    /// Consulted at [`FaultSite::JournalWrite`] once per append.
    pub faults: &'a dyn FaultInjector,
    /// Fires after each checkpoint line is appended, with the number of
    /// checkpoints this run has written so far. A cluster owner uses it to
    /// ship the in-flight journal to follower nodes as the run progresses,
    /// so a kill at any point leaves every *completed* unit already
    /// replicated. The hook handles its own failures (replication is best
    /// effort); it cannot fail the run.
    pub on_checkpoint: Option<&'a (dyn Fn(u64) + Sync)>,
}

impl<'a> Journal<'a> {
    /// A journal at `path` with no injected faults and no hook.
    pub fn at(path: &'a Path) -> Self {
        Journal {
            path,
            faults: &NoFaults,
            on_checkpoint: None,
        }
    }
}

impl fmt::Debug for Journal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("faults", &self.faults)
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .finish()
    }
}

/// What one [`characterize`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Units the job decomposes into.
    pub total_units: u64,
    /// Checkpoints appended to the journal by this run.
    pub checkpoints_written: u64,
    /// Units replayed from an in-flight journal instead of re-measured.
    pub resumed_units: u64,
}

impl JournalStats {
    /// Whether this run picked up an in-flight journal.
    pub fn resumed(&self) -> bool {
        self.resumed_units > 0
    }
}

/// Why a characterization failed.
#[derive(Debug)]
pub enum JournalError {
    /// Journal file I/O failed (including injected journal-write faults).
    Io(std::io::Error),
    /// The spec fails [`CharSpec::validate`], or the combined results
    /// violate a table invariant.
    Invalid(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Invalid(m) => write!(f, "characterization invalid: {m}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One unit's result: sparse `(state index, count)` pairs, sorted by
/// state. Counts are integers, so replay is exact — no float round-trip.
type UnitResult = Vec<(u64, u64)>;

/// Derives the RNG seed for one unit from the job seed — splitmix64, so
/// nearby unit indices get statistically independent streams and a
/// resumed unit re-runs with exactly the stream it would have had.
fn unit_seed(job_seed: u64, unit: u64) -> u64 {
    let mut z = job_seed.wrapping_add((unit + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical payload text of one unit line (what the line CRC covers).
fn unit_payload(idx: usize, pairs: &[(u64, u64)]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{idx}");
    for (state, count) in pairs {
        let _ = write!(out, " {state}:{count}");
    }
    out
}

fn unit_line(idx: usize, pairs: &[(u64, u64)]) -> String {
    let payload = unit_payload(idx, pairs);
    format!("unit {:08x} {payload}\n", crc32(payload.as_bytes()))
}

/// Parses one `unit` line; `None` for anything malformed or checksum-bad
/// (the loader stops at the first such line — it is the torn tail).
fn parse_unit_line(line: &str) -> Option<(usize, UnitResult)> {
    let rest = line.strip_prefix("unit ")?;
    let (crc_text, payload) = rest.split_once(' ')?;
    let stored = u32::from_str_radix(crc_text, 16).ok()?;
    if crc32(payload.as_bytes()) != stored {
        return None;
    }
    let mut fields = payload.split(' ');
    let idx: usize = fields.next()?.parse().ok()?;
    let mut pairs = Vec::new();
    for field in fields {
        let (state, count) = field.split_once(':')?;
        pairs.push((state.parse().ok()?, count.parse().ok()?));
    }
    Some((idx, pairs))
}

/// Inspects exported journal text: returns the header spec and the
/// number of intact unit lines. This is the receive-side validation for
/// journal handoff between nodes — a follower should refuse to install
/// text that does not inspect.
///
/// # Errors
///
/// A [`LineError`] naming the line and the reason when the header is
/// unusable: wrong version, damaged, or not a journal at all.
pub fn inspect_journal(text: &str) -> Result<(CharSpec, u64), LineError> {
    load_journal(text).map(|(spec, units)| (spec, units.len() as u64))
}

/// Reads a journal file's raw text for handoff to another node, or
/// `None` when no journal exists at `path`.
///
/// # Errors
///
/// Propagates I/O failures other than the file being absent.
pub fn export_journal(path: &Path) -> std::io::Result<Option<String>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Installs journal text received from another node, byte-for-byte, via
/// a temp sibling and atomic rename (a crash mid-install leaves the old
/// journal intact). The text must [`inspect_journal`] cleanly — garbage
/// is refused rather than written, because a resumed run trusts every
/// intact line it finds. Returns the number of intact units installed.
///
/// # Errors
///
/// `InvalidData` naming the line and the reason when the text fails
/// inspection; otherwise I/O failures.
pub fn install_journal(path: &Path, text: &str) -> std::io::Result<u64> {
    let (_, units) = inspect_journal(text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("journal text failed inspection at {e}"),
        )
    })?;
    replace_file(path, |file| file.write_all(text.as_bytes()))?;
    Ok(units)
}

/// Parses a journal file: the header spec plus every intact unit line.
/// Stops (without erroring) at the first line that is not an intact
/// `unit` line: that is the torn tail. Fails when the header itself is
/// unusable — the journal belongs to some other run or is damaged beyond
/// trust, so the caller starts fresh.
fn load_journal(text: &str) -> Result<(CharSpec, Vec<(usize, UnitResult)>), LineError> {
    let (_, mut lines) = LineReader::open(text, "journal", &[JOURNAL_VERSION_LINE])?;
    let device = lines.field("device")?;
    let method: String = lines.field("method")?;
    let method = CharMethod::parse(&method)
        .ok_or_else(|| lines.error(format!("unknown method {method:?}")))?;
    let spec = CharSpec {
        device,
        method,
        width: lines.field("width")?,
        window: lines.field("window")?,
        overlap: lines.field("overlap")?,
        shots: lines.field("shots")?,
        seed: lines.field("seed")?,
    };
    // Torn tail: that unit (and anything after) re-runs.
    let units = lines.map_while(|(_, line)| parse_unit_line(line)).collect();
    Ok((spec, units))
}

/// Appends one checkpoint line, consulting [`FaultSite::JournalWrite`].
/// The line reaches the operating system before this returns, so it
/// survives the death of the process; it is not synced to the device, so
/// it need not survive a power loss.
fn append_checkpoint(
    file: &mut File,
    idx: usize,
    pairs: &[(u64, u64)],
    faults: &dyn FaultInjector,
) -> std::io::Result<()> {
    let line = unit_line(idx, pairs);
    if let Some(f) = faults.check(FaultSite::JournalWrite) {
        f.apply_latency();
        match f {
            Fault::Error(m) => return Err(std::io::Error::other(m)),
            Fault::Panic(m) => panic!("{m}"),
            Fault::Torn => {
                // A torn append: half the line lands without a newline,
                // then the device gives up. The loader's per-line CRC must
                // reject it on resume.
                file.write_all(&line.as_bytes()[..line.len() / 2])?;
                file.sync_data().ok();
                return Err(std::io::Error::other("injected torn journal append"));
            }
            Fault::Latency(_) | Fault::Corrupt => {}
        }
    }
    file.write_all(line.as_bytes())?;
    file.flush()
}

/// AWCT window start positions: stride `window - overlap`, clipped so the
/// final window ends exactly at `n`.
fn awct_starts(n: usize, window: usize, overlap: usize) -> Vec<usize> {
    let stride = window - overlap;
    let mut starts = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos + window >= n {
            starts.push(n - window);
            break;
        }
        starts.push(pos);
        pos += stride;
    }
    starts
}

/// Runs one unit with its derived RNG stream and returns its result.
fn run_unit(executor: &dyn Executor, spec: &CharSpec, idx: usize) -> UnitResult {
    let n = spec.width;
    let mut rng = StdRng::seed_from_u64(unit_seed(spec.seed, idx as u64));
    match spec.method {
        CharMethod::Brute => {
            let lo = idx * BRUTE_BATCH_STATES;
            let hi = ((idx + 1) * BRUTE_BATCH_STATES).min(1 << n);
            let states: Vec<BitString> = (lo..hi)
                .map(|v| BitString::from_value(v as u64, n))
                .collect();
            let circuits: Vec<Circuit> = states
                .iter()
                .map(|&s| Circuit::basis_state_preparation(s))
                .collect();
            let logs = executor.run_batch(&circuits, spec.shots, &mut rng);
            states
                .iter()
                .zip(&logs)
                .map(|(s, log)| (s.index() as u64, log.get(s)))
                .collect()
        }
        CharMethod::Esct => {
            let chunks = spec.shots.min(ESCT_CHUNKS);
            let (base, rem) = (spec.shots / chunks, spec.shots % chunks);
            let chunk_shots = base + u64::from((idx as u64) < rem);
            let log = executor.run(&Circuit::uniform_superposition(n), chunk_shots, &mut rng);
            sparse_counts(&log)
        }
        CharMethod::Awct => {
            let lo = awct_starts(n, spec.window, spec.overlap)[idx];
            // The uniform superposition over the window's qubits.
            let mut circuit = Circuit::new(n);
            for q in lo..lo + spec.window {
                circuit.h(q);
            }
            let log = executor.run(&circuit, spec.shots, &mut rng);
            // Marginalize onto the window bits before journaling: the
            // combine step only needs the window marginal, and the
            // checkpoint stays `2^window` pairs instead of `2^n`.
            let mut marg = Counts::new(spec.window);
            for (s, &cnt) in log.iter() {
                marg.record_n(s.window(lo, spec.window), cnt);
            }
            sparse_counts(&marg)
        }
    }
}

/// Sorted nonzero `(state index, count)` pairs of a log.
fn sparse_counts(log: &Counts) -> UnitResult {
    let mut pairs: Vec<(u64, u64)> = log
        .iter()
        .filter(|(_, &cnt)| cnt > 0)
        .map(|(s, &cnt)| (s.index() as u64, cnt))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// ESCT's raw relative outcome frequencies: the units' summed counts over
/// the total budget.
fn esct_frequencies(spec: &CharSpec, units: &[UnitResult]) -> Vec<f64> {
    let mut counts = vec![0u64; 1 << spec.width];
    for unit in units {
        for &(state, count) in unit {
            counts[state as usize] += count;
        }
    }
    let total = spec.shots as f64;
    counts.iter().map(|&c| c as f64 / total).collect()
}

/// Combines completed unit results into the final table — a pure
/// function, so resumed and uninterrupted runs agree bit-for-bit.
///
/// ESCT/AWCT estimate strengths from superposition *frequencies*, which
/// double-count the per-qubit bias (a state is depleted by its own errors
/// *and* fed by its neighbours' errors); both apply the first-order
/// square-root correction so their output matches the directly measured
/// RBMS.
fn combine(spec: &CharSpec, units: &[UnitResult]) -> Result<RbmsTable, JournalError> {
    let n = spec.width;
    let (strengths, trials) = match spec.method {
        CharMethod::Brute => {
            let mut counts = vec![0u64; 1 << n];
            for unit in units {
                for &(state, count) in unit {
                    counts[state as usize] = count;
                }
            }
            let shots = spec.shots as f64;
            let strengths: Vec<f64> = counts.iter().map(|&c| c as f64 / shots).collect();
            (strengths, spec.shots << n)
        }
        CharMethod::Esct => {
            let strengths = esct_frequencies(spec, units)
                .into_iter()
                .map(f64::sqrt)
                .collect();
            (strengths, spec.shots)
        }
        CharMethod::Awct => {
            let shots = spec.shots as f64;
            let window_tables: Vec<Vec<f64>> = units
                .iter()
                .map(|unit| {
                    let mut freqs = vec![0.0f64; 1 << spec.window];
                    for &(pat, count) in unit {
                        freqs[pat as usize] = (count as f64 / shots).sqrt();
                    }
                    freqs
                })
                .collect();
            let strengths = awct_combine(spec, &window_tables);
            (strengths, spec.shots * units.len() as u64)
        }
    };
    table(n, strengths, trials)
}

/// Combines per-window sqrt-corrected frequency tables into the full
/// `2^n` strength vector multiplicatively, dividing out the overlap
/// marginals (Appendix A).
fn awct_combine(spec: &CharSpec, window_tables: &[Vec<f64>]) -> Vec<f64> {
    let (n, window, overlap) = (spec.width, spec.window, spec.overlap);
    let starts = awct_starts(n, window, overlap);
    // Overlap marginals for every window after the first: the marginal
    // of the window estimate over its first `overlap` qubits.
    let mut overlap_tables: Vec<Vec<f64>> = Vec::with_capacity(starts.len());
    for (w, table) in window_tables.iter().enumerate() {
        if w == 0 || overlap == 0 {
            overlap_tables.push(Vec::new());
            continue;
        }
        // Sum of squared (i.e. raw) frequencies over the suffix bits,
        // then sqrt again to stay on the corrected scale.
        let mut sums = vec![0.0f64; 1 << overlap];
        for (pat_idx, &val) in table.iter().enumerate() {
            sums[pat_idx & ((1 << overlap) - 1)] += val * val;
        }
        overlap_tables.push(sums.into_iter().map(f64::sqrt).collect());
    }

    let mut strengths = vec![0.0f64; 1 << n];
    for (idx, out) in strengths.iter_mut().enumerate() {
        let s = BitString::from_value(idx as u64, n);
        let mut val = 1.0f64;
        for (w, &lo) in starts.iter().enumerate() {
            let pat = s.window(lo, window).index();
            val *= window_tables[w][pat];
            if w > 0 && overlap > 0 {
                let ov = s.window(lo, overlap).index();
                let denom = overlap_tables[w][ov];
                if denom > 0.0 {
                    val /= denom;
                }
            }
        }
        *out = val;
    }
    strengths
}

/// A validated table carrying its trial count.
fn table(width: usize, strengths: Vec<f64>, trials: u64) -> Result<RbmsTable, JournalError> {
    let mut table = RbmsTable::try_from_strengths(width, strengths)
        .map_err(|e| JournalError::Invalid(e.to_string()))?;
    table.set_trials_used(trials);
    Ok(table)
}

/// Runs (or resumes) a characterization job — the one code path that
/// turns a [`CharSpec`] into an [`RbmsTable`]. Units execute in a fixed
/// order with per-unit seeds and [`Executor::run_batch`] is itself
/// thread-invariant, so the table is the same for any executor worker
/// count, and the same with or without a journal.
///
/// With a [`Journal`], each completed unit is checkpointed to its file:
///
/// * An existing journal whose header matches `spec` seeds the run: its
///   intact units are replayed, only the missing ones re-measure, and the
///   result is bit-identical to an uninterrupted run.
/// * A journal with a mismatched or damaged header is ignored and
///   overwritten — resuming someone else's checkpoints would poison the
///   table.
/// * On resume the file is first compacted (header + intact unit lines
///   rewritten through a temp sibling), so a torn tail from the previous
///   crash never corrupts subsequent appends.
///
/// The journal file is *left in place* on success; callers delete it once
/// the resulting profile is safely persisted (crash between "table
/// combined" and "profile written" must stay resumable).
///
/// # Errors
///
/// [`JournalError::Invalid`] when `spec` fails [`CharSpec::validate`] or
/// the combined results violate a table invariant; [`JournalError::Io`]
/// on journal write failures (including injected
/// [`FaultSite::JournalWrite`] faults).
///
/// # Panics
///
/// Panics on an executor/spec width mismatch, or an injected `Panic`
/// fault (the chaos "kill mid-checkpoint" scenario).
pub fn characterize(
    executor: &dyn Executor,
    spec: &CharSpec,
    journal: Option<Journal<'_>>,
) -> Result<(RbmsTable, JournalStats), JournalError> {
    let (units, stats) = run_units(executor, spec, journal)?;
    Ok((combine(spec, &units)?, stats))
}

/// ESCT without the bias correction: the raw outcome frequencies of the
/// very units [`characterize`] runs for `spec`.
pub(crate) fn esct_raw(
    executor: &dyn Executor,
    spec: &CharSpec,
) -> Result<RbmsTable, JournalError> {
    let (units, _) = run_units(executor, spec, None)?;
    table(spec.width, esct_frequencies(spec, &units), spec.shots)
}

/// Runs every unit `journal` does not already hold and returns all unit
/// results in order.
fn run_units(
    executor: &dyn Executor,
    spec: &CharSpec,
    journal: Option<Journal<'_>>,
) -> Result<(Vec<UnitResult>, JournalStats), JournalError> {
    spec.validate().map_err(JournalError::Invalid)?;
    assert_eq!(
        executor.n_qubits(),
        spec.width,
        "executor width must match the characterization spec"
    );
    let total = spec.unit_count();
    let mut completed: Vec<Option<UnitResult>> = vec![None; total];
    let mut stats = JournalStats {
        total_units: total as u64,
        ..JournalStats::default()
    };

    // Resume: replay intact units from a matching in-flight journal.
    if let Some(j) = journal {
        if let Ok(text) = std::fs::read_to_string(j.path) {
            if let Ok((found_spec, units)) = load_journal(&text) {
                if found_spec == *spec {
                    for (idx, pairs) in units {
                        if idx < total && completed[idx].is_none() {
                            completed[idx] = Some(pairs);
                            stats.resumed_units += 1;
                        }
                    }
                }
            }
        }
    }

    // (Re)write the journal compacted — header plus replayed units — via
    // a temp sibling so a crash here leaves the old journal intact.
    let mut writer: Option<(File, Journal<'_>)> = match journal {
        Some(j) => {
            let mut text = spec.header();
            for (idx, unit) in completed.iter().enumerate() {
                if let Some(pairs) = unit {
                    text.push_str(&unit_line(idx, pairs));
                }
            }
            replace_file(j.path, |file| file.write_all(text.as_bytes()))?;
            Some((OpenOptions::new().append(true).open(j.path)?, j))
        }
        None => None,
    };

    for (idx, slot) in completed.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        let pairs = run_unit(executor, spec, idx);
        if let Some((file, j)) = writer.as_mut() {
            append_checkpoint(file, idx, &pairs, j.faults)?;
            stats.checkpoints_written += 1;
            if let Some(hook) = j.on_checkpoint {
                hook(stats.checkpoints_written);
            }
        }
        *slot = Some(pairs);
    }

    let units = completed
        .into_iter()
        .map(|u| u.expect("all units ran"))
        .collect();
    Ok((units, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use invmeas_faults::FaultPlan;
    use qnoise::{DeviceModel, NoisyExecutor};
    use std::sync::Arc;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("invmeas-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.journal"))
    }

    fn specs() -> Vec<CharSpec> {
        vec![
            CharSpec::new(CharMethod::Brute, "ibmqx4", 5, 256, 2019),
            CharSpec::new(CharMethod::Esct, "ibmqx4", 5, 4096, 2019),
            CharSpec::awct("ibmqx4", 5, 3, 2, 1024, 2019),
        ]
    }

    #[test]
    fn unit_seed_streams_differ() {
        let seeds: std::collections::HashSet<u64> = (0..100).map(|u| unit_seed(7, u)).collect();
        assert_eq!(seeds.len(), 100);
        assert_eq!(unit_seed(7, 3), unit_seed(7, 3));
        assert_ne!(unit_seed(7, 3), unit_seed(8, 3));
    }

    #[test]
    fn journaled_run_is_deterministic_and_thread_invariant() {
        let dev = DeviceModel::ibmqx4();
        for spec in specs() {
            let run = |threads: usize| {
                let exec = NoisyExecutor::readout_only(&dev).with_threads(threads);
                let (table, stats) = characterize(&exec, &spec, None).unwrap();
                assert_eq!(stats.total_units, spec.unit_count() as u64);
                assert_eq!(stats.checkpoints_written, 0, "no journal, no checkpoints");
                table
            };
            assert_eq!(run(1), run(4), "{:?}", spec.method);
        }
    }

    #[test]
    fn journal_replay_is_bit_identical_after_kill_at_every_checkpoint() {
        let dev = DeviceModel::ibmqx4();
        let exec = NoisyExecutor::readout_only(&dev);
        for spec in specs() {
            let baseline = {
                let path = temp_journal(&format!("baseline-{}", spec.method.as_str()));
                let _ = std::fs::remove_file(&path);
                let (table, stats) = characterize(&exec, &spec, Some(Journal::at(&path))).unwrap();
                assert_eq!(stats.checkpoints_written, stats.total_units);
                std::fs::remove_file(&path).unwrap();
                table
            };
            // Kill (panic) at every possible checkpoint ordinal, then
            // resume; the result must match the uninterrupted run bit for
            // bit.
            for kill_at in 1..=spec.unit_count() as u64 {
                let path = temp_journal(&format!("kill-{}-{kill_at}", spec.method.as_str()));
                let _ = std::fs::remove_file(&path);
                let plan = Arc::new(FaultPlan::new(1).on_nth(
                    FaultSite::JournalWrite,
                    kill_at,
                    Fault::Panic("killed mid-checkpoint".into()),
                ));
                let exec2 = NoisyExecutor::readout_only(&dev);
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    characterize(
                        &exec2,
                        &spec,
                        Some(Journal {
                            faults: plan.as_ref(),
                            ..Journal::at(&path)
                        }),
                    )
                }));
                assert!(died.is_err(), "scripted kill at {kill_at} did not fire");
                let (resumed, stats) =
                    characterize(&exec, &spec, Some(Journal::at(&path))).unwrap();
                assert_eq!(
                    stats.resumed_units,
                    kill_at - 1,
                    "{}: units before the kill replay from the journal",
                    spec.method.as_str()
                );
                assert_eq!(
                    resumed,
                    baseline,
                    "{} killed at checkpoint {kill_at}",
                    spec.method.as_str()
                );
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn torn_append_is_discarded_on_resume() {
        let dev = DeviceModel::ibmqx4();
        let exec = NoisyExecutor::readout_only(&dev);
        let spec = CharSpec::new(CharMethod::Brute, "ibmqx4", 5, 128, 11);
        let path = temp_journal("torn");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::new(2).on_nth(FaultSite::JournalWrite, 2, Fault::Torn);
        let err = characterize(
            &exec,
            &spec,
            Some(Journal {
                faults: &plan,
                ..Journal::at(&path)
            }),
        )
        .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // The file ends in a torn half-line; resume must drop exactly it.
        let (resumed, stats) = characterize(&exec, &spec, Some(Journal::at(&path))).unwrap();
        assert_eq!(stats.resumed_units, 1);
        let (clean, _) = characterize(&exec, &spec, None).unwrap();
        assert_eq!(resumed, clean);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_journal_is_not_resumed() {
        let dev = DeviceModel::ibmqx4();
        let exec = NoisyExecutor::readout_only(&dev);
        let path = temp_journal("mismatch");
        let _ = std::fs::remove_file(&path);
        let old = CharSpec::new(CharMethod::Brute, "ibmqx4", 5, 128, 1);
        characterize(&exec, &old, Some(Journal::at(&path))).unwrap();
        // Different seed: the stale journal must be ignored, not replayed.
        let new = CharSpec::new(CharMethod::Brute, "ibmqx4", 5, 128, 2);
        let (resumed, stats) = characterize(&exec, &new, Some(Journal::at(&path))).unwrap();
        assert_eq!(stats.resumed_units, 0);
        assert_eq!(stats.checkpoints_written, stats.total_units);
        let (clean, _) = characterize(&exec, &new, None).unwrap();
        assert_eq!(resumed, clean);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journaled_brute_matches_exact_shape() {
        // The chunked estimator is still an unbiased RBMS estimate.
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev);
        let spec = CharSpec::new(CharMethod::Brute, "ibmqx2", 5, 4000, 42);
        let (est, _) = characterize(&exec, &spec, None).unwrap();
        assert_eq!(est.trials_used(), 4000 * 32);
        let exact = RbmsTable::exact(&dev.readout());
        assert!(est.mse_vs(&exact) < 0.002);
    }

    #[test]
    fn journaled_esct_and_awct_match_exact_shape() {
        let dev = DeviceModel::ibmqx2();
        let exec = NoisyExecutor::readout_only(&dev);
        let exact = RbmsTable::exact(&dev.readout());
        let (esct, _) = characterize(
            &exec,
            &CharSpec::new(CharMethod::Esct, "ibmqx2", 5, 400_000, 9),
            None,
        )
        .unwrap();
        assert!(
            esct.mse_vs(&exact) < 0.05,
            "ESCT MSE {}",
            esct.mse_vs(&exact)
        );
        let (awct, _) =
            characterize(&exec, &CharSpec::awct("ibmqx2", 5, 3, 2, 150_000, 9), None).unwrap();
        assert!(
            awct.mse_vs(&exact) < 0.05,
            "AWCT MSE {}",
            awct.mse_vs(&exact)
        );
        assert_eq!(awct.trials_used(), 150_000 * 3);
    }

    #[test]
    fn checkpoint_hook_fires_per_append_and_exported_prefix_resumes() {
        // Simulate journaled handoff: every checkpoint hook exports the
        // in-flight journal (as a cluster owner replicating to a
        // follower would), the run is killed partway, and the last
        // exported snapshot resumes bit-identically elsewhere.
        let dev = DeviceModel::ibmqx4();
        let spec = CharSpec::new(CharMethod::Brute, "ibmqx4", 5, 128, 21);
        let src = temp_journal("hook-src");
        let dst = temp_journal("hook-dst");
        let _ = std::fs::remove_file(&src);
        let _ = std::fs::remove_file(&dst);

        let baseline = {
            let exec = NoisyExecutor::readout_only(&dev);
            let (t, _) = characterize(&exec, &spec, None).unwrap();
            t
        };

        let kill_at = 3u64;
        let shipped = std::sync::Mutex::new((0u64, String::new()));
        let hook = |written: u64| {
            let text = export_journal(&src).unwrap().expect("journal exists");
            *shipped.lock().unwrap() = (written, text);
        };
        let plan = FaultPlan::new(5).on_nth(
            FaultSite::JournalWrite,
            kill_at,
            Fault::Panic("killed mid-checkpoint".into()),
        );
        let exec = NoisyExecutor::readout_only(&dev);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            characterize(
                &exec,
                &spec,
                Some(Journal {
                    path: &src,
                    faults: &plan,
                    on_checkpoint: Some(&hook),
                }),
            )
        }));
        assert!(died.is_err(), "scripted kill did not fire");

        let (hook_calls, text) = shipped.into_inner().unwrap();
        assert_eq!(hook_calls, kill_at - 1, "one hook call per durable append");
        let (found_spec, units) = inspect_journal(&text).expect("shipped text inspects");
        assert_eq!(found_spec, spec);
        assert_eq!(units, kill_at - 1);

        // Install on the "follower" and resume there.
        assert_eq!(install_journal(&dst, &text).unwrap(), kill_at - 1);
        let (resumed, stats) = characterize(&exec, &spec, Some(Journal::at(&dst))).unwrap();
        assert_eq!(stats.resumed_units, kill_at - 1);
        assert_eq!(
            stats.checkpoints_written + stats.resumed_units,
            stats.total_units,
            "handoff must cost exactly one full run in total"
        );
        assert_eq!(resumed, baseline);
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn install_journal_refuses_garbage() {
        let path = temp_journal("install-garbage");
        let _ = std::fs::remove_file(&path);
        let err = install_journal(&path, "not a journal at all").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(!path.exists(), "refused text must not land on disk");
        // Header rejections, each with the line it names.
        let header =
            "charjournal v2\ndevice x\nmethod brute\nwidth 5\nwindow 0\noverlap 0\nshots 8";
        let cases = [
            ("", 1, "empty journal"),
            ("not a journal at all", 1, "bad header"),
            (
                "charjournal v1\ndevice x",
                1,
                "bad header \"charjournal v1\"",
            ),
            ("charjournal v2", 2, "missing device"),
            ("charjournal v2\nmethod brute", 2, "bad device line"),
            (
                "charjournal v2\ndevice x\nmethod magic",
                3,
                "unknown method",
            ),
            (
                "charjournal v2\ndevice x\nmethod brute\nwidth five",
                4,
                "bad width line",
            ),
            (header, 8, "missing seed"),
        ];
        for (text, line, expect) in cases {
            let err = inspect_journal(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains(expect), "{text:?}: {err}");
        }
        let err = install_journal(&path, "charjournal v1\ndevice x").unwrap_err();
        assert_eq!(
            err.to_string(),
            "journal text failed inspection at line 1: bad header \"charjournal v1\""
        );
        // A whole header with no units, or only a torn tail, inspects.
        let (_, units) = inspect_journal(&format!("{header}\nseed 1\nunit 0 zz")).unwrap();
        assert_eq!(units, 0);
        assert_eq!(
            export_journal(&path).unwrap(),
            None,
            "absent journal exports None"
        );
    }

    #[test]
    fn failed_install_leaves_no_temp_file() {
        // The rename fails: the final path is a non-empty directory.
        let dir =
            std::env::temp_dir().join(format!("invmeas-journal-install-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("key.journal").join("occupied")).unwrap();
        let text = CharSpec::new(CharMethod::Brute, "ibmqx4", 5, 8, 1).header();
        assert!(install_journal(&dir.join("key.journal"), &text).is_err());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["key.journal"], "temp sibling left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unit_line_roundtrip_and_crc_rejection() {
        let pairs = vec![(0u64, 120u64), (3, 8), (31, 1)];
        let line = unit_line(7, &pairs);
        let (idx, back) = parse_unit_line(line.trim_end()).unwrap();
        assert_eq!(idx, 7);
        assert_eq!(back, pairs);
        // A flipped digit fails the line CRC.
        let bad = line.replace("120", "121");
        assert!(parse_unit_line(bad.trim_end()).is_none());
        // A truncated (torn) line fails too.
        assert!(parse_unit_line(&line[..line.len() / 2]).is_none());
    }
}
