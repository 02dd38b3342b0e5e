//! Result digests: a canonical text rendering of a rep's simulated results
//! and its FNV-1a hash.
//!
//! Floats enter as their IEEE-754 bit patterns, so a digest changes with
//! any change to a simulated result, however small. The text is kept
//! beside the hash so a mismatch can be shown field by field.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use flexpass_metrics::Recorder;

/// Canonical `key=value;` text of a rep's simulated results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    text: String,
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an integer field.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.text, "{key}={v};");
        self
    }

    /// Appends a float field by its bit pattern.
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        let _ = write!(self.text, "{key}={:016x};", v.to_bits());
        self
    }

    /// Appends the recorder's drop counts by reason and its sender
    /// timeout total.
    pub fn drops_and_timeouts(&mut self, key: &str, rec: &Recorder) -> &mut Self {
        let drops: BTreeMap<String, u64> = rec
            .drops
            .iter()
            .map(|(r, n)| (format!("{r:?}"), *n))
            .collect();
        for (reason, n) in drops {
            self.int(&format!("{key}.drop.{reason}"), n);
        }
        self.int(&format!("{key}.timeouts"), rec.total_timeouts())
    }

    /// The canonical text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// 64-bit FNV-1a of the canonical text, as 16 hex digits.
    pub fn hash(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.text.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Recorded reference digests: `workload seed hash` per line, `#` comments.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// The recorded digest for `(workload, seed)`, if one was recorded.
pub fn reference(workload: &str, seed: u64) -> Option<&'static str> {
    REFERENCE.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, h) = (it.next()?, it.next()?, it.next()?);
        (w == workload && s.parse() == Ok(seed)).then_some(h)
    })
}
